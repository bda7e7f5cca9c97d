(* Provenance & causal analysis: ring cap/arity accounting, the qcheck
   property tying [--explain] slices to the engine's own dependency graph
   (transitive producer closure) across all three schedules with DAG
   sharing on and off, critical-path profile invariants, memo-replay
   records, and slice verification inside an edit session. *)

open Pag_core
open Pag_eval
open Pag_obs
open Pag_parallel
open Pascal

let qc ?(count = 25) name gen prop = Qc_seed.qc ~count name gen prop
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- ring accounting ---------------- *)

let test_ring_cap () =
  let p = Prov.create ~cap:4 ~arity:2 () in
  for i = 0 to 6 do
    Prov.record p ~rid:i ~pid:0 ~target:i ~t0:(float_of_int i)
      ~t1:(float_of_int i +. 0.5) ~replay:false
  done;
  check_bool "enabled" true (Prov.enabled p);
  check_int "length capped" 4 (Prov.length p);
  check_int "total counts overwrites" 7 (Prov.total p);
  check_int "dropped = overflow" 3 (Prov.dropped p);
  let rids = ref [] in
  Prov.iter p (fun f -> rids := f.Prov.f_rid :: !rids);
  Alcotest.(check (list int)) "newest survive, oldest first" [ 3; 4; 5; 6 ]
    (List.rev !rids)

let test_ring_args () =
  let p = Prov.create ~cap:8 ~arity:2 () in
  Prov.record p ~rid:0 ~pid:1 ~target:9 ~t0:0.0 ~t1:1.0 ~replay:false;
  List.iter (Prov.arg p) [ 10; 11; 12; 13 ];
  check_int "arity caps stored args" 2
    (Array.length (Prov.get p 0).Prov.f_args);
  check_int "overflow counted" 2 (Prov.arg_drops p);
  Prov.set_last_t1 p 9.0;
  check_bool "t1 patched" true ((Prov.get p 0).Prov.f_t1 = 9.0);
  Prov.clear p;
  check_int "clear empties" 0 (Prov.length p);
  check_int "clear resets arg_drops" 0 (Prov.arg_drops p)

let test_disabled_ring () =
  let p = Prov.disabled in
  Prov.record p ~rid:0 ~pid:0 ~target:0 ~t0:0.0 ~t1:1.0 ~replay:false;
  Prov.arg p 3;
  check_bool "disabled" false (Prov.enabled p);
  check_int "records nothing" 0 (Prov.length p);
  check_int "drops nothing" 0 (Prov.dropped p)

let test_arity_for_covers_widest_rule () =
  let a = Causal.arity_for Pascal_ag.grammar in
  check_bool "floored at 8" true (a >= 8);
  let widest =
    Array.fold_left
      (fun m p ->
        Array.fold_left
          (fun m r -> max m (List.length r.Grammar.r_deps))
          m p.Grammar.p_rules)
      0
      (Grammar.productions Pascal_ag.grammar)
  in
  check_bool "covers widest dependency list" true (a >= widest)

(* ---------------- slice = closure, across schedules ---------------- *)

let code_key g root =
  let attr_idx = Grammar.attr_pos g ~sym:root.Tree.sym ~attr:"code" in
  Causal.key_of root ~attr_idx

(* Reference closure from a from-scratch engine on the run's own tree:
   [Store.create_shared] keeps the node ids the recorded slots map to. *)
let verify_root_slice g d root =
  let st = Store.create_shared g root in
  let re = Engine.create g st in
  let gr = Engine.graph re in
  Causal.verify_slice d ~ref_engine:re ~ref_graph:gr (code_key g root)

let schedules = [ (`Static, "static"); (`Dynamic, "dynamic"); (`Steal, "steal") ]

let prop_slice_matches_closure =
  qc ~count:4 "provenance slice = graph closure (3 schedules x dag)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = Pascal_ag.grammar in
      let prog = fst (Progen.gen (Random.State.make [| seed |]) Progen.small) in
      List.for_all
        (fun (schedule, sname) ->
          List.for_all
            (fun dag ->
              let tree = Pascal_ag.tree_of_program g prog in
              let sp =
                Session.spec ~schedule ~dag ~librarian:false ~provenance:true 3
              in
              let r = Session.run sp g (Some (Lazy.force Driver.plan)) tree in
              let d = Causal.build r.Runner.r_prov in
              if Causal.dropped d > 0 || Causal.arg_drops d > 0 then
                QCheck.Test.fail_reportf "%s dag=%b: ring overflowed" sname dag
              else
                match verify_root_slice g d r.Runner.r_tree with
                | [], [] -> true
                | missing, extra ->
                    QCheck.Test.fail_reportf
                      "%s dag=%b: %d missing (%s) / %d extra (%s)" sname dag
                      (List.length missing)
                      (String.concat "," missing)
                      (List.length extra) (String.concat "," extra))
            [ false; true ])
        schedules)

(* ---------------- critical-path profile invariants ---------------- *)

let test_profile_invariants () =
  let g = Pascal_ag.grammar in
  let prog = Progen.skewed_program ~seed:5 ~chain:60 () in
  let tree = Pascal_ag.tree_of_program g prog in
  let sp = Session.spec ~schedule:`Steal ~librarian:false ~provenance:true 4 in
  let r = Session.run sp g (Some (Lazy.force Driver.plan)) tree in
  let d = Causal.build r.Runner.r_prov in
  let p = Causal.profile d in
  check_bool "firings recorded" true (p.Causal.pr_firings > 0);
  check_int "nothing dropped" 0 p.Causal.pr_dropped;
  let eps = 1e-9 +. (1e-6 *. p.Causal.pr_makespan) in
  check_bool "critical <= makespan" true
    (p.Causal.pr_critical <= p.Causal.pr_makespan +. eps);
  check_bool "ideal >= critical" true
    (p.Causal.pr_ideal >= p.Causal.pr_critical -. eps);
  check_bool "ideal >= work/machines" true
    (p.Causal.pr_ideal
    >= (p.Causal.pr_work /. float_of_int (max 1 p.Causal.pr_machines)) -. eps);
  check_bool "work >= critical" true
    (p.Causal.pr_work >= p.Causal.pr_critical -. eps);
  (match p.Causal.pr_chains with
  | [] -> Alcotest.fail "no chains"
  | top :: _ ->
      check_bool "top chain priced" true
        (abs_float (top.Causal.ch_len -. p.Causal.pr_critical) <= eps);
      (* steps are causally ordered: each firing starts no earlier than
         the one it consumed *)
      let rec ordered = function
        | a :: (b :: _ as rest) ->
            a.Causal.st_t0 <= b.Causal.st_t0 +. eps && ordered rest
        | _ -> true
      in
      check_bool "chain steps ordered" true (ordered top.Causal.ch_steps));
  check_bool "rule blame non-empty" true (p.Causal.pr_rule_blame <> []);
  check_bool "machine blame covers top chain" true
    (List.for_all (fun (pid, _, _) -> pid >= 0) p.Causal.pr_machine_blame);
  (* the JSON artifact parses back with the headline numbers intact *)
  let j = Causal.profile_json p in
  check_bool "json mentions critical" true
    (String.length j > 0
    &&
    match Test_obs.parse_json j with
    | Test_obs.J_obj fields ->
        List.mem_assoc "critical_s" fields && List.mem_assoc "makespan_s" fields
    | _ -> false)

(* ---------------- memo replays appear as zero-cost records ----------- *)

let test_replays_recorded () =
  let prog = Progen.repetitive ~routines:3 ~reps:30 () in
  let p = Prov.create ~arity:(Causal.arity_for Pascal_ag.grammar) () in
  let eng = ref None in
  let _ =
    Driver.compile ~evaluator:`Static ~dag:true ~prov:p
      ~engine_out:(fun e -> eng := Some e)
      prog
  in
  match !eng with
  | None -> Alcotest.fail "engine not handed back"
  | Some e ->
      let d = Causal.build [ (p, e) ] in
      let pr = Causal.profile d in
      check_bool "replays recorded" true (pr.Causal.pr_replays > 0);
      check_bool "replays are a subset" true
        (pr.Causal.pr_replays < pr.Causal.pr_firings)

(* ---------------- slices survive an edit session ---------------- *)

let test_edit_session_slice () =
  let g = Pascal_ag.grammar in
  let prog n = fst (Progen.gen (Random.State.make [| n |]) Progen.small) in
  let sp = Session.spec ~librarian:false ~provenance:true 3 in
  let es = Session.open_session sp g (Pascal_ag.tree_of_program g (prog 1)) in
  ignore (Session.edit es (Pascal_ag.tree_of_program g (prog 2)));
  let d = Causal.build [ (Session.prov es, Session.engine es) ] in
  check_int "session ring intact" 0 (Causal.dropped d);
  match verify_root_slice g d (Session.tree es) with
  | [], [] -> ()
  | missing, extra ->
      Alcotest.failf "post-edit slice disagrees: %d missing / %d extra"
        (List.length missing) (List.length extra)

let suite =
  [
    ( "causal",
      [
        Alcotest.test_case "ring cap accounting" `Quick test_ring_cap;
        Alcotest.test_case "ring arg arity" `Quick test_ring_args;
        Alcotest.test_case "disabled ring" `Quick test_disabled_ring;
        Alcotest.test_case "arity_for covers grammar" `Quick
          test_arity_for_covers_widest_rule;
        prop_slice_matches_closure;
        Alcotest.test_case "profile invariants" `Quick test_profile_invariants;
        Alcotest.test_case "memo replays recorded" `Quick test_replays_recorded;
        Alcotest.test_case "edit-session slice" `Quick test_edit_session_slice;
      ] );
  ]

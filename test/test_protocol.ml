(* Failure injection on the parallel protocol: malformed message sequences
   must surface as protocol errors, not hangs or silent corruption. *)

open Pag_core
open Pag_parallel
open Pag_grammars

module S = Netsim.Sim.Make (struct
  type msg = Message.t
end)

let check_bool = Alcotest.(check bool)

let plan =
  lazy
    (match Pag_analysis.Kastens.analyze Stackcode_ag.grammar with
    | Ok p -> p
    | Error _ -> assert false)

let worker_config () =
  {
    Worker.wc_grammar = Stackcode_ag.grammar;
    wc_plan = Some (Lazy.force plan);
    wc_mode = `Combined;
    wc_use_priority = true;
    wc_librarian = None;
    wc_phase_label = (fun _ -> None);
    wc_obs = Pag_obs.Obs.null_ctx;
    wc_sharing = None;
    wc_prov = Pag_obs.Prov.disabled;
    wc_prov_dwell = true;
    wc_engine_hook = ignore;
  }

let simple_task () =
  let tree = Stackcode_ag.main (Stackcode_ag.num 1) in
  ignore (Tree.number tree);
  {
    Worker.t_frag_id = 0;
    t_root = tree;
    t_cuts = [];
    t_parent_machine = 0;
    t_root_is_tree_root = true;
  }

let env_of _sim id =
  {
    Transport.e_id = id;
    e_delay = S.delay;
    e_send = (fun ~dst m -> S.send ~dst ~size:(Message.size m) m);
    e_recv = S.recv;
    e_recv_timeout = S.recv_timeout;
    e_time = S.time;
    e_mark = (fun _ -> ());
    e_flush = (fun () -> ());
  }

(* Run a worker against a scripted coordinator; return the worker's error. *)
let run_scripted ?(cfg = worker_config ()) ?(task = simple_task ()) script =
  let sim = S.create () in
  let failure = ref None in
  let _coord = S.spawn sim ~name:"coord" (fun () -> script (env_of sim 0)) in
  let _worker =
    S.spawn sim ~name:"worker" (fun () ->
        match Worker.run (env_of sim 1) cfg task with
        | _ -> ()
        | exception Worker.Stuck msg -> failure := Some msg)
  in
  (try S.run sim with S.Deadlock _ -> failure := Some "deadlock");
  !failure

let test_normal_protocol () =
  (* coordinator sends the assignment and collects the root attributes *)
  let got = ref [] in
  let failure =
    run_scripted (fun env ->
        env.Transport.e_send ~dst:1
          (Message.Subtree { frag = 0; bytes = 100; uid_base = Uid.stride });
        (* main_expr has syn value + code *)
        for _ = 1 to 2 do
          match env.Transport.e_recv () with
          | Message.Attr { attr; _ } -> got := attr :: !got
          | _ -> ()
        done)
  in
  check_bool "no failure" true (failure = None);
  check_bool "received value and code" true
    (List.sort compare !got = [ "code"; "value" ])

let test_unexpected_message_kind () =
  let failure =
    run_scripted (fun env ->
        env.Transport.e_send ~dst:1
          (Message.Subtree { frag = 0; bytes = 100; uid_base = Uid.stride });
        (* inject garbage mid-evaluation *)
        env.Transport.e_send ~dst:1 Message.Stop;
        for _ = 1 to 2 do
          ignore (env.Transport.e_recv ())
        done)
  in
  (* worker finishes before the Stop arrives (it never has to wait), or
     reports it as unexpected — both acceptable; what must not happen is a
     hang or corruption. Accept either outcome deterministically: *)
  check_bool "no deadlock" true (failure <> Some "deadlock")

let test_attr_for_unknown_node () =
  (* a stray attribute arriving BEFORE the assignment is stashed and must
     be rejected when the worker replays it after setup *)
  let failure =
    run_scripted (fun env ->
        env.Transport.e_send ~dst:1
          (Message.Attr { node = 424242; attr = "value"; value = Value.Int 1 });
        env.Transport.e_delay 0.01;
        env.Transport.e_send ~dst:1
          (Message.Subtree { frag = 0; bytes = 100; uid_base = Uid.stride }))
  in
  match failure with
  | Some msg ->
      check_bool
        (Printf.sprintf "protocol error reported (%s)" msg)
        true
        (String.length msg > 0)
  | None -> Alcotest.fail "expected the worker to reject the unknown node"

let test_combined_requires_plan () =
  let sim = S.create () in
  let saw = ref false in
  let _ =
    S.spawn sim ~name:"worker" (fun () ->
        match
          Worker.run (env_of sim 0)
            { (worker_config ()) with Worker.wc_plan = None }
            (simple_task ())
        with
        | _ -> ()
        | exception Worker.Stuck _ -> saw := true)
  in
  S.run sim;
  check_bool "stuck on missing plan" true !saw

let test_librarian_rejects_garbage () =
  let sim = S.create () in
  let failed = ref false in
  let lib =
    S.spawn sim ~name:"lib" (fun () ->
        match Librarian.run (env_of sim 0) ~coordinator:1 with
        | () -> ()
        | exception Failure _ -> failed := true)
  in
  let _ =
    S.spawn sim ~name:"coord" (fun () ->
        S.send ~dst:lib ~size:32
          (Message.Attr { node = 0; attr = "x"; value = Value.Unit }))
  in
  S.run sim;
  check_bool "librarian failed loudly" true !failed

let test_librarian_resolve_before_fragments () =
  (* the Resolve may overtake Code_frag messages; the librarian must wait *)
  let sim = S.create () in
  let final = ref "" in
  let lib =
    S.spawn sim ~name:"lib" (fun () -> Librarian.run (env_of sim 0) ~coordinator:1)
  in
  let coord =
    S.spawn sim ~name:"coord" (fun () ->
        let desc, frags =
          Codestr.extract_texts
            ~alloc:
              (let n = ref 0 in
               fun () ->
                 incr n;
                 !n)
            (Codestr.of_string "hello world")
        in
        S.send ~dst:lib ~size:16 (Message.Resolve { value = Codestr.value desc });
        S.delay 0.5;
        List.iter
          (fun (id, text) ->
            S.send ~dst:lib ~size:32 (Message.Code_frag { id; text }))
          frags;
        (match S.recv () with
        | Message.Final { text } -> final := Pag_util.Rope.to_string text
        | _ -> ());
        S.send ~dst:lib ~size:8 Message.Stop)
  in
  ignore coord;
  S.run sim;
  Alcotest.(check string) "assembled after late fragments" "hello world" !final

(* Rule-instance rows exist only where a rule id is read. The static
   evaluator fires from the rules' references, so it resolves none unless
   a provenance ring names its firings by rid. A worker's item graph names
   its spine's rules: the root fragment of a 2-machine split has a cut, so
   its combined worker resolves exactly the rules of the cut ancestors,
   while a dynamic worker, or a combined one recording provenance,
   resolves every owned rule. *)
let test_rows_where_rids_are_read () =
  let check_int = Alcotest.(check int) in
  let open Pascal in
  let prog = fst (Progen.gen (Random.State.make [| 5 |]) Progen.small) in
  let static ~prov =
    let eng = ref None in
    ignore
      (Driver.compile ~evaluator:`Static ~prov
         ~engine_out:(fun e -> eng := Some e)
         prog);
    Pag_eval.Engine.rule_count (Option.get !eng)
  in
  let rules (n : Tree.t) =
    match n.Tree.prod with Some p -> Array.length p.Grammar.p_rules | None -> 0
  in
  let tree = Pascal_ag.tree_of_program Pascal_ag.grammar prog in
  let all = ref 0 in
  Tree.iter (fun n -> all := !all + rules n) tree;
  check_int "static, no provenance" 0 (static ~prov:Pag_obs.Prov.disabled);
  check_int "static with a ring" !all
    (static
       ~prov:
         (Pag_obs.Prov.create
            ~arity:(Pag_eval.Causal.arity_for Pascal_ag.grammar)
            ()));
  (* The combined worker of the root fragment, against a coordinator that
     answers the stubs' synthesized attributes from a sequential run. *)
  let g = Stackcode_ag.grammar in
  let t =
    Stackcode_ag.random_program (Random.State.make [| 1 |]) ~depth:8 ~blocks:4
  in
  ignore (Tree.number t);
  let seq, _ = Pag_eval.Static_eval.eval (Lazy.force plan) t in
  let sp = Split.decompose g t ~machines:2 ~granularity:1.0 in
  let root = (Split.fragments sp).(0).Split.fr_root in
  let cuts = Split.cut_nodes sp 0 in
  check_bool "root fragment has cuts" true (cuts <> []);
  let is_cut n = List.memq n cuts in
  let rec cut_below (n : Tree.t) =
    Array.exists (fun c -> is_cut c || cut_below c) n.Tree.children
  in
  let rec owned keep (n : Tree.t) =
    if is_cut n then 0
    else
      (if keep n then rules n else 0)
      + Array.fold_left (fun a c -> a + owned keep c) 0 n.Tree.children
  in
  let worker_rows cfg =
    let eng = ref None in
    let cfg = { cfg with Worker.wc_engine_hook = (fun e -> eng := Some e) } in
    let task =
      {
        Worker.t_frag_id = 0;
        t_root = root;
        t_cuts = List.map (fun c -> (c, 0)) cuts;
        t_parent_machine = 0;
        t_root_is_tree_root = true;
      }
    in
    let failure =
      run_scripted ~cfg ~task (fun env ->
          env.Transport.e_send ~dst:1
            (Message.Subtree { frag = 0; bytes = 100; uid_base = Uid.stride });
          List.iter
            (fun (c : Tree.t) ->
              Array.iter
                (fun (a : Grammar.attr_decl) ->
                  if a.Grammar.a_kind = Grammar.Syn then
                    env.Transport.e_send ~dst:1
                      (Message.Attr
                         {
                           node = c.Tree.id;
                           attr = a.Grammar.a_name;
                           value = Pag_eval.Store.get seq c a.Grammar.a_name;
                         }))
                (Grammar.symbol g c.Tree.sym).Grammar.s_attrs)
            cuts)
    in
    check_bool "worker finished" true (failure = None);
    Pag_eval.Engine.rule_count (Option.get !eng)
  in
  let spine = owned cut_below root and every = owned (fun _ -> true) root in
  check_bool "spine is a strict part" true (0 < spine && spine < every);
  check_int "combined: the spine's rules" spine (worker_rows (worker_config ()));
  check_int "dynamic: every owned rule" every
    (worker_rows { (worker_config ()) with Worker.wc_mode = `Dynamic });
  check_int "combined with a ring: every owned rule" every
    (worker_rows
       {
         (worker_config ()) with
         Worker.wc_prov =
           Pag_obs.Prov.create ~arity:(Pag_eval.Causal.arity_for g) ();
       })

let suite =
  [
    ( "protocol",
      [
        Alcotest.test_case "normal exchange" `Quick test_normal_protocol;
        Alcotest.test_case "unexpected message" `Quick test_unexpected_message_kind;
        Alcotest.test_case "unknown node" `Quick test_attr_for_unknown_node;
        Alcotest.test_case "plan required" `Quick test_combined_requires_plan;
        Alcotest.test_case "librarian garbage" `Quick test_librarian_rejects_garbage;
        Alcotest.test_case "resolve before fragments" `Quick
          test_librarian_resolve_before_fragments;
        Alcotest.test_case "rows only where a rid is read" `Quick
          test_rows_where_rids_are_read;
      ] );
  ]

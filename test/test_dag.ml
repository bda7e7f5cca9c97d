(* First-class DAG evaluation: canonical DAG form of a tree, one
   rule-instance set per unique subtree, occurrence projection, class
   splitting on edit, and agreement with the per-occurrence engines across
   schedules. *)

open Pag_core
open Pag_eval
open Pag_grammars

let qc ?count name gen prop = Qc_seed.qc ?count name gen prop

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --------------- canonicalization properties --------------- *)

(* Independent ground truth for "number of unique subtrees": canonical ids
   assigned bottom-up from a structural-key table, sharing nothing with
   Tree.sharing's implementation. *)
let unique_subtrees t =
  let tbl = Hashtbl.create 64 in
  let next = ref 0 in
  let rec go (n : Tree.t) =
    let kids = Array.to_list (Array.map go n.Tree.children) in
    let key =
      ( n.Tree.sym,
        List.map (fun (a, v) -> (a, Value.to_string v)) n.Tree.term_attrs,
        kids )
    in
    match Hashtbl.find_opt tbl key with
    | Some id -> id
    | None ->
        let id = !next in
        incr next;
        Hashtbl.add tbl key id;
        id
  in
  ignore (go t);
  !next

let dag_canonical_ok t =
  let n = Tree.number t in
  let d = Tree.dag t in
  let sh = d.Tree.dg_sharing in
  (* class count = number of unique subtrees *)
  sh.Tree.sh_classes = unique_subtrees t
  (* the occurrence map is a partition of the node ids *)
  && Array.length d.Tree.dg_occ = n
  && d.Tree.dg_occ_off.(sh.Tree.sh_classes) = n
  && (let seen = Array.make n false in
      Array.iter (fun id -> seen.(id) <- true) d.Tree.dg_occ;
      Array.for_all (fun b -> b) seen)
  (* occurrence lists are grouped correctly, ascending, led by the
     representative (the first occurrence in preorder) *)
  && (let ok = ref true in
      for c = 0 to sh.Tree.sh_classes - 1 do
        let lo = d.Tree.dg_occ_off.(c) and hi = d.Tree.dg_occ_off.(c + 1) in
        if hi <= lo then ok := false
        else begin
          if d.Tree.dg_occ.(lo) <> sh.Tree.sh_rep.(c) then ok := false;
          for i = lo to hi - 1 do
            let id = d.Tree.dg_occ.(i) in
            if sh.Tree.sh_class.(id) <> c then ok := false;
            if i > lo && id <= d.Tree.dg_occ.(i - 1) then ok := false;
            (* occurrences of one class are pairwise disjoint id ranges *)
            if i > lo && id < d.Tree.dg_occ.(i - 1) + sh.Tree.sh_size.(c) then
              ok := false
          done
        end
      done;
      !ok)
  (* child edges point at the classes of the representative's children *)
  && (let ok = ref true in
      Tree.iter
        (fun node ->
          let c = sh.Tree.sh_class.(node.Tree.id) in
          if sh.Tree.sh_rep.(c) = node.Tree.id then begin
            let ks = d.Tree.dg_kids.(c) in
            if Array.length ks <> Array.length node.Tree.children then
              ok := false
            else
              Array.iteri
                (fun i ch ->
                  if ks.(i) <> sh.Tree.sh_class.(ch.Tree.id) then ok := false)
                node.Tree.children
          end)
        t;
      !ok)

let prop_dag_canonical_repmin =
  qc ~count:60 "Tree.dag canonical form (repmin trees)"
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
       QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      dag_canonical_ok (Repmin_ag.random_tree st ~depth:(4 + (seed mod 5))))

let prop_dag_canonical_expr =
  qc ~count:60 "Tree.dag canonical form (expr programs)"
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
       QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      dag_canonical_ok (Expr_ag.random_program st ~depth:(3 + (seed mod 4))))

(* --------------- dag-on == dag-off, sequential --------------- *)

let attrs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && Value.equal v1 v2)
       a b

let eval_both g t =
  let plain, _ = Dynamic.eval g t in
  let rt = ref None in
  let dagged, _ = Dynamic.eval ~dag:true ~dag_out:(fun r -> rt := Some r) g t in
  (plain, dagged, Option.get !rt)

let prop_dag_dynamic_agrees_repmin =
  qc ~count:80 "dynamic dag-on == dag-off (repmin)"
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
       QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let t = Repmin_ag.random_tree st ~depth:(3 + (seed mod 6)) in
      let plain, dagged, _ = eval_both Repmin_ag.grammar t in
      attrs_equal (Store.root_attrs plain) (Store.root_attrs dagged))

let prop_dag_dynamic_agrees_expr =
  qc ~count:80 "dynamic dag-on == dag-off (expr)"
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
       QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let t = Expr_ag.random_program st ~depth:(3 + (seed mod 4)) in
      let plain, dagged, _ = eval_both Expr_ag.grammar t in
      attrs_equal (Store.root_attrs plain) (Store.root_attrs dagged))

(* A maximally repetitive expression: the DAG run must actually project
   (not just agree), and the fired instance count must scale with unique
   nodes, not tree nodes. The expression grammar has no synthesized-to-
   inherited feedback, so same-scope occurrences share cleanly. *)
let test_dag_projects_repetitive () =
  let unit_ () =
    (* a deep, structurally identical arithmetic unit over the let-bound
       variable — physically fresh per occurrence (trees, not graphs) *)
    let rec build d =
      if d = 0 then Expr_ag.var "x"
      else Expr_ag.mul (Expr_ag.add (build (d - 1)) (Expr_ag.num d)) (Expr_ag.num 3)
    in
    build 5
  in
  let body =
    let rec chain k =
      if k = 0 then unit_ () else Expr_ag.add (unit_ ()) (chain (k - 1))
    in
    chain 40
  in
  (* the binding constant 99 appears nowhere in the units: every shape
     class occurring more than once has a uniform inherited context (a
     [num] shared with the binding position would legitimately split —
     the binding is evaluated in the outer scope) *)
  let t = Expr_ag.main (Expr_ag.let_in "x" (Expr_ag.num 99) body) in
  let plain, _ = Dynamic.eval Expr_ag.grammar t in
  let eng = ref None in
  let rt = ref None in
  let dagged, _ =
    Dynamic.eval ~dag:true
      ~dag_out:(fun r -> rt := Some r)
      ~engine_out:(fun e -> eng := Some e)
      Expr_ag.grammar t
  in
  check_bool "values agree" true
    (attrs_equal (Store.root_attrs plain) (Store.root_attrs dagged));
  let st = Dag.stats (Option.get !rt) in
  check_bool "regions parked" true (st.Dag.dg_regions >= 40);
  check_bool "projection happened" true (st.Dag.dg_projected_slots > 0);
  check_int "nothing materialized (no uids, uniform context)" 0
    st.Dag.dg_materialized;
  let fired = Pag_eval.Engine.fired (Option.get !eng) in
  check_bool
    (Printf.sprintf "fired %d = O(unique nodes), not O(tree)" fired)
    true
    (fired < Store.slot_count plain / 4)

(* Divergent inherited context: the same shape class in two scopes must
   split — one occurrence evaluates its own instances and becomes the
   leader for its own (class, fingerprint). *)
let test_dag_divergent_context_splits () =
  let unit_ () = Expr_ag.mul (Expr_ag.var "x") (Expr_ag.num 3) in
  let body () = Expr_ag.add (unit_ ()) (Expr_ag.add (unit_ ()) (unit_ ())) in
  (* [num 3] also appears as the binding of the inner let, where the
     visible scope differs (binding evaluated outside its own scope) *)
  let t =
    Expr_ag.main
      (Expr_ag.let_in "x" (Expr_ag.num 3)
         (Expr_ag.add (body ()) (Expr_ag.let_in "y" (Expr_ag.num 3) (body ()))))
  in
  let plain, _ = Dynamic.eval Expr_ag.grammar t in
  let rt = ref None in
  let dagged, _ =
    Dynamic.eval ~dag:true ~dag_out:(fun r -> rt := Some r) Expr_ag.grammar t
  in
  check_bool "values agree" true
    (attrs_equal (Store.root_attrs plain) (Store.root_attrs dagged));
  let st = Dag.stats (Option.get !rt) in
  check_bool "divergent contexts materialized" true (st.Dag.dg_materialized > 0);
  check_bool "uniform contexts still projected" true (st.Dag.dg_projected > 0)

(* Repmin: inherited gmin is the tree's own min fed back down, so parked
   occurrences can never project — demand materialization must keep the
   evaluation complete and correct. *)
let test_dag_repmin_feedback_materializes () =
  let shared =
    let rec build d =
      if d = 0 then Repmin_ag.leaf 7
      else Repmin_ag.fork (build (d - 1)) (build (d - 1))
    in
    build 5
  in
  let t = Repmin_ag.root shared in
  let plain, _ = Dynamic.eval Repmin_ag.grammar t in
  let rt = ref None in
  let dagged, _ =
    Dynamic.eval ~dag:true ~dag_out:(fun r -> rt := Some r) Repmin_ag.grammar t
  in
  check_bool "values agree" true
    (attrs_equal (Store.root_attrs plain) (Store.root_attrs dagged));
  let st = Dag.stats (Option.get !rt) in
  check_bool "feedback path forced materialization" true
    (st.Dag.dg_materialized > 0)

(* --------------- Pascal: labels (uids) and masked code --------------- *)

let interp_out prog =
  match Pascal.Interp.run prog with
  | Ok s -> s
  | Error _ -> Alcotest.fail "interpreter failed"

let vax_out c =
  match Pascal.Driver.run_compiled ~input:[] c with
  | Ok s -> s
  | Error e -> Alcotest.failf "compiled program failed: %s" e

(* Label definitions in VAX assembly: "L<n>:" at line start. Every label
   must be defined exactly once — the uid-never-collapsed property: a
   projected duplicate would define the same label twice. *)
let duplicate_labels asm =
  let tbl = Hashtbl.create 64 in
  let dup = ref 0 in
  String.split_on_char '\n' asm
  |> List.iter (fun line ->
         let line = String.trim line in
         if String.length line > 2 && line.[0] = 'L' then
           match String.index_opt line ':' with
           | Some i
             when String.for_all
                    (fun c -> c >= '0' && c <= '9')
                    (String.sub line 1 (i - 1))
                  && i > 1 ->
               let l = String.sub line 0 i in
               if Hashtbl.mem tbl l then incr dup else Hashtbl.add tbl l ()
           | _ -> ());
  !dup

let test_dag_pascal_repetitive () =
  let prog = Pascal.Progen.repetitive ~routines:4 ~reps:24 () in
  let reference = interp_out prog in
  let plain = Pascal.Driver.compile ~evaluator:`Dynamic prog in
  let rt = ref None in
  let dagged =
    Pascal.Driver.compile ~evaluator:`Dynamic ~dag:true
      ~dag_out:(fun r -> rt := Some r)
      prog
  in
  check_string "masked code agrees"
    (Pascal.Driver.mask_labels plain.Pascal.Driver.c_asm)
    (Pascal.Driver.mask_labels dagged.Pascal.Driver.c_asm);
  check_string "dag-compiled output = interpreter" reference (vax_out dagged);
  check_int "no duplicate label definitions" 0
    (duplicate_labels dagged.Pascal.Driver.c_asm);
  let st = Dag.stats (Option.get !rt) in
  check_bool "repetitive program has parked regions" true
    (st.Dag.dg_regions > 0)

let prop_dag_pascal_random =
  qc ~count:10 "dag-on == dag-off (random pascal, dynamic+static)"
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
       QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let prog, _ = Pascal.Progen.gen st Pascal.Progen.small in
      let plain = Pascal.Driver.compile ~evaluator:`Dynamic prog in
      let dag_dyn = Pascal.Driver.compile ~evaluator:`Dynamic ~dag:true prog in
      let dag_stat = Pascal.Driver.compile ~evaluator:`Static ~dag:true prog in
      let m = Pascal.Driver.mask_labels in
      String.equal (m plain.Pascal.Driver.c_asm) (m dag_dyn.Pascal.Driver.c_asm)
      && String.equal (m plain.Pascal.Driver.c_asm)
           (m dag_stat.Pascal.Driver.c_asm)
      && duplicate_labels dag_dyn.Pascal.Driver.c_asm = 0)

(* --------------- incremental class splitting --------------- *)

let as_int v = Value.as_int ~ctx:"test_dag" v

let nodes_of_prod t name =
  let acc = ref [] in
  Tree.iter
    (fun (n : Tree.t) ->
      match n.Tree.prod with
      | Some p when String.equal p.Grammar.p_name name -> acc := n :: !acc
      | _ -> ())
    t;
  List.rev !acc

(* A chain of nine identical units over the let-bound [x]: one shape
   class, the first occurrence is its leader, the other eight project. *)
let shared_chain_program ~units =
  let unit_ () =
    Expr_ag.mul
      (Expr_ag.add (Expr_ag.var "x") (Expr_ag.num 7))
      (Expr_ag.num 3)
  in
  let rec chain k =
    if k = 0 then unit_ () else Expr_ag.add (unit_ ()) (chain (k - 1))
  in
  Expr_ag.main (Expr_ag.let_in "x" (Expr_ag.num 99) (chain (units - 1)))

(* Edit INSIDE one projected occurrence of a shared subtree: exactly that
   occurrence splits off its class (materializes, sticky), every other
   occurrence keeps its projected value, and the store matches the
   reference semantics of the edited tree. *)
let test_dag_incr_split_on_edit () =
  let t = shared_chain_program ~units:9 in
  (* frontier > 1: the session must not fall back — the split path itself
     is under test *)
  let s = Incr.start ~dag:true ~frontier:2.0 Expr_ag.grammar t in
  let st0 = Option.get (Incr.dag_stats s) in
  check_bool "initial evaluation projected" true (st0.Dag.dg_projected > 0);
  let units = nodes_of_prod (Incr.tree s) "mul" in
  check_int "nine unit occurrences" 9 (List.length units);
  let store = Incr.store s in
  List.iter
    (fun u -> check_int "unit value before edit" 318 (as_int (Store.get store u "value")))
    units;
  (* the last occurrence in preorder is a projected follower; edit its
     inner [num 7] to [num 5] *)
  let last = List.nth units 8 in
  let inner_add = last.Tree.children.(0) in
  let st =
    Incr.replace s ~next:(Incr.tree s)
      (Tree.Subtree { parent = inner_add; pos = 2; repl = Expr_ag.num 5 })
  in
  check_bool "edit propagated incrementally" false (st.Incr.wv_fallbacks > 0);
  let store = Incr.store s in
  check_int "edited occurrence recomputed" 312
    (as_int (Store.get store last "value"));
  List.iteri
    (fun i u ->
      if i < 8 then
        check_int "other occurrences keep their values" 318
          (as_int (Store.get store u "value")))
    units;
  let st1 = Option.get (Incr.dag_stats s) in
  check_bool "edited occurrence split off its class" true
    (st1.Dag.dg_materialized > st0.Dag.dg_materialized);
  check_int "root value = reference semantics"
    (Expr_ag.reference_value (Incr.tree s))
    (as_int (List.assoc "value" (Store.root_attrs store)))

(* Edit the let binding: the inherited symbol table reaching every unit
   changes, so the dirty cone hits the inherited gate of each projected
   occurrence — they all split (revive through the gate) and recompute. *)
let test_dag_incr_gate_divergence_splits () =
  let t = shared_chain_program ~units:6 in
  let s = Incr.start ~dag:true ~frontier:2.0 Expr_ag.grammar t in
  let st0 = Option.get (Incr.dag_stats s) in
  check_bool "initial evaluation projected" true (st0.Dag.dg_projected > 0);
  let block =
    match nodes_of_prod (Incr.tree s) "block" with
    | [ b ] -> b
    | _ -> Alcotest.fail "expected exactly one block"
  in
  let st =
    Incr.replace s ~next:(Incr.tree s)
      (Tree.Subtree { parent = block; pos = 3; repl = Expr_ag.num 100 })
  in
  check_bool "edit propagated incrementally" false (st.Incr.wv_fallbacks > 0);
  let store = Incr.store s in
  List.iter
    (fun u ->
      check_int "unit recomputed under the new binding" 321
        (as_int (Store.get store u "value")))
    (nodes_of_prod (Incr.tree s) "mul");
  let st1 = Option.get (Incr.dag_stats s) in
  check_bool "gate change split projected occurrences" true
    (st1.Dag.dg_materialized > st0.Dag.dg_materialized);
  check_int "root value = reference semantics"
    (Expr_ag.reference_value (Incr.tree s))
    (as_int (List.assoc "value" (Store.root_attrs store)))

(* --------------- parallel parity sweep --------------- *)

(* Every parallel path, with and without [--dag]: the masked code must
   equal the sequential reference whatever the schedule or transport, so
   dag-on == dag-off on each of them. *)
let parallel_masked_asm ~transport ~schedule ~dag prog =
  let o =
    {
      Pag_parallel.Runner.default_options with
      Pag_parallel.Runner.machines = 3;
      schedule;
      use_dag = dag;
      phase_label = Pascal.Driver.phase_label;
    }
  in
  let _, c =
    match transport with
    | `Sim -> Pascal.Driver.compile_parallel_sim o prog
    | `Domains -> Pascal.Driver.compile_parallel_domains o prog
  in
  Pascal.Driver.mask_labels c.Pascal.Driver.c_asm

let test_dag_parallel_parity () =
  let prog =
    fst (Pascal.Progen.gen (Random.State.make [| 42 |]) Pascal.Progen.small)
  in
  let reference =
    Pascal.Driver.mask_labels
      (Pascal.Driver.compile ~evaluator:`Static prog).Pascal.Driver.c_asm
  in
  List.iter
    (fun (transport, tname) ->
      List.iter
        (fun (schedule, sname) ->
          List.iter
            (fun dag ->
              let name =
                Printf.sprintf "%s/%s dag=%b == sequential" tname sname dag
              in
              check_string name reference
                (parallel_masked_asm ~transport ~schedule ~dag prog))
            [ false; true ])
        [ (`Static, "static"); (`Dynamic, "dynamic"); (`Steal, "steal") ])
    [ (`Sim, "sim"); (`Domains, "domains") ]

let suite =
  [
    ( "dag",
      [
        prop_dag_canonical_repmin;
        prop_dag_canonical_expr;
        prop_dag_dynamic_agrees_repmin;
        prop_dag_dynamic_agrees_expr;
        Alcotest.test_case "repetitive tree projects" `Quick
          test_dag_projects_repetitive;
        Alcotest.test_case "divergent context splits" `Quick
          test_dag_divergent_context_splits;
        Alcotest.test_case "repmin feedback materializes" `Quick
          test_dag_repmin_feedback_materializes;
        Alcotest.test_case "pascal repetitive (labels stay distinct)" `Quick
          test_dag_pascal_repetitive;
        prop_dag_pascal_random;
        Alcotest.test_case "incr: edited occurrence splits, others keep values"
          `Quick test_dag_incr_split_on_edit;
        Alcotest.test_case "incr: inherited-gate change splits projections"
          `Quick test_dag_incr_gate_divergence_splits;
        Alcotest.test_case
          "parallel parity: {static,dynamic,steal} x {sim,domains} x dag"
          `Quick test_dag_parallel_parity;
      ] );
  ]

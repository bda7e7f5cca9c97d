(* Edge cases of the flat attribute store: zero-attribute symbols get zero
   slots, stub-stopped traversal for fragment stores, double-set detection
   (by name and by slot id), and the sparse-id offset path used by
   create_shared over tree fragments. *)

open Pag_core
open Pag_eval

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A grammar with a zero-attribute nonterminal in the middle: [sep] carries
   no attributes at all, so it must occupy no slots. *)
let gap_grammar =
  let open Grammar in
  make ~name:"gap" ~start:"r"
    [
      terminal "T" [ "v" ];
      nonterminal "r" [ syn "out" ];
      nonterminal "sep" [];
      nonterminal "x" [ syn "s" ];
    ]
    [
      production ~name:"root" ~lhs:"r" ~rhs:[ "sep"; "x" ]
        [ rule (lhs "out") ~deps:[ rhs 2 "s" ] (fun a -> a.(0)) ];
      production ~name:"gap" ~lhs:"sep" ~rhs:[ "T" ] [];
      production ~name:"leaf" ~lhs:"x" ~rhs:[ "T" ]
        [ rule (lhs "s") ~deps:[ rhs 1 "v" ] (fun a -> a.(0)) ];
    ]

let gap_tree () =
  let g = gap_grammar in
  Tree.node g "root"
    [
      Tree.node g "gap" [ Tree.leaf g "T" [ ("v", Value.Int 0) ] ];
      Tree.node g "leaf" [ Tree.leaf g "T" [ ("v", Value.Int 7) ] ];
    ]

let test_zero_attr_symbols () =
  let t = gap_tree () in
  let store = Store.create gap_grammar t in
  (* r.out + x.s — sep and the terminal leaves contribute no slots *)
  check_int "slot count" 2 (Store.slot_count store);
  check_int "missing before eval" 2 (Store.missing store);
  let store = Oracle.eval gap_grammar t in
  check_int "missing after eval" 0 (Store.missing store);
  check_int "root value" 7
    (Value.as_int ~ctx:"test" (Store.get store (Store.root store) "out"))

let test_zero_attr_dynamic () =
  let t = gap_tree () in
  let store, stats = Dynamic.eval gap_grammar t in
  check_int "instances" 2 stats.Dynamic.instances;
  check_int "evals" 2 stats.Dynamic.evals;
  check_int "missing" 0 (Store.missing store)

let test_reset_detected () =
  let t = gap_tree () in
  let store = Store.create gap_grammar t in
  let root = Store.root store in
  Store.set store root "out" (Value.Int 1);
  check_bool "set once" true (Store.is_set store root "out");
  (match Store.set store root "out" (Value.Int 2) with
  | () -> Alcotest.fail "second set must raise"
  | exception Store.Error _ -> ());
  (* same check through the slot-id interface *)
  let slot = Store.slot_of store root ~attr_idx:0 in
  check_bool "slot set" true (Store.slot_is_set store slot);
  match Store.define_slot store slot (Value.Int 3) with
  | () -> Alcotest.fail "define_slot on set slot must raise"
  | exception Store.Error _ -> ()

let test_equal_reset_is_idempotent () =
  (* Rules are pure: re-deriving an instance (a replayed network message)
     yields the same value, which must be accepted silently — and not
     counted as another set. *)
  let t = gap_tree () in
  let store = Store.create gap_grammar t in
  let root = Store.root store in
  Store.set store root "out" (Value.Int 1);
  let sets_before = Store.sets store in
  Store.set store root "out" (Value.Int 1);
  check_int "idempotent re-set not counted" sets_before (Store.sets store);
  check_int "value unchanged" 1
    (Value.as_int ~ctx:"test" (Store.get store root "out"));
  let slot = Store.slot_of store root ~attr_idx:0 in
  Store.define_slot store slot (Value.Int 1);
  check_int "slot re-set not counted" sets_before (Store.sets store);
  (* a *different* value is still the hard error *)
  match Store.define_slot store slot (Value.Int 2) with
  | () -> Alcotest.fail "conflicting re-set must raise"
  | exception Store.Error _ -> ()

let test_root_inh_preset () =
  let open Grammar in
  let g =
    make ~name:"inh" ~start:"x"
      [ terminal "T" []; nonterminal "x" [ inh "i"; syn "s" ] ]
      [
        production ~name:"leaf" ~lhs:"x" ~rhs:[ "T" ]
          [ rule (lhs "s") ~deps:[ lhs "i" ] (fun a -> a.(0)) ];
      ]
  in
  let t = Tree.node g "leaf" [ Tree.leaf g "T" [] ] in
  let store = Store.create ~root_inh:[ ("i", Value.Int 9) ] g t in
  check_bool "preset visible" true (Store.is_set store (Store.root store) "i");
  check_int "presets are not counted as sets" 0 (Store.sets store);
  check_int "only s missing" 1 (Store.missing store)

(* Fragment stores: number the whole tree once, then build a store over an
   inner subtree. Its node ids are global (do not start at 0), which
   exercises the offset-based id -> dense-index mapping. *)
let test_shared_fragment_ids () =
  let t = gap_tree () in
  ignore (Tree.number t);
  let sub = t.Tree.children.(1) in
  (* the "leaf" node *)
  check_bool "fragment root has a global id" true (sub.Tree.id > 0);
  let store = Store.create_shared gap_grammar sub in
  check_int "fragment slots" 1 (Store.slot_count store);
  check_bool "covers own root" true (Store.find_node store sub.Tree.id <> None);
  check_bool "does not cover siblings" true
    (Store.find_node store t.Tree.id = None);
  Store.set store sub "s" (Value.Int 3);
  check_int "fragment get" 3
    (Value.as_int ~ctx:"test" (Store.get store sub "s"))

let test_stub_stopped_populate () =
  let t = gap_tree () in
  ignore (Tree.number t);
  let stub = t.Tree.children.(1) in
  (* Stop below [stub]: the stub's own slots are allocated (its boundary
     attributes live here) but its children are not covered. *)
  let store =
    Store.create_shared ~stop:(fun n -> n == stub) gap_grammar t
  in
  check_int "slots include the stub's own" 2 (Store.slot_count store);
  check_bool "stub covered" true (Store.find_node store stub.Tree.id <> None);
  check_bool "stub child not covered" true
    (Store.find_node store stub.Tree.children.(0).Tree.id = None);
  (* stop at the root itself still descends: root is always covered fully *)
  let whole = Store.create_shared ~stop:(fun _ -> true) gap_grammar t in
  check_int "root stop still allocates root's children" 2
    (Store.node_count whole - 1)

(* Appending replacement subtrees one at a time, as an edit session does:
   the arrays grow geometrically behind the logical sizes, so every query
   must answer from the logical node count, slot count and id span — an id
   just past the span is not covered even when the reserve already has room
   for it. Values set before a growth survive it, and appended slots start
   unset. *)
let test_append_subtree_grows () =
  let g = gap_grammar in
  let t = gap_tree () in
  let store = Store.create g t in
  let next = ref (Store.node_count store) in
  let appended = ref [] in
  for k = 1 to 40 do
    let nodes0 = Store.node_count store and slots0 = Store.slot_count store in
    (* a [leaf] node (one slot) over a terminal leaf (none) *)
    let sub = Tree.node g "leaf" [ Tree.leaf g "T" [ ("v", Value.Int k) ] ] in
    let lo = !next in
    next := Tree.number_from sub lo;
    Store.append_subtree store sub;
    check_int "node count" (nodes0 + 2) (Store.node_count store);
    check_int "slot count" (slots0 + 1) (Store.slot_count store);
    let found id n =
      match Store.find_node store id with Some m -> m == n | None -> false
    in
    check_bool "appended root found" true (found lo sub);
    check_bool "appended leaf found" true
      (found (lo + 1) sub.Tree.children.(0));
    check_bool "id past the span not covered" true
      (Store.find_node store !next = None);
    Alcotest.(check (option (pair int int)))
      "slot range of the graft" (Some (slots0, slots0 + 1))
      (Store.slot_range store ~id_lo:lo ~id_count:2);
    check_bool "appended slot starts unset" false
      (Store.is_set store sub "s");
    Store.set store sub "s" (Value.Int k);
    appended := sub :: !appended;
    let ids = ref [] in
    Store.iter_nodes store (fun n -> ids := n.Tree.id :: !ids);
    Alcotest.(check (list int))
      "iter_nodes in dense order" (List.init !next Fun.id) (List.rev !ids)
  done;
  List.iteri
    (fun i sub ->
      check_int "value kept across growth" (40 - i)
        (Value.as_int ~ctx:"test" (Store.get store sub "s")))
    !appended;
  check_int "missing: the original tree's slots" 2 (Store.missing store)

(* [Store.missing] is kept as a counter; recount it bit by bit after
   every way a slot gets set: rule firings and edit appends in a resident
   session, DAG projection, a domains run's commits after the join, and
   preset root attributes (one attribute preset twice counts once). *)
let unset_bits st =
  let k = ref 0 in
  for slot = 0 to Store.slot_count st - 1 do
    if not (Store.slot_is_set st slot) then incr k
  done;
  !k

let prop_missing_is_a_count =
  Qc_seed.qc ~count:25 "missing = unset bits, however slots were set"
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "program seeds %d, %d" a b)
       QCheck.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000)))
    (fun (a, b) ->
      let open Pag_grammars in
      let g = Expr_ag.grammar in
      let prog seed = Expr_ag.random_program (Random.State.make [| seed |]) ~depth:4 in
      let agrees st = Store.missing st = unset_bits st in
      (* a session's store after an edit, then with a subtree appended
         and not yet evaluated *)
      let s = Incr.start g (prog a) in
      ignore (Incr.edit s (prog b));
      let session = agrees (Incr.store s) in
      let st = Incr.store s in
      let sub = Expr_ag.random_expr (Random.State.make [| b |]) ~depth:3 ~vars:[] in
      ignore (Tree.number_from sub (Store.node_count st));
      Store.append_subtree st sub;
      let appended = agrees st && Store.missing st > 0 in
      let dag = agrees (fst (Dynamic.eval ~dag:true g (prog a))) in
      let st = Store.create g (prog b) in
      let e = Engine.create g st in
      ignore (Engine.run_steal ~domains:2 e (Engine.graph e));
      let domains = agrees st in
      let stab = Value.Tab Pag_util.Symtab.empty in
      let root_inh = [ ("stab", stab); ("stab", stab) ] in
      let expr () = Expr_ag.random_expr (Random.State.make [| a |]) ~depth:4 ~vars:[] in
      let preset = agrees (Store.create ~root_inh g (expr ())) in
      let evaluated = agrees (fst (Dynamic.eval ~root_inh g (expr ()))) in
      session && appended && dag && domains && preset && evaluated)

let suite =
  [
    ( "store",
      [
        Alcotest.test_case "zero-attribute symbols get no slots" `Quick
          test_zero_attr_symbols;
        Alcotest.test_case "dynamic eval over zero-attribute symbols" `Quick
          test_zero_attr_dynamic;
        Alcotest.test_case "double set is an error (name and slot paths)"
          `Quick test_reset_detected;
        Alcotest.test_case "equal re-set is an idempotent no-op" `Quick
          test_equal_reset_is_idempotent;
        Alcotest.test_case "root_inh presets" `Quick test_root_inh_preset;
        Alcotest.test_case "fragment store over global ids" `Quick
          test_shared_fragment_ids;
        Alcotest.test_case "stub-stopped traversal" `Quick
          test_stub_stopped_populate;
        Alcotest.test_case "append_subtree grows behind logical sizes"
          `Quick test_append_subtree_grows;
        prop_missing_is_a_count;
      ] );
  ]

(* Incremental re-evaluation: every edit sequence, evaluated incrementally,
   must land on exactly the attribute values a from-scratch evaluation of
   the edited tree computes — with the equality cutoff, the dirty-frontier
   fallback and hash-consing all in play. *)

open Pag_core
open Pag_eval
open Pag_grammars

let qc ?(count = 60) name gen prop = Qc_seed.qc ~count name gen prop

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Walk two structurally equal trees in lockstep and compare every
   attribute instance of the two stores. *)
let values_agree g sa ta sb tb =
  let ok = ref true in
  let rec go (a : Tree.t) (b : Tree.t) =
    (match a.Tree.prod with
    | None -> ()
    | Some _ ->
        let sym = Grammar.symbol g a.Tree.sym in
        Array.iter
          (fun (ad : Grammar.attr_decl) ->
            match
              ( Store.get_opt sa a ad.Grammar.a_name,
                Store.get_opt sb b ad.Grammar.a_name )
            with
            | Some x, Some y -> if not (Value.equal x y) then ok := false
            | _ -> ok := false)
          sym.Grammar.s_attrs);
    Array.iteri (fun i c -> go c b.Tree.children.(i)) a.Tree.children
  in
  go ta tb;
  !ok

(* Incremental session against a from-scratch dynamic evaluation of a
   structurally identical tree (same generator, same seed — never the same
   physical tree: evaluating it twice would renumber the session's nodes). *)
let agrees_with_scratch g session fresh =
  let scratch, _ = Dynamic.eval g fresh in
  values_agree g (Incr.store session) (Incr.tree session) scratch fresh

(* ---------------- deterministic cases (expr grammar) ---------------- *)

let expr_a () = Expr_ag.(main (add (num 1) (mul (num 2) (num 3))))
let expr_b () = Expr_ag.(main (add (num 1) (mul (num 5) (num 3))))
let expr_c () = Expr_ag.(main (let_in "x" (num 4) (add (var "x") (num 2))))

let test_single_edit () =
  let g = Expr_ag.grammar in
  let s = Incr.start g (expr_a ()) in
  let st = Incr.edit s (expr_b ()) in
  (* No fallback certifies the dirty cone stayed under the frontier — the
     edit really was handled incrementally. *)
  check_bool "no fallback" false (st.Incr.wv_fallbacks > 0);
  check_bool "something was dirty" true (st.Incr.wv_dirty > 0);
  check_bool "refired within the cone" true
    (st.Incr.wv_refired <= st.Incr.wv_dirty);
  check_bool "values = scratch" true (agrees_with_scratch g s (expr_b ()))

let test_identity_edit () =
  let g = Expr_ag.grammar in
  let s = Incr.start g (expr_a ()) in
  let st = Incr.edit s (expr_a ()) in
  check_int "nothing dirty" 0 st.Incr.wv_dirty;
  check_int "nothing refired" 0 st.Incr.wv_refired;
  check_bool "root not changed" false
    (Incr.changed s (Incr.tree s) "value")

let test_root_replacement_falls_back () =
  let g = Expr_ag.grammar in
  let s = Incr.start g (expr_a ()) in
  (* A different production at the root's child: the delta has no
     enclosing replacement site below the root. *)
  let _st = Incr.edit s (expr_c ()) in
  check_bool "values = scratch" true (agrees_with_scratch g s (expr_c ()))

let test_fallback_on_demand_is_correct () =
  let g = Expr_ag.grammar in
  let s = Incr.start ~frontier:0.0 g (expr_a ()) in
  let st = Incr.edit s (expr_b ()) in
  check_bool "fallback taken" true (st.Incr.wv_fallbacks > 0);
  check_bool "changed is conservative" true
    (Incr.changed s (Incr.tree s) "value");
  check_bool "values = scratch" true (agrees_with_scratch g s (expr_b ()))

(* ---------------- cutoff (repmin grammar) ---------------- *)

(* Editing a leaf that is not the minimum and stays above it leaves [min]
   at the root unchanged — the equality cutoff must stop propagation
   before the global res recomputation fans back out. *)
let repmin_tree hi =
  Repmin_ag.(root (fork (fork (leaf 1) (leaf hi)) (fork (leaf 7) (leaf 9))))

let test_cutoff_stops_propagation () =
  let g = Repmin_ag.grammar in
  (* The repmin cone is value-blind and spans the whole tree (min feeds
     back down as gmin), so disable the frontier: the cutoff is what keeps
     this edit cheap. *)
  let s = Incr.start ~frontier:1.1 g (repmin_tree 5) in
  let st = Incr.edit s (repmin_tree 6) in
  check_bool "no fallback" false (st.Incr.wv_fallbacks > 0);
  check_bool "cutoff hit" true (st.Incr.wv_cutoff > 0);
  check_bool "root res unchanged" false
    (Incr.changed s (Incr.tree s) "res");
  check_bool "values = scratch" true (agrees_with_scratch g s (repmin_tree 6))

let test_min_change_propagates () =
  let g = Repmin_ag.grammar in
  let s = Incr.start g (repmin_tree 5) in
  (* New global minimum: every res instance in the tree must move. *)
  let st = Incr.edit s (repmin_tree 0) in
  check_bool "root res changed" true (Incr.changed s (Incr.tree s) "res");
  check_bool "values = scratch" true (agrees_with_scratch g s (repmin_tree 0));
  ignore st

(* ---------------- properties ---------------- *)

let seq_arb =
  QCheck.make
    ~print:(fun (s0, edits) ->
      Printf.sprintf "base seed %d, edit seeds [%s]" s0
        (String.concat ";" (List.map string_of_int edits)))
    QCheck.Gen.(
      pair (int_bound 1_000_000) (list_size (1 -- 6) (int_bound 1_000_000)))

let expr_of seed =
  Expr_ag.random_program (Random.State.make [| seed |]) ~depth:5

let prop_expr_edit_sequences dag =
  qc
    (Printf.sprintf "expr edit sequences = from-scratch (dag %b)" dag)
    seq_arb
    (fun (s0, edits) ->
      let g = Expr_ag.grammar in
      let s = Incr.start ~dag g (expr_of s0) in
      List.for_all
        (fun seed ->
          ignore (Incr.edit s (expr_of seed));
          agrees_with_scratch g s (expr_of seed))
        edits)

let prop_random_ag_edit_sequences dag =
  qc ~count:40
    (Printf.sprintf "random AG edit sequences = from-scratch (dag %b)" dag)
    (QCheck.make
       ~print:(fun (gs, ts, edits) ->
         Printf.sprintf "grammar %d, base %d, edits [%s]" gs ts
           (String.concat ";" (List.map string_of_int edits)))
       QCheck.Gen.(
         triple (int_bound 1_000_000) (int_bound 1_000_000)
           (list_size (1 -- 5) (int_bound 1_000_000))))
    (fun (gseed, tseed, edits) ->
      let g = Test_random_ag.build_grammar (Random.State.make [| gseed |]) in
      let tree_of seed =
        Test_random_ag.build_tree (Random.State.make [| seed |]) g
      in
      (* Only noncircular bases are sessions; circular random grammars are
         covered by the evaluator-agreement suite. *)
      match Incr.start ~dag g (tree_of tseed) with
      | exception Engine.Cycle _ -> true
      | s ->
          (* Stop at the first cyclic edit: the session is not usable past
             an evaluation that could not complete. *)
          let rec go = function
            | [] -> true
            | seed :: rest -> (
                match Incr.edit s (tree_of seed) with
                | _ -> agrees_with_scratch g s (tree_of seed) && go rest
                | exception Engine.Cycle _ -> (
                    (* The edited tree is cyclic: scratch must agree. *)
                    match Dynamic.eval g (tree_of seed) with
                    | _ -> false
                    | exception Dynamic.Cycle _ -> true))
          in
          go edits)

let prop_tiny_frontier_always_agrees =
  qc ~count:30 "frontier 0: every edit falls back yet agrees" seq_arb
    (fun (s0, edits) ->
      let g = Expr_ag.grammar in
      let s = Incr.start ~frontier:0.0 g (expr_of s0) in
      List.for_all
        (fun seed ->
          let st = Incr.edit s (expr_of seed) in
          (st.Incr.wv_dirty = 0 || st.Incr.wv_fallbacks > 0)
          && agrees_with_scratch g s (expr_of seed))
        edits)

(* ---------------- batched edits ---------------- *)

(* Two edits under different parents (the two mul nodes): their dirty
   cones overlap only on the spine, which merges — one wave, no
   conflicts — and both application orders land bit-identical stores. *)
let indep_base a b c d =
  Expr_ag.(main (add (mul (num a) (num b)) (mul (num c) (num d))))

let test_batch_independent_pair () =
  let g = Expr_ag.grammar in
  List.iter
    (fun dag ->
      let s = Incr.start ~dag g (indep_base 1 2 3 4) in
      let wv = Incr.edit_batch s [ indep_base 9 2 3 4; indep_base 9 2 7 4 ] in
      check_int "one wave" 1 wv.Incr.wv_waves;
      check_int "no conflicts" 0 wv.Incr.wv_conflicts;
      check_int "two edits" 2 wv.Incr.wv_edits;
      check_int "no fallback" 0 wv.Incr.wv_fallbacks;
      check_bool "values = scratch" true
        (agrees_with_scratch g s (indep_base 9 2 7 4));
      (* the opposite application order lands the same store *)
      let s' = Incr.start ~dag g (indep_base 1 2 3 4) in
      ignore (Incr.edit_batch s' [ indep_base 1 2 7 4; indep_base 9 2 7 4 ]);
      check_bool "orders agree bit-for-bit" true
        (values_agree g (Incr.store s) (Incr.tree s) (Incr.store s')
           (Incr.tree s')))
    [ false; true ]

(* Two edits replacing the two children of the same parent: the second
   edit touches the first's replacement site, so the batch must degrade
   to serialized waves — and still land on the serial result. *)
let test_batch_conflicting_pair () =
  let g = Expr_ag.grammar in
  (* frontier off: a tiny tree's cone always trips the fallback, and a
     fallback rebuild would absorb the wave we want to observe *)
  let s = Incr.start ~frontier:1.1 g (indep_base 1 2 3 4) in
  (* both replacement sites share the add parent node: structural
     interference, so the second edit must flush into its own wave.
     Fresh trees per use — grafting renumbers the replacement nodes. *)
  let next1 () =
    Expr_ag.(main (add (mul (num 5) (num 6)) (mul (num 3) (num 4))))
  in
  let next2 () =
    Expr_ag.(main (add (mul (num 5) (num 6)) (mul (num 7) (num 8))))
  in
  let wv = Incr.edit_batch s [ next1 (); next2 () ] in
  check_int "no fallback" 0 wv.Incr.wv_fallbacks;
  check_bool "conflict detected" true (wv.Incr.wv_conflicts >= 1);
  check_bool "serialized into waves" true (wv.Incr.wv_waves >= 2);
  check_bool "values = scratch" true (agrees_with_scratch g s (next2 ()))

let test_batch_identity_and_root () =
  let g = Expr_ag.grammar in
  let s = Incr.start g (expr_a ()) in
  (* structural no-op inside a batch *)
  let wv = Incr.edit_batch s [ expr_a (); expr_b () ] in
  check_int "both edits counted" 2 wv.Incr.wv_edits;
  check_bool "values = scratch" true (agrees_with_scratch g s (expr_b ()));
  (* root-production change inside a batch falls back, then the batch
     continues *)
  let wv = Incr.edit_batch s [ expr_c (); expr_a () ] in
  check_bool "fallback taken" true (wv.Incr.wv_fallbacks >= 1);
  check_bool "values = scratch after fallback" true
    (agrees_with_scratch g s (expr_a ()))

let prop_batched_matches_serial dag =
  qc ~count:40
    (Printf.sprintf "batched edits = serial (dag %b)" dag)
    seq_arb
    (fun (s0, edits) ->
      let g = Expr_ag.grammar in
      let sb = Incr.start ~dag g (expr_of s0) in
      let ss = Incr.start ~dag g (expr_of s0) in
      List.iter (fun seed -> ignore (Incr.edit ss (expr_of seed))) edits;
      ignore (Incr.edit_batch sb (List.map expr_of edits));
      values_agree g (Incr.store sb) (Incr.tree sb) (Incr.store ss)
        (Incr.tree ss)
      &&
      match List.rev edits with
      | last :: _ -> agrees_with_scratch g sb (expr_of last)
      | [] -> true)

let prop_batched_random_ag =
  qc ~count:30 "random AG batched edits = serial"
    (QCheck.make
       ~print:(fun (gs, ts, edits) ->
         Printf.sprintf "grammar %d, base %d, edits [%s]" gs ts
           (String.concat ";" (List.map string_of_int edits)))
       QCheck.Gen.(
         triple (int_bound 1_000_000) (int_bound 1_000_000)
           (list_size (1 -- 5) (int_bound 1_000_000))))
    (fun (gseed, tseed, edits) ->
      let g = Test_random_ag.build_grammar (Random.State.make [| gseed |]) in
      let tree_of seed =
        Test_random_ag.build_tree (Random.State.make [| seed |]) g
      in
      match
        ( Incr.start g (tree_of tseed),
          Incr.start g (tree_of tseed) )
      with
      | exception Engine.Cycle _ -> true
      | sb, ss -> (
          match
            ( Incr.edit_batch sb (List.map tree_of edits),
              List.iter (fun seed -> ignore (Incr.edit ss (tree_of seed))) edits
            )
          with
          | exception Engine.Cycle _ -> true
          | _ ->
              values_agree g (Incr.store sb) (Incr.tree sb) (Incr.store ss)
                (Incr.tree ss)))

let suite =
  [
    ( "incr",
      [
        Alcotest.test_case "single edit" `Quick test_single_edit;
        Alcotest.test_case "identity edit" `Quick test_identity_edit;
        Alcotest.test_case "root replacement" `Quick
          test_root_replacement_falls_back;
        Alcotest.test_case "forced fallback" `Quick
          test_fallback_on_demand_is_correct;
        Alcotest.test_case "equality cutoff" `Quick
          test_cutoff_stops_propagation;
        Alcotest.test_case "min change propagates" `Quick
          test_min_change_propagates;
        Alcotest.test_case "batch: independent pair merges" `Quick
          test_batch_independent_pair;
        Alcotest.test_case "batch: conflicting pair serializes" `Quick
          test_batch_conflicting_pair;
        Alcotest.test_case "batch: no-op and root fallback" `Quick
          test_batch_identity_and_root;
        prop_expr_edit_sequences false;
        prop_expr_edit_sequences true;
        prop_random_ag_edit_sequences false;
        prop_random_ag_edit_sequences true;
        prop_tiny_frontier_always_agrees;
        prop_batched_matches_serial false;
        prop_batched_matches_serial true;
        prop_batched_random_ag;
      ] );
  ]

open Pag_core
open Pag_grammars

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_build_example () =
  let t = Expr_ag.example in
  Tree.check Expr_ag.grammar t;
  check_bool "root symbol" true (t.Tree.sym = "main_expr")

let test_number_preorder () =
  let t = Expr_ag.main (Expr_ag.add (Expr_ag.num 1) (Expr_ag.num 2)) in
  let n = Tree.number t in
  check_int "count" (Tree.size t) n;
  check_int "root id" 0 t.Tree.id;
  (* Preorder: ids increase parent-before-child, left-before-right. *)
  let ok = ref true in
  Tree.iter
    (fun node ->
      Array.iter
        (fun c -> if c.Tree.id <= node.Tree.id then ok := false)
        node.Tree.children)
    t;
  check_bool "parent before child" true !ok

let test_wrong_arity () =
  match Tree.node Expr_ag.grammar "add" [ Expr_ag.num 1 ] with
  | exception Tree.Error _ -> ()
  | _ -> Alcotest.fail "expected arity error"

let test_wrong_child_symbol () =
  match
    Tree.node Expr_ag.grammar "main"
      [ Tree.leaf Expr_ag.grammar "NUMBER" [ ("value", Value.Int 1) ] ]
  with
  | exception Tree.Error _ -> ()
  | _ -> Alcotest.fail "expected symbol mismatch"

let test_leaf_missing_attr () =
  match Tree.leaf Expr_ag.grammar "NUMBER" [] with
  | exception Tree.Error _ -> ()
  | _ -> Alcotest.fail "expected missing intrinsic attribute"

let test_leaf_unknown_attr () =
  match Tree.leaf Expr_ag.grammar "LET" [ ("junk", Value.Unit) ] with
  | exception Tree.Error _ -> ()
  | _ -> Alcotest.fail "expected unknown attribute"

let test_term_attr () =
  let leaf = Tree.leaf Expr_ag.grammar "NUMBER" [ ("value", Value.Int 9) ] in
  check_bool "value" true (Value.equal (Tree.term_attr leaf "value") (Value.Int 9));
  match Tree.term_attr (Expr_ag.num 1) "value" with
  | exception Tree.Error _ -> ()
  | _ -> Alcotest.fail "term_attr on interior node must fail"

let test_size_byte_size () =
  let t = Expr_ag.example in
  check_int "example node count" 20 (Tree.size t);
  check_bool "byte size grows with tree" true
    (Tree.byte_size t > Tree.byte_size (Expr_ag.num 1))

let test_fold_iter_agree () =
  let t = Expr_ag.example in
  let count = Tree.fold (fun n _ -> n + 1) 0 t in
  check_int "fold count = size" (Tree.size t) count

let test_deep_tree_stack_safe () =
  (* 50_000-deep right-leaning additions: iter/number must not overflow. *)
  let t = ref (Expr_ag.num 0) in
  for i = 1 to 50_000 do
    t := Expr_ag.add (Expr_ag.num i) !t
  done;
  let t = Expr_ag.main !t in
  let n = Tree.number t in
  check_bool "big" true (n > 100_000)

(* The two-pass diff [Tree.diff] replaced, kept as the reference: test
   every child pair for equality, then recurse into the one that differs. *)
let rec ref_equal (a : Tree.t) (b : Tree.t) =
  a.Tree.sym_id = b.Tree.sym_id
  && (match (a.Tree.prod, b.Tree.prod) with
     | None, None ->
         List.compare_lengths a.Tree.term_attrs b.Tree.term_attrs = 0
         && List.for_all2
              (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && Value.equal v1 v2)
              a.Tree.term_attrs b.Tree.term_attrs
     | Some p, Some q -> p.Grammar.p_id = q.Grammar.p_id
     | _ -> false)
  && Array.length a.Tree.children = Array.length b.Tree.children
  && Array.for_all2 ref_equal a.Tree.children b.Tree.children

let ref_diff a b =
  let same_shape (x : Tree.t) (y : Tree.t) =
    x.Tree.sym_id = y.Tree.sym_id
    &&
    match (x.Tree.prod, y.Tree.prod) with
    | Some p, Some q -> p.Grammar.p_id = q.Grammar.p_id
    | None, None -> ref_equal x y
    | _ -> false
  in
  let rec go (x : Tree.t) (y : Tree.t) =
    if not (same_shape x y) then Tree.Root
    else begin
      let diffs = ref [] in
      Array.iteri
        (fun i c ->
          if not (ref_equal c y.Tree.children.(i)) then diffs := i :: !diffs)
        x.Tree.children;
      match !diffs with
      | [] -> Tree.Equal
      | [ i ] -> (
          match go x.Tree.children.(i) y.Tree.children.(i) with
          | Tree.Root ->
              Tree.Subtree { parent = x; pos = i; repl = y.Tree.children.(i) }
          | d -> d)
      | _ -> Tree.Root
    end
  in
  go a b

(* A copy of [t] with up to [k] random subtrees replaced: an [expr] by a
   fresh random expression, a number leaf by a different number. Other
   picks (and a fresh expression equal to the old one) change nothing. *)
let edited st t k =
  let g = Expr_ag.grammar in
  let n = Tree.size t in
  let picks = List.init k (fun _ -> Random.State.int st n) in
  let i = ref (-1) in
  let rec copy (x : Tree.t) =
    incr i;
    let fresh =
      if not (List.mem !i picks) then None
      else if x.Tree.sym = "expr" then
        Some (Expr_ag.random_expr st ~depth:2 ~vars:[ "a"; "b" ])
      else if x.Tree.sym = "NUMBER" then
        let v = Value.as_int ~ctx:"test" (Tree.term_attr x "value") in
        Some (Tree.leaf g "NUMBER" [ ("value", Value.Int (v + 1)) ])
      else None
    in
    match fresh with
    | Some r ->
        i := !i + Tree.size x - 1;
        r
    | None -> (
        match x.Tree.prod with
        | Some p ->
            Tree.node g p.Grammar.p_name
              (Array.to_list (Array.map copy x.Tree.children))
        | None -> Tree.leaf g x.Tree.sym x.Tree.term_attrs)
  in
  copy t

let same_delta d e =
  match (d, e) with
  | Tree.Equal, Tree.Equal | Tree.Root, Tree.Root -> true
  | Tree.Subtree a, Tree.Subtree b ->
      a.parent == b.parent && a.pos = b.pos && a.repl == b.repl
  | _ -> false

let prop_diff_matches_two_pass =
  Qc_seed.qc ~count:300 "one-pass diff = two-pass diff"
    QCheck.(pair (int_bound 100_000) (int_bound 3))
    (fun (seed, k) ->
      let st = Random.State.make [| seed |] in
      let a = Expr_ag.random_program st ~depth:(2 + (seed mod 6)) in
      let b = edited st a k in
      (* [main]'s one child may differ at its own root: a [Root] delta *)
      List.for_all
        (fun (x, y) -> same_delta (Tree.diff x y) (ref_diff x y))
        [ (a, b); (b, a); (a.Tree.children.(0), b.Tree.children.(0)) ])

let suite =
  [
    ( "tree",
      [
        Alcotest.test_case "build example" `Quick test_build_example;
        Alcotest.test_case "preorder numbering" `Quick test_number_preorder;
        Alcotest.test_case "wrong arity" `Quick test_wrong_arity;
        Alcotest.test_case "wrong child symbol" `Quick test_wrong_child_symbol;
        Alcotest.test_case "leaf missing attr" `Quick test_leaf_missing_attr;
        Alcotest.test_case "leaf unknown attr" `Quick test_leaf_unknown_attr;
        Alcotest.test_case "term_attr" `Quick test_term_attr;
        Alcotest.test_case "sizes" `Quick test_size_byte_size;
        Alcotest.test_case "fold/iter agree" `Quick test_fold_iter_agree;
        Alcotest.test_case "deep tree" `Quick test_deep_tree_stack_safe;
        prop_diff_matches_two_pass;
      ] );
  ]

open Pag_core
open Pag_analysis
open Pag_grammars

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let plan_of g =
  match Kastens.analyze g with
  | Ok p -> p
  | Error f -> Alcotest.failf "analysis failed: %a" Kastens.pp_failure f

let test_expr_is_ordered () =
  let p = plan_of Expr_ag.grammar in
  (* expr: stab flows down, value flows up — one visit. *)
  check_int "expr visits" 1 (Kastens.visit_count p "expr");
  let inh_attrs, syn_attrs = Kastens.visit_attrs p ~sym:"expr" ~visit:1 in
  check_bool "stab consumed in visit 1" true (List.mem "stab" inh_attrs);
  check_bool "value produced in visit 1" true (List.mem "value" syn_attrs)

let test_binary_is_ordered () =
  let p = plan_of Binary_ag.grammar in
  check_int "bits visits" 1 (Kastens.visit_count p "bits")

let test_repmin_needs_two_visits () =
  let p = plan_of Repmin_ag.grammar in
  check_int "tree visits" 2 (Kastens.visit_count p "tree");
  check_int "min in visit 1" 1 (Kastens.visit_of_attr p ~sym:"tree" ~attr:"min");
  check_int "gmin in visit 2" 2 (Kastens.visit_of_attr p ~sym:"tree" ~attr:"gmin");
  check_int "res in visit 2" 2 (Kastens.visit_of_attr p ~sym:"tree" ~attr:"res")

let test_visit_seq_complete () =
  (* Every rule of every production appears exactly once across segments;
     every nonterminal child is visited exactly its visit-count times. *)
  List.iter
    (fun g ->
      let plan = plan_of g in
      Array.iter
        (fun (pr : Grammar.production) ->
          let m = Kastens.visit_count plan pr.Grammar.p_lhs in
          let evals = Array.make (Array.length pr.Grammar.p_rules) 0 in
          let visits =
            Array.map
              (fun s ->
                let sym = Grammar.symbol g s in
                if sym.Grammar.s_term then 0
                else Kastens.visit_count plan s)
              pr.Grammar.p_rhs
          in
          let seen_visits = Array.make (Array.length pr.Grammar.p_rhs) 0 in
          for v = 1 to m do
            List.iter
              (function
                | Kastens.Eval r -> evals.(r) <- evals.(r) + 1
                | Kastens.Visit { child; visit } ->
                    check_int
                      (Printf.sprintf "%s: child %d visits in order"
                         pr.Grammar.p_name child)
                      (seen_visits.(child) + 1)
                      visit;
                    seen_visits.(child) <- visit)
              (Kastens.visit_seq plan ~prod:pr.Grammar.p_id ~visit:v)
          done;
          Array.iteri
            (fun r n ->
              check_int
                (Printf.sprintf "%s: rule %d fired once" pr.Grammar.p_name r)
                1 n)
            evals;
          Array.iteri
            (fun i n ->
              check_int
                (Printf.sprintf "%s: child %d fully visited" pr.Grammar.p_name i)
                visits.(i) n)
            seen_visits)
        (Grammar.productions g))
    [ Expr_ag.grammar; Binary_ag.grammar; Repmin_ag.grammar ]

(* A circular grammar: x.s -> x.i -> x.s through the production rules. *)
let circular_grammar () =
  let open Grammar in
  make ~name:"circ" ~start:"r"
    [
      terminal "T" [];
      nonterminal "r" [ syn "out" ];
      nonterminal "x" [ syn "s"; inh "i" ];
    ]
    [
      production ~name:"root" ~lhs:"r" ~rhs:[ "x" ]
        [
          rule (lhs "out") ~deps:[ rhs 1 "s" ] (fun a -> a.(0));
          rule (rhs 1 "i") ~deps:[ rhs 1 "s" ] (fun a -> a.(0));
        ];
      production ~name:"leaf" ~lhs:"x" ~rhs:[ "T" ]
        [ rule (lhs "s") ~deps:[ lhs "i" ] (fun a -> a.(0)) ];
    ]

let test_circular_rejected () =
  match Kastens.analyze (circular_grammar ()) with
  | Error (Kastens.Circular _) -> ()
  | Error (Kastens.Not_ordered m) -> Alcotest.failf "wrong failure: %s" m
  | Ok _ -> Alcotest.fail "circular grammar accepted"

(* Non-circular overall but attribute-order alternation across two children:
   still ordered; checks the partitioning handles multiple syn/inh layers. *)
let zigzag_grammar () =
  let open Grammar in
  let id a = a.(0) in
  make ~name:"zigzag" ~start:"r"
    [
      terminal "T" [ "v" ];
      nonterminal "r" [ syn "out" ];
      nonterminal "x" [ syn "s1"; inh "i1"; syn "s2"; inh "i2" ];
    ]
    [
      production ~name:"root" ~lhs:"r" ~rhs:[ "x" ]
        [
          rule (lhs "out") ~deps:[ rhs 1 "s2" ] id;
          rule (rhs 1 "i1") ~deps:[] (fun _ -> Value.Int 0);
          (* i2 depends on s1: forces two visits of x *)
          rule (rhs 1 "i2") ~deps:[ rhs 1 "s1" ] id;
        ];
      production ~name:"leaf" ~lhs:"x" ~rhs:[ "T" ]
        [
          rule (lhs "s1") ~deps:[ lhs "i1" ] id;
          rule (lhs "s2") ~deps:[ lhs "i2" ] id;
        ];
    ]

let test_zigzag_two_visits () =
  let p = plan_of (zigzag_grammar ()) in
  check_int "x needs 2 visits" 2 (Kastens.visit_count p "x");
  check_int "s1 first" 1 (Kastens.visit_of_attr p ~sym:"x" ~attr:"s1");
  check_int "s2 second" 2 (Kastens.visit_of_attr p ~sym:"x" ~attr:"s2")

let test_attrless_symbol_gets_one_visit () =
  let open Grammar in
  let g =
    make ~name:"attrless" ~start:"r"
      [
        terminal "T" [ "v" ];
        nonterminal "r" [ syn "out" ];
        nonterminal "mid" [];
        nonterminal "x" [ syn "s" ];
      ]
      [
        production ~name:"root" ~lhs:"r" ~rhs:[ "mid" ]
          [ rule (lhs "out") ~deps:[] (fun _ -> Value.Int 1) ];
        production ~name:"mid" ~lhs:"mid" ~rhs:[ "x" ] [];
        production ~name:"x" ~lhs:"x" ~rhs:[ "T" ]
          [ rule (lhs "s") ~deps:[ rhs 1 "v" ] (fun a -> a.(0)) ];
      ]
  in
  let p = plan_of g in
  check_int "attr-less nonterminal still visited" 1 (Kastens.visit_count p "mid");
  (* and its visit sequence must visit the child so x.s gets evaluated *)
  let seq =
    Kastens.visit_seq p ~prod:(Grammar.find_production g "mid").Grammar.p_id
      ~visit:1
  in
  check_bool "mid visits x" true
    (List.exists (function Kastens.Visit _ -> true | _ -> false) seq)

let test_pp_plan_runs () =
  let p = plan_of Repmin_ag.grammar in
  let s = Format.asprintf "%a" Kastens.pp_plan p in
  check_bool "pp nonempty" true (String.length s > 50)

(* ---------------- induced dependencies: the list fixpoint as oracle ---- *)

exception Reference_circular of string

(* Kastens' IDS fixpoint over edge lists, rebuilt from attribute names and
   closed with [Digraph] every round: the implementation the bit-row
   fixpoint replaced, kept as the oracle it must agree with. *)
let reference_induced g =
  let occs = Array.map (Localdep.of_production g) (Grammar.productions g) in
  let ids = Array.make (Array.length (Grammar.symbols g)) [] in
  let changed = ref true in
  try
    while !changed do
      changed := false;
      Array.iter
        (fun ot ->
          let p = Localdep.production ot in
          let arity = Array.length p.Grammar.p_rhs in
          let lifted = ref [] in
          for pos = 0 to arity do
            let sid = Grammar.sym_id g (Localdep.sym_at ot pos).Grammar.s_name in
            List.iter
              (fun (a, b) ->
                lifted :=
                  (Localdep.occ ot ~pos ~idx:a, Localdep.occ ot ~pos ~idx:b)
                  :: !lifted)
              ids.(sid)
          done;
          (* DP(p), from attribute names: one edge per (dependency,
             target) pair of every rule. *)
          let occ (r : Grammar.attr_ref) =
            let attrs = (Localdep.sym_at ot r.Grammar.pos).Grammar.s_attrs in
            let rec find i =
              if attrs.(i).Grammar.a_name = r.Grammar.attr then i else find (i + 1)
            in
            Localdep.occ ot ~pos:r.Grammar.pos ~idx:(find 0)
          in
          let dp =
            List.concat_map
              (fun (r : Grammar.rule) ->
                List.map (fun d -> (occ d, occ r.Grammar.r_target)) r.Grammar.r_deps)
              (Array.to_list p.Grammar.p_rules)
          in
          let idp =
            Pag_util.Digraph.make (Localdep.count ot) (dp @ !lifted)
          in
          let closed = Pag_util.Digraph.transitive_closure idp in
          for o = 0 to Localdep.count ot - 1 do
            if Pag_util.Digraph.mem_edge closed o o then
              raise
                (Reference_circular
                   (Printf.sprintf "production %S: %s depends on itself"
                      p.Grammar.p_name (Localdep.occ_name ot o)))
          done;
          for pos = 0 to arity do
            let sym = Localdep.sym_at ot pos in
            let sid = Grammar.sym_id g sym.Grammar.s_name in
            let n = Array.length sym.Grammar.s_attrs in
            for a = 0 to n - 1 do
              for b = 0 to n - 1 do
                if
                  a <> b
                  && Pag_util.Digraph.mem_edge closed
                       (Localdep.occ ot ~pos ~idx:a)
                       (Localdep.occ ot ~pos ~idx:b)
                  && not (List.mem (a, b) ids.(sid))
                then begin
                  ids.(sid) <- (a, b) :: ids.(sid);
                  changed := true
                end
              done
            done
          done)
        occs
    done;
    Ok ids
  with Reference_circular m -> Error m

(* One production with [n] children of a two-attribute symbol, 2n + 1
   occurrences threaded left to right, so closure paths cross word
   boundaries. [~circular] feeds the last child's [s] back into the first
   child's [i]. *)
let wide_grammar ?(circular = false) n =
  let open Grammar in
  let id a = a.(0) in
  make ~name:"wide" ~start:"r"
    [
      terminal "T" [ "v" ];
      nonterminal "r" [ syn "out" ];
      nonterminal "x" [ syn "s"; inh "i" ];
    ]
    [
      production ~name:"root" ~lhs:"r"
        ~rhs:(List.init n (fun _ -> "x"))
        (rule (lhs "out") ~deps:[ rhs n "s" ] id
        :: rule (rhs 1 "i")
             ~deps:(if circular then [ rhs n "s" ] else [])
             (fun _ -> Value.Int 0)
        :: List.init (n - 1) (fun k ->
               rule (rhs (k + 2) "i") ~deps:[ rhs (k + 1) "s" ] id));
      production ~name:"leaf" ~lhs:"x" ~rhs:[ "T" ]
        [ rule (lhs "s") ~deps:[ lhs "i"; rhs 1 "v" ] id ];
    ]

let named_grammars () =
  [
    ("pascal", Pascal.Pascal_ag.grammar);
    ("pascal threaded", Pascal.Pascal_ag.grammar_threaded);
    ("expr", Expr_ag.grammar);
    ("binary", Binary_ag.grammar);
    ("repmin", Repmin_ag.grammar);
    ("stackcode", Stackcode_ag.grammar);
    ("appendix", Agspec.Compile.grammar (Lazy.force Agspec.Appendix.translator));
    ("wide 40", wide_grammar 40);
    ("wide 40 circular", wide_grammar ~circular:true 40);
    ("circular", circular_grammar ());
    ("zigzag", zigzag_grammar ());
  ]

let random_grammar seed =
  Test_random_ag.build_grammar (Random.State.make [| seed |])

let check_induced name g =
  let norm = Array.map (List.sort_uniq compare) in
  let pairs sid dep =
    let n = Array.length (Grammar.symbol_of_id g sid).Grammar.s_attrs in
    List.concat
      (List.init n (fun a ->
           List.filter_map
             (fun b -> if dep a b then Some (a, b) else None)
             (List.init n Fun.id)))
  in
  match (reference_induced g, Kastens.induced g) with
  | Ok want, Ok got ->
      Alcotest.(check (array (list (pair int int))))
        name (norm want)
        (norm (Array.mapi pairs got))
  | Error m, Error f ->
      Alcotest.(check string) name ("grammar is circular: " ^ m)
        (Format.asprintf "%a" Kastens.pp_failure f)
  | Ok _, Error f -> Alcotest.failf "%s: %a" name Kastens.pp_failure f
  | Error m, Ok _ -> Alcotest.failf "%s: circular grammar accepted (%s)" name m

let test_induced_matches_reference () =
  check_bool "wide grammar has > 63 occurrences" true
    (Localdep.count
       (Localdep.of_production (wide_grammar 40)
          (Grammar.find_production (wide_grammar 40) "root"))
    > 63);
  List.iter (fun (name, g) -> check_induced name g) (named_grammars ());
  for seed = 0 to 299 do
    check_induced (Printf.sprintf "random grammar %d" seed) (random_grammar seed)
  done

(* The plan text (or failure) of every named grammar and of 200 random
   ones, pinned by digest: the bit-row fixpoint left every plan as it
   was. *)
let test_plans_pinned () =
  let text g =
    match Kastens.analyze g with
    | Ok p -> Format.asprintf "%a" Kastens.pp_plan p
    | Error f -> Format.asprintf "%a" Kastens.pp_failure f
  in
  let digest gs = Digest.to_hex (Digest.string (String.concat "\n" (List.map text gs))) in
  Alcotest.(check string) "named grammars" "166d4dc14cca6643050c6c0de8f433aa"
    (digest (List.map snd (named_grammars ())));
  Alcotest.(check string) "random grammars" "fb5d8a446e4b683ac5c63ce607cd0aca"
    (digest (List.init 200 random_grammar))

let suite =
  [
    ( "kastens",
      [
        Alcotest.test_case "expr ordered" `Quick test_expr_is_ordered;
        Alcotest.test_case "binary ordered" `Quick test_binary_is_ordered;
        Alcotest.test_case "repmin two visits" `Quick test_repmin_needs_two_visits;
        Alcotest.test_case "visit seqs complete" `Quick test_visit_seq_complete;
        Alcotest.test_case "circular rejected" `Quick test_circular_rejected;
        Alcotest.test_case "zigzag" `Quick test_zigzag_two_visits;
        Alcotest.test_case "attr-less symbol" `Quick
          test_attrless_symbol_gets_one_visit;
        Alcotest.test_case "pp_plan" `Quick test_pp_plan_runs;
        Alcotest.test_case "IDS = list fixpoint" `Quick
          test_induced_matches_reference;
        Alcotest.test_case "plans pinned" `Quick test_plans_pinned;
      ] );
  ]

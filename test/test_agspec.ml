open Agspec
open Pag_core

let qc ?(count = 50) name gen prop = Qc_seed.qc ~count name gen prop

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let t = lazy (Lazy.force Appendix.translator)

let eval_str src =
  let tr = Lazy.force t in
  let tree = Compile.parse tr src in
  match List.assoc "value" (Compile.evaluate tr tree) with
  | Value.Int n -> n
  | v -> Alcotest.failf "expected an int, got %s" (Value.to_string v)

(* ---------------- spec parser ---------------- *)

let test_spec_parses () =
  let spec = Lazy.force Appendix.spec in
  check_int "two %name terminals" 2 (List.length spec.Spec_ast.s_names);
  check_int "eight keywords" 8 (List.length spec.Spec_ast.s_keywords);
  check_int "three nonterminals" 3 (List.length spec.Spec_ast.s_nts);
  check_int "eight productions" 8 (List.length spec.Spec_ast.s_prods);
  Alcotest.(check string) "start" "main_expr" spec.Spec_ast.s_start

let test_spec_split_info () =
  let spec = Lazy.force Appendix.spec in
  let block =
    List.find (fun nt -> nt.Spec_ast.nt_name = "block") spec.Spec_ast.s_nts
  in
  check_bool "block splittable at 64" true (block.Spec_ast.nt_split = Some 64);
  let expr =
    List.find (fun nt -> nt.Spec_ast.nt_name = "expr") spec.Spec_ast.s_nts
  in
  check_bool "expr not splittable" true (expr.Spec_ast.nt_split = None);
  check_bool "stab is priority" true
    (List.exists
       (fun a -> a.Spec_ast.a_name = "stab" && a.Spec_ast.a_priority)
       expr.Spec_ast.nt_attrs)

let test_spec_errors () =
  let bad src =
    match Spec_parser.parse src with
    | exception Spec_parser.Error _ -> true
    | _ -> false
  in
  check_bool "missing start" true (bad "%nosplit e : syn v\n%%\ne -> e");
  check_bool "unknown directive" true (bad "%frobnicate x\n%%");
  check_bool "bad rule" true
    (bad "%start e\n%nosplit e : syn v\n%%\ne -> e { $$ = 1; }")

(* ---------------- generated translator ---------------- *)

let test_appendix_example () =
  check_int "appendix worked example" 5 (eval_str "let x = 2 in 1 + 2 * x ni")

let test_arithmetic () =
  check_int "plain" 7 (eval_str "1 + 2 * 3");
  check_int "parens" 9 (eval_str "(1 + 2) * 3");
  check_int "precedence" 23 (eval_str "2 * 4 + 3 * 5")

let test_nested_lets () =
  check_int "nested"
    21
    (eval_str "let a = 2 in let b = a * 5 in a + b + 9 ni ni");
  check_int "shadowing" 4 (eval_str "let x = 1 in let x = 3 in x + 1 ni ni")

let test_parse_error () =
  match Compile.parse (Lazy.force t) "1 + * 2" with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.fail "expected a syntax error"

let test_scan_error () =
  match Compile.parse (Lazy.force t) "1 ? 2" with
  | exception Compile.Scan_error _ -> ()
  | _ -> Alcotest.fail "expected a scan error"

let test_unbound_identifier () =
  match eval_str "ghost + 1" with
  | exception Primitives.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected unbound identifier"

let test_grammar_is_ordered () =
  check_bool "Kastens accepts the generated grammar" true
    (Compile.plan (Lazy.force t) <> None)

let test_no_parser_conflicts () =
  Alcotest.(check (list string))
    "precedence resolves the expression grammar" []
    (Lrgen.Lalr.conflicts (Compile.tables (Lazy.force t)))

let test_parallel_evaluation () =
  let tr = Lazy.force t in
  (* a program with enough blocks to split *)
  let src =
    "let a = 1 in let b = 2 in let c = 3 in let d = 4 in \
     a + b * (let e = a + 10 in e * e ni) + c * d + (let f = 5 in f + b ni) \
     ni ni ni ni"
  in
  let tree = Compile.parse tr src in
  let expected =
    match List.assoc "value" (Compile.evaluate tr tree) with
    | Value.Int n -> n
    | _ -> assert false
  in
  for m = 1 to 4 do
    let tree = Compile.parse tr src in
    let r =
      Compile.evaluate_parallel tr
        { Pag_parallel.Runner.default_options with Pag_parallel.Runner.machines = m }
        tree
    in
    match List.assoc "value" r.Pag_parallel.Runner.r_attrs with
    | Value.Int n -> check_int (Printf.sprintf "@%d machines" m) expected n
    | _ -> Alcotest.fail "expected an int"
  done

(* Random sentences: generated translator agrees with Expr_ag's reference
   semantics. Build a random well-scoped expression source. *)
let gen_source =
  QCheck.Gen.(
    let rec go depth vars =
      if depth = 0 then
        if vars <> [] && Random.bool () then oneofl vars
        else map string_of_int (int_range 0 20)
      else
        frequency
          [
            (2, map string_of_int (int_range 0 20));
            ( 3,
              map2 (fun a b -> "(" ^ a ^ " + " ^ b ^ ")") (go (depth - 1) vars)
                (go (depth - 1) vars) );
            ( 2,
              map2 (fun a b -> "(" ^ a ^ " * " ^ b ^ ")") (go (depth - 1) vars)
                (go (depth - 1) vars) );
            ( 2,
              let v = Printf.sprintf "v%d" (List.length vars) in
              map2
                (fun bound body ->
                  Printf.sprintf "let %s = %s in %s ni" v bound body)
                (go (depth - 1) vars)
                (go (depth - 1) (v :: vars)) );
          ]
    in
    go 4 [])

(* Direct interpreter of the same sentences. *)
let reference src =
  let tr = Lazy.force t in
  let tree = Compile.parse tr src in
  (* reuse the oracle evaluator as reference *)
  let store = Pag_eval.Oracle.eval (Compile.grammar tr) tree in
  match Pag_eval.Store.get store (Pag_eval.Store.root store) "value" with
  | Value.Int n -> n
  | _ -> assert false

let prop_static_matches_oracle =
  qc "generated static evaluator = oracle" (QCheck.make ~print:Fun.id gen_source)
    (fun src -> eval_str src = reference src)

(* ---------------- malformed input ---------------- *)

(* examples/expr.ag, found by walking up from wherever the runner was
   started (as test_hashcons finds primes.pas) *)
let expr_ag =
  lazy
    (let rec find dir =
       let p = Filename.concat (Filename.concat dir "examples") "expr.ag" in
       if Sys.file_exists p then p
       else
         let parent = Filename.dirname dir in
         if String.equal parent dir then
           Alcotest.fail "examples/expr.ag not found"
         else find parent
     in
     In_channel.with_open_text (find (Sys.getcwd ())) In_channel.input_all)

let fails_with ~what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a diagnostic" what
  | exception (Spec_parser.Error _ | Compile.Error _ | Compile.Scan_error _) -> ()

(* [expr.ag] with [a] replaced by [b] (the first occurrence) *)
let edited a b =
  let src = Lazy.force expr_ag in
  let i =
    let rec find i =
      if String.sub src i (String.length a) = a then i else find (i + 1)
    in
    find 0
  in
  String.sub src 0 i ^ b
  ^ String.sub src (i + String.length a) (String.length src - i - String.length a)

let translate src = Compile.translator (Spec_parser.parse src)

(* An unknown function, a wrong arity and a start symbol without
   productions (which only the parser generator notices) are errors of the
   translation, before any sentence is read. *)
let test_translation_errors () =
  fails_with ~what:"st_creat()" (fun () ->
      translate (edited "st_create()" "st_creat()"));
  fails_with ~what:"mul($1.value)" (fun () ->
      translate (edited "mul($1.value, $3.value)" "mul($1.value)"));
  fails_with ~what:"start without productions" (fun () ->
      translate
        (edited "%start main_expr" "%nosplit lone : syn value\n%start lone"))

let test_unknown_precedence_terminal () =
  match Spec_parser.parse (edited "%left TIMES" "%left TIMEZ") with
  | _ -> Alcotest.fail "expected a spec error"
  | exception Spec_parser.Error (line, _) -> check_int "line" 19 line

let test_spec_literal_out_of_range () =
  match
    Spec_parser.parse (edited "%split 64" "%split 99999999999999999999999")
  with
  | _ -> Alcotest.fail "expected a spec error"
  | exception Spec_parser.Error (line, _) -> check_int "line" 14 line

let test_sentence_literal_out_of_range () =
  match Compile.parse (Lazy.force t) "99999999999999999999999 + 1" with
  | _ -> Alcotest.fail "expected a scan error"
  | exception Compile.Scan_error msg ->
      check_bool "located at its first character" true
        (String.starts_with ~prefix:"character 0:" msg)

(* An evaluation's failure reads as a diagnostic on every schedule, as
   agrun prints it. *)
let test_unbound_identifier_diagnosed () =
  let tr = Lazy.force t in
  let report f =
    match f () with _ -> None | exception e -> Compile.diagnostic e
  in
  let expect what f =
    Alcotest.(check (option string))
      what (Some "error: st_lookup: unbound identifier x") (report f)
  in
  expect "sequential" (fun () -> Compile.evaluate tr (Compile.parse tr "x + 1"));
  List.iter
    (fun (name, schedule) ->
      expect name (fun () ->
          Compile.evaluate_parallel tr
            {
              Pag_parallel.Runner.default_options with
              Pag_parallel.Runner.machines = 3;
              schedule;
            }
            (Compile.parse tr "x")))
    [ ("static", `Static); ("dynamic", `Dynamic); ("steal", `Steal) ]

(* Mutation fuzzing of the spec front end: expr.ag with spans deleted,
   duplicated or transposed and tokens inserted, then translated, and
   sentences scanned, parsed and evaluated. Every exception must be one
   {!Compile.diagnostic} reports, never one agrun would call an internal
   error. *)
type mutation =
  | Delete of int * int
  | Duplicate of int * int * int
  | Transpose of int * int * int
  | Insert of int * string

let inserted =
  [
    "$9"; "%%"; "99999999999999999999999"; "$$"; "$1."; "("; ")"; "{"; "}";
    ";"; ","; "="; "->"; "%left"; "%start"; "%split"; "syn"; "inh"; "x";
    "st_create()"; "add("; "$$.stab = $1.value;"; "/*"; "\"";
  ]

let apply src m =
  let n = String.length src in
  let cut i len = (String.sub src 0 i, String.sub src i len,
                   String.sub src (i + len) (n - i - len)) in
  if n = 0 then src
  else
    match m with
    | Delete (i, len) ->
        let i = i mod n in
        let a, _, c = cut i (min len (n - i)) in
        a ^ c
    | Duplicate (i, len, j) ->
        let i = i mod n and j = j mod (n + 1) in
        let span = String.sub src i (min len (n - i)) in
        String.sub src 0 j ^ span ^ String.sub src j (n - j)
    | Transpose (i, len, len2) ->
        let i = i mod n in
        let len = min len (n - i) in
        let len2 = min len2 (n - i - len) in
        let a, b, rest = cut i len in
        a ^ String.sub rest 0 len2 ^ b
        ^ String.sub rest len2 (String.length rest - len2)
    | Insert (i, tok) ->
        let i = i mod (n + 1) in
        String.sub src 0 i ^ " " ^ tok ^ " " ^ String.sub src i (n - i)

let gen_mutation =
  QCheck.Gen.(
    let pos = int_bound 2_000 and len = 1 -- 40 in
    frequency
      [
        (1, map2 (fun i l -> Delete (i, l)) pos len);
        (1, map3 (fun i l j -> Duplicate (i, l, j)) pos len pos);
        (1, map3 (fun i l k -> Transpose (i, l, k)) pos len len);
        (2, map2 (fun i t -> Insert (i, t)) pos (oneofl inserted));
      ])

let show_mutation = function
  | Delete (i, l) -> Printf.sprintf "delete %d+%d" i l
  | Duplicate (i, l, j) -> Printf.sprintf "duplicate %d+%d at %d" i l j
  | Transpose (i, l, k) -> Printf.sprintf "transpose %d+%d with %d" i l k
  | Insert (i, tok) -> Printf.sprintf "insert %S at %d" tok i

let sentences =
  [
    "1 + 2 * 3"; "let x = 2 in 1 + 2 * x ni"; "x + 1";
    "99999999999999999999999 + 1"; "(1 + 2"; "let y = 3 in y * (y + 1) ni";
  ]

let prop_mutated_spec_diagnosed =
  qc ~count:2000 "mutated expr.ag: every exception has a diagnostic"
    (QCheck.make
       ~print:(fun ms -> String.concat "; " (List.map show_mutation ms))
       QCheck.Gen.(list_size (1 -- 3) gen_mutation))
    (fun ms ->
      let src = List.fold_left apply (Lazy.force expr_ag) ms in
      let attempt f =
        match f () with
        | v -> Some v
        | exception e when Compile.diagnostic e <> None -> None
      in
      match
        Option.iter
          (fun tr ->
            List.iter
              (fun sen ->
                Option.iter
                  (fun tree -> ignore (attempt (fun () -> Compile.evaluate tr tree)))
                  (attempt (fun () -> Compile.parse tr sen)))
              sentences)
          (attempt (fun () -> translate src))
      with
      | () -> true
      | exception e ->
          QCheck.Test.fail_reportf "escaped: %s" (Printexc.to_string e))

let suite =
  [
    ( "agspec",
      [
        Alcotest.test_case "spec parses" `Quick test_spec_parses;
        Alcotest.test_case "split info" `Quick test_spec_split_info;
        Alcotest.test_case "spec errors" `Quick test_spec_errors;
        Alcotest.test_case "appendix example" `Quick test_appendix_example;
        Alcotest.test_case "arithmetic" `Quick test_arithmetic;
        Alcotest.test_case "nested lets" `Quick test_nested_lets;
        Alcotest.test_case "parse error" `Quick test_parse_error;
        Alcotest.test_case "scan error" `Quick test_scan_error;
        Alcotest.test_case "unbound identifier" `Quick test_unbound_identifier;
        Alcotest.test_case "grammar ordered" `Quick test_grammar_is_ordered;
        Alcotest.test_case "no conflicts" `Quick test_no_parser_conflicts;
        Alcotest.test_case "parallel evaluation" `Quick test_parallel_evaluation;
        prop_static_matches_oracle;
        Alcotest.test_case "translation errors" `Quick test_translation_errors;
        Alcotest.test_case "unknown precedence terminal" `Quick
          test_unknown_precedence_terminal;
        Alcotest.test_case "spec literal out of range" `Quick
          test_spec_literal_out_of_range;
        Alcotest.test_case "sentence literal out of range" `Quick
          test_sentence_literal_out_of_range;
        Alcotest.test_case "unbound identifier on every schedule" `Quick
          test_unbound_identifier_diagnosed;
        prop_mutated_spec_diagnosed;
      ] );
  ]

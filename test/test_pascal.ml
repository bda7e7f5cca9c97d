open Pascal

let qc ?(count = 40) name gen prop = Qc_seed.qc ~count name gen prop

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- lexer ---------------- *)

let test_lexer_basics () =
  let toks = List.map fst (Lexer.tokenize "begin x := 42 end.") in
  check_bool "tokens" true
    (toks
    = [ Token.BEGIN; Token.IDENT "x"; Token.ASSIGN; Token.NUM 42; Token.END;
        Token.DOT; Token.EOF ])

let test_lexer_case_insensitive () =
  let toks = List.map fst (Lexer.tokenize "BeGiN WhIlE") in
  check_bool "keywords any case" true
    (toks = [ Token.BEGIN; Token.WHILE; Token.EOF ])

let test_lexer_comments () =
  let toks = List.map fst (Lexer.tokenize "x { comment } y (* more *) z") in
  check_bool "comments skipped" true
    (toks = [ Token.IDENT "x"; Token.IDENT "y"; Token.IDENT "z"; Token.EOF ])

let test_lexer_char_literals () =
  let toks = List.map fst (Lexer.tokenize "'a' ''''") in
  check_bool "chars" true (toks = [ Token.CHARLIT 'a'; Token.CHARLIT '\''; Token.EOF ])

let test_lexer_operators () =
  let toks = List.map fst (Lexer.tokenize ":= <= >= <> .. < >") in
  check_bool "operators" true
    (toks
    = [ Token.ASSIGN; Token.LE; Token.GE; Token.NE; Token.DOTDOT; Token.LT;
        Token.GT; Token.EOF ])

let test_lexer_error () =
  match Lexer.tokenize "x ? y" with
  | exception Lexer.Lex_error (1, _) -> ()
  | _ -> Alcotest.fail "expected lex error"

(* ---------------- parser ---------------- *)

let test_parse_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  match Parser.parse_expr "1 + 2 * 3" with
  | Ast.EBin (Ast.Add, Ast.EInt 1, Ast.EBin (Ast.Mul, Ast.EInt 2, Ast.EInt 3)) -> ()
  | _ -> Alcotest.fail "1 + 2 * 3 should parse as 1 + (2 * 3)"

let test_parse_relational () =
  match Parser.parse_expr "1 + 2 < 3 * 4" with
  | Ast.EBin (Ast.Lt, Ast.EBin (Ast.Add, _, _), Ast.EBin (Ast.Mul, _, _)) -> ()
  | _ -> Alcotest.fail "relational should bind loosest"

let test_parse_program_shape () =
  let src =
    {|
program t;
const k = 3;
var x : integer;
    a : array [1..5] of integer;
procedure p(v : integer; var w : integer);
begin
  w := v + k
end;
begin
  p(1, x);
  a[1] := x
end.
|}
  in
  let p = Parser.parse_program src in
  check_str "name" "t" p.Ast.prog_name;
  check_int "decls" 4 (List.length p.Ast.prog_block.Ast.b_decls);
  check_int "stmts" 2 (List.length p.Ast.prog_block.Ast.b_body)

let test_parse_error_reports_line () =
  match Parser.parse_program "program t;\nbegin\n  x := ;\nend." with
  | exception Parser.Parse_error (3, _) -> ()
  | exception Parser.Parse_error (l, m) ->
      Alcotest.failf "wrong line %d: %s" l m
  | _ -> Alcotest.fail "expected parse error"

let test_pp_roundtrip_manual () =
  let src =
    {|
program t;
var x : integer; b : boolean;
function f(n : integer) : integer;
begin
  if n > 1 then begin f := n * 2 end else begin f := 1 end
end;
begin
  x := f(5);
  b := x >= 10;
  case x mod 2 of
    0: begin writeln(0) end;
    1: begin writeln(1) end
  end;
  repeat
    x := x - 1
  until x <= 0;
  for x := 1 to 3 do begin write(x) end;
  writeln
end.
|}
  in
  let p1 = Parser.parse_program src in
  let p2 = Parser.parse_program (Pp.program_to_string p1) in
  check_bool "round trip" true (p1 = p2)

(* ---------------- interpreter ---------------- *)

let run_interp ?input src =
  match Interp.run ?input (Parser.parse_program src) with
  | Ok out -> out
  | Error e -> Alcotest.failf "interp error: %s" (Interp.error_to_string e)

let test_interp_basics () =
  check_str "arith"
    "13\n"
    (run_interp "program t; var x : integer; begin x := 3 + 2 * 5; writeln(x) end.")

let test_interp_control () =
  let src =
    {|
program t;
var i, s : integer;
begin
  s := 0;
  for i := 1 to 10 do begin s := s + i end;
  while s > 40 do begin s := s - 7 end;
  writeln(s)
end.
|}
  in
  check_str "loops" "34\n" (run_interp src)

let test_interp_recursion () =
  let src =
    {|
program t;
function fact(n : integer) : integer;
begin
  if n <= 1 then begin fact := 1 end else begin fact := n * fact(n - 1) end
end;
begin
  writeln(fact(6))
end.
|}
  in
  check_str "6!" "720\n" (run_interp src)

let test_interp_var_params () =
  let src =
    {|
program t;
var a, b : integer;
procedure swap(var x : integer; var y : integer);
var t : integer;
begin
  t := x; x := y; y := t
end;
begin
  a := 1; b := 2;
  swap(a, b);
  write(a); write(' '); writeln(b)
end.
|}
  in
  check_str "swap" "2 1\n" (run_interp src)

let test_interp_nesting_static_scope () =
  (* inner reads outer's local through the static chain *)
  let src =
    {|
program t;
var g : integer;
procedure outer;
var x : integer;
  procedure inner;
  begin
    x := x + 10;
    g := g + x
  end;
begin
  x := 5;
  inner;
  inner
end;
begin
  g := 0;
  outer;
  writeln(g)
end.
|}
  in
  check_str "static scope" "40\n" (run_interp src)

let test_interp_arrays_records () =
  let src =
    {|
program t;
var a : array [1..5] of integer;
    r : record fx : integer; fy : integer end;
    i : integer;
begin
  for i := 1 to 5 do begin a[i] := i * i end;
  r.fx := a[3];
  r.fy := a[5];
  writeln(r.fx + r.fy)
end.
|}
  in
  check_str "34" "34\n" (run_interp src)

let test_interp_read () =
  check_str "read input" "30\n"
    (run_interp ~input:[ 10; 20 ]
       {|
program t;
var x, y : integer;
begin
  read(x); read(y); writeln(x + y)
end.
|})

let test_interp_unbound () =
  match Interp.run (Parser.parse_program "program t; begin x := 1 end.") with
  | Error (Interp.Unbound "x") -> ()
  | _ -> Alcotest.fail "expected unbound"

let test_interp_fuel () =
  let src = "program t; var x : integer; begin x := 1; while true do begin x := x end end." in
  match Interp.run ~fuel:1000 (Parser.parse_program src) with
  | Error Interp.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

(* ---------------- compiler ---------------- *)

let compile_and_run ?input src =
  let c = Driver.compile_source src in
  (match c.Driver.c_errors with
  | [] -> ()
  | errs -> Alcotest.failf "compile errors: %s" (String.concat "; " errs));
  match Driver.run_compiled ?input c with
  | Ok out -> out
  | Error e -> Alcotest.failf "runtime error: %s\n%s" e c.Driver.c_asm

let differential ?input src =
  let expected = run_interp ?input src in
  let actual = compile_and_run ?input src in
  check_str "compiled output = interpreted output" expected actual

let test_compile_hello () = differential "program t; begin writeln(42) end."

let test_compile_arith () =
  differential
    "program t; var x : integer; begin x := (100 - 3 * 4) div 8; writeln(x mod 5) end."

let test_compile_control () =
  differential
    {|
program t;
var i, s : integer;
begin
  s := 0;
  for i := 1 to 10 do begin if i mod 2 = 0 then begin s := s + i end end;
  writeln(s);
  i := 5;
  repeat
    s := s - i; i := i - 1
  until i = 0;
  writeln(s);
  case s mod 3 of
    0: begin writeln(100) end;
    1, 2: begin writeln(200) end
    else begin writeln(300) end
  end
end.
|}

let test_compile_downto () =
  differential
    {|
program t;
var i : integer;
begin
  for i := 5 downto 1 do begin write(i) end;
  writeln
end.
|}

let test_compile_procs () =
  differential
    {|
program t;
var a, b : integer;
function gcd(x : integer; y : integer) : integer;
begin
  if y = 0 then begin gcd := x end
  else begin gcd := gcd(y, x mod y) end
end;
procedure swap(var x : integer; var y : integer);
var t : integer;
begin
  t := x; x := y; y := t
end;
begin
  a := 48; b := 36;
  swap(a, b);
  writeln(gcd(a, b))
end.
|}

let test_compile_nesting () =
  differential
    {|
program t;
var g : integer;
procedure outer(base : integer);
var x : integer;
  function inner(k : integer) : integer;
  begin
    inner := x * k + base
  end;
begin
  x := 3;
  g := inner(4)
end;
begin
  outer(100);
  writeln(g)
end.
|}

let test_compile_deep_nesting () =
  differential
    {|
program t;
var g : integer;
procedure l2;
var a : integer;
  procedure l3;
  var b : integer;
    procedure l4;
    begin
      b := b + a + g;
      g := g + b
    end;
  begin
    b := 1;
    l4;
    l4
  end;
begin
  a := 10;
  l3
end;
begin
  g := 100;
  l2;
  writeln(g)
end.
|}

let test_compile_arrays_records () =
  differential
    {|
program t;
var a : array [1..8] of integer;
    r : record fx : integer; fy : integer end;
    i : integer;
begin
  for i := 1 to 8 do begin a[i] := i * 3 end;
  r.fx := 0;
  for i := 1 to 8 do begin r.fx := r.fx + a[i] end;
  r.fy := a[2] * a[7];
  writeln(r.fx);
  writeln(r.fy)
end.
|}

let test_compile_bool_char () =
  differential
    {|
program t;
var b : boolean; c : char;
begin
  b := (3 < 5) and not (2 > 7);
  c := 'z';
  write(b); write(c); writeln;
  b := false or (1 = 2);
  writeln(b)
end.
|}

let test_compile_read () =
  differential ~input:[ 7; 9 ]
    {|
program t;
var x, y : integer;
begin
  read(x); read(y);
  writeln(x * y)
end.
|}

let test_compile_const () =
  differential
    "program t; const k = 12; var x : integer; begin x := k * 2; writeln(x + k) end."

let test_semantic_errors () =
  let errs src = (Driver.compile_source src).Driver.c_errors in
  check_bool "unbound var" true (errs "program t; begin x := 1 end." <> []);
  check_bool "type mismatch" true
    (errs "program t; var b : boolean; begin b := 3 end." <> []);
  check_bool "bad condition" true
    (errs "program t; begin if 3 then begin writeln(1) end end." <> []);
  check_bool "arity" true
    (errs
       "program t; procedure p(x : integer); begin writeln(x) end; begin p(1, 2) end."
    <> []);
  check_bool "unknown proc" true (errs "program t; begin nope(1) end." <> []);
  check_bool "duplicate decl" true
    (errs "program t; var x : integer; var x : integer; begin x := 1 end." <> []);
  check_bool "assign to const" true
    (errs "program t; const k = 1; begin k := 2 end." <> []);
  check_bool "var arg not variable" true
    (errs
       "program t; var x : integer; procedure p(var y : integer); begin y := 1 end; begin p(x + 1) end."
    <> [])

let test_all_evaluators_compile_identically () =
  let src =
    {|
program t;
var x : integer;
function sq(n : integer) : integer;
begin
  sq := n * n
end;
begin
  x := sq(7);
  while x > 10 do begin x := x - 10 end;
  writeln(x)
end.
|}
  in
  let p = Parser.parse_program src in
  let mask = Pag_grammars.Stackcode_ag.mask_labels in
  let st = (Driver.compile ~evaluator:`Static p).Driver.c_asm in
  let dy = (Driver.compile ~evaluator:`Dynamic p).Driver.c_asm in
  let orc = (Driver.compile ~evaluator:`Oracle p).Driver.c_asm in
  check_str "static = dynamic" (mask st) (mask dy);
  check_str "static = oracle" (mask st) (mask orc)

(* ---------------- peephole ---------------- *)

let test_peephole_preserves_behaviour () =
  let src =
    {|
program t;
var i, s : integer;
begin
  s := 0;
  for i := 1 to 6 do begin s := s + i * i end;
  writeln(s)
end.
|}
  in
  let c = Driver.compile_source src in
  let o = Driver.optimize c in
  let before = Peephole.instr_count (Vax.Asm_parser.parse c.Driver.c_asm) in
  let after = Peephole.instr_count (Vax.Asm_parser.parse o.Driver.c_asm) in
  check_bool
    (Printf.sprintf "fewer instructions (%d -> %d)" before after)
    true (after < before);
  let out_plain = Driver.run_compiled c and out_opt = Driver.run_compiled o in
  check_bool "same output" true (out_plain = out_opt)

(* ---------------- differential property ---------------- *)

let arb_program =
  QCheck.make
    ~print:(fun (seed, _) ->
      let p, _ = Progen.gen (Random.State.make [| seed |]) Progen.small in
      Pp.program_to_string p)
    QCheck.Gen.(
      pair (int_bound 1_000_000) (return ()))

let prop_differential =
  qc "compiled programs behave like the interpreter" arb_program
    (fun (seed, ()) ->
      let p, reads = Progen.gen (Random.State.make [| seed |]) Progen.small in
      let input = List.init reads (fun i -> (i * 37 mod 100) - 50) in
      let expected = Interp.run ~input p in
      let c = Driver.compile p in
      if c.Driver.c_errors <> [] then
        QCheck.Test.fail_reportf "generated program has errors: %s\n%s"
          (String.concat "; " c.Driver.c_errors)
          (Pp.program_to_string p);
      let actual = Driver.run_compiled ~input c in
      match (expected, actual) with
      | Ok a, Ok b -> a = b
      | Error _, _ | _, Error _ ->
          QCheck.Test.fail_reportf "execution failed on\n%s" (Pp.program_to_string p))

let prop_differential_optimized =
  qc ~count:20 "peephole keeps behaviour on generated programs" arb_program
    (fun (seed, ()) ->
      let p, reads = Progen.gen (Random.State.make [| seed |]) Progen.small in
      let input = List.init reads (fun i -> i * 13 mod 50) in
      let c = Driver.compile p in
      c.Driver.c_errors = []
      && Driver.run_compiled ~input c = Driver.run_compiled ~input (Driver.optimize c))

let prop_pp_roundtrip =
  qc ~count:40 "pretty-printed programs re-parse to the same AST" arb_program
    (fun (seed, ()) ->
      let p, _ = Progen.gen (Random.State.make [| seed |]) Progen.small in
      Parser.parse_program (Pp.program_to_string p) = p)

(* The paper program's sequential assembly, byte for byte: label-masked
   comparisons elsewhere would not notice a drift in the printer. *)
let test_paper_program_digest () =
  let asm = (Driver.compile (Progen.paper_program ())).Driver.c_asm in
  check_int "bytes" 1_364_966 (String.length asm);
  check_str "md5" "2b30e4f2cc8e863a88ac334769811084"
    (Digest.to_hex (Digest.string asm))

(* The same for compile_skewed's program: its four 1,600-step expression
   chains build code ropes by long one-sided concatenation, a shape the
   paper program lacks. *)
let test_skewed_program_digest () =
  let asm = (Driver.compile (Progen.skewed_program ~chain:1600 ())).Driver.c_asm in
  check_int "bytes" 1_069_252 (String.length asm);
  check_str "md5" "ab12ce946f8ea800bf0ed953117f055b"
    (Digest.to_hex (Digest.string asm))

let suite =
  [
    ( "pascal-front",
      [
        Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
        Alcotest.test_case "lexer case" `Quick test_lexer_case_insensitive;
        Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
        Alcotest.test_case "lexer chars" `Quick test_lexer_char_literals;
        Alcotest.test_case "lexer operators" `Quick test_lexer_operators;
        Alcotest.test_case "lexer error" `Quick test_lexer_error;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "relational" `Quick test_parse_relational;
        Alcotest.test_case "program shape" `Quick test_parse_program_shape;
        Alcotest.test_case "parse error line" `Quick test_parse_error_reports_line;
        Alcotest.test_case "pp round trip" `Quick test_pp_roundtrip_manual;
      ] );
    ( "pascal-interp",
      [
        Alcotest.test_case "basics" `Quick test_interp_basics;
        Alcotest.test_case "control" `Quick test_interp_control;
        Alcotest.test_case "recursion" `Quick test_interp_recursion;
        Alcotest.test_case "var params" `Quick test_interp_var_params;
        Alcotest.test_case "static scope" `Quick test_interp_nesting_static_scope;
        Alcotest.test_case "arrays/records" `Quick test_interp_arrays_records;
        Alcotest.test_case "read" `Quick test_interp_read;
        Alcotest.test_case "unbound" `Quick test_interp_unbound;
        Alcotest.test_case "fuel" `Quick test_interp_fuel;
      ] );
    ( "pascal-compile",
      [
        Alcotest.test_case "hello" `Quick test_compile_hello;
        Alcotest.test_case "arith" `Quick test_compile_arith;
        Alcotest.test_case "control" `Quick test_compile_control;
        Alcotest.test_case "downto" `Quick test_compile_downto;
        Alcotest.test_case "procs" `Quick test_compile_procs;
        Alcotest.test_case "nesting" `Quick test_compile_nesting;
        Alcotest.test_case "deep nesting" `Quick test_compile_deep_nesting;
        Alcotest.test_case "arrays/records" `Quick test_compile_arrays_records;
        Alcotest.test_case "bool/char" `Quick test_compile_bool_char;
        Alcotest.test_case "read" `Quick test_compile_read;
        Alcotest.test_case "const" `Quick test_compile_const;
        Alcotest.test_case "semantic errors" `Quick test_semantic_errors;
        Alcotest.test_case "evaluator agreement" `Quick
          test_all_evaluators_compile_identically;
        Alcotest.test_case "peephole" `Quick test_peephole_preserves_behaviour;
        Alcotest.test_case "paper program digest" `Quick
          test_paper_program_digest;
        Alcotest.test_case "skewed program digest" `Quick
          test_skewed_program_digest;
        prop_differential;
        prop_differential_optimized;
        prop_pp_roundtrip;
      ] );
  ]

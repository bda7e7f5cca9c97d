open Vax

let qc ?(count = 100) name gen prop = Qc_seed.qc ~count name gen prop

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let run_ok ?input instrs =
  match Machine.run ?input instrs with
  | Ok o -> o.Machine.output
  | Error e -> Alcotest.failf "machine fault: %s" (Machine.error_to_string e)

let print_int_of v =
  Isa.[ Pushl (Imm v); Calls (1, "_print_int"); Halt ]

let test_print_int () = check_str "print 42" "42" (run_ok (print_int_of 42))

let test_negative () = check_str "print -7" "-7" (run_ok (print_int_of (-7)))

let test_arith () =
  let out =
    run_ok
      Isa.
        [
          Movl (Imm 10, Reg 0);
          Addl2 (Imm 5, Reg 0);
          Mull2 (Imm 3, Reg 0);
          Subl2 (Imm 1, Reg 0);
          Divl2 (Imm 4, Reg 0);
          Pushl (Reg 0);
          Calls (1, "_print_int");
          Halt;
        ]
  in
  check_str "(10+5)*3-1 / 4 = 11" "11" out

let test_addl3 () =
  let out =
    run_ok
      Isa.
        [
          Addl3 (Imm 2, Imm 3, Reg 1);
          Subl3 (Imm 2, Reg 1, Reg 2);
          (* r2 = r1 - 2 = 3 *)
          Pushl (Reg 2);
          Calls (1, "_print_int");
          Halt;
        ]
  in
  check_str "3" "3" out

let test_memory_and_stack () =
  let out =
    run_ok
      Isa.
        [
          Pushl (Imm 11);
          Pushl (Imm 22);
          Movl (PostInc 14, Reg 0);
          (* pops 22 *)
          Movl (PostInc 14, Reg 1);
          (* pops 11 *)
          Subl3 (Reg 1, Reg 0, Reg 2);
          (* r2 = r0 - r1 = 11 *)
          Pushl (Reg 2);
          Calls (1, "_print_int");
          Halt;
        ]
  in
  check_str "stack pops" "11" out

let test_branches () =
  let out =
    run_ok
      Isa.
        [
          Movl (Imm 3, Reg 0);
          Cmpl (Reg 0, Imm 5);
          Blss "less";
          Pushl (Imm 0);
          Calls (1, "_print_int");
          Brb "end";
          Label "less";
          Pushl (Imm 1);
          Calls (1, "_print_int");
          Label "end";
          Halt;
        ]
  in
  check_str "3 < 5 branch taken" "1" out

let test_loop () =
  (* sum 1..10 *)
  let out =
    run_ok
      Isa.
        [
          Movl (Imm 0, Reg 0);
          Movl (Imm 1, Reg 1);
          Label "loop";
          Cmpl (Reg 1, Imm 10);
          Bgtr "done";
          Addl2 (Reg 1, Reg 0);
          Addl2 (Imm 1, Reg 1);
          Brb "loop";
          Label "done";
          Pushl (Reg 0);
          Calls (1, "_print_int");
          Halt;
        ]
  in
  check_str "sum" "55" out

let test_call_convention () =
  (* double(x) = x + x, result in r0; args at 4(ap) *)
  let out =
    run_ok
      Isa.
        [
          Pushl (Imm 21);
          Calls (1, "double");
          Pushl (Reg 0);
          Calls (1, "_print_int");
          Halt;
          Label "double";
          Movl (Disp (4, 12), Reg 0);
          Addl2 (Disp (4, 12), Reg 0);
          Ret;
        ]
  in
  check_str "double(21)" "42" out

let test_recursion () =
  (* fact(n) = n <= 1 ? 1 : n * fact(n-1) *)
  let out =
    run_ok
      Isa.
        [
          Pushl (Imm 6);
          Calls (1, "fact");
          Pushl (Reg 0);
          Calls (1, "_print_int");
          Halt;
          Label "fact";
          Movl (Disp (4, 12), Reg 1);
          Cmpl (Reg 1, Imm 1);
          Bgtr "rec";
          Movl (Imm 1, Reg 0);
          Ret;
          Label "rec";
          Subl3 (Imm 1, Reg 1, Reg 2);
          Pushl (Reg 2);
          Calls (1, "fact");
          Mull2 (Disp (4, 12), Reg 0);
          Ret;
        ]
  in
  check_str "6!" "720" out

let test_read_int () =
  let out =
    run_ok ~input:[ 5; 7 ]
      Isa.
        [
          Calls (0, "_read_int");
          Movl (Reg 0, Reg 2);
          Calls (0, "_read_int");
          Addl2 (Reg 0, Reg 2);
          Pushl (Reg 2);
          Calls (1, "_print_int");
          Halt;
        ]
  in
  check_str "5+7" "12" out

let test_print_char_bool () =
  let out =
    run_ok
      Isa.
        [
          Pushl (Imm 72);
          Calls (1, "_print_char");
          Pushl (Imm 105);
          Calls (1, "_print_char");
          Pushl (Imm 10);
          Calls (1, "_print_char");
          Pushl (Imm 1);
          Calls (1, "_print_bool");
          Pushl (Imm 0);
          Calls (1, "_print_bool");
          Halt;
        ]
  in
  check_str "chars and bools" "Hi\ntruefalse" out

let test_infinite_loop_fuel () =
  match Machine.run ~fuel:1000 Isa.[ Label "x"; Brb "x" ] with
  | Error Machine.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_unknown_label () =
  match Machine.run Isa.[ Brb "ghost" ] with
  | Error (Machine.Unknown_label "ghost") -> ()
  | _ -> Alcotest.fail "expected unknown label"

let test_divide_by_zero () =
  match Machine.run Isa.[ Movl (Imm 1, Reg 0); Divl2 (Imm 0, Reg 0); Halt ] with
  | Error Machine.Divide_by_zero -> ()
  | _ -> Alcotest.fail "expected divide by zero"

let test_moval () =
  let out =
    run_ok
      Isa.
        [
          (* store 99 at -4(fp) via a computed address *)
          Subl2 (Imm 8, Reg 14);
          Moval (Disp (-4, 13), Reg 0);
          Movl (Imm 99, Deref 0);
          Pushl (Disp (-4, 13));
          Calls (1, "_print_int");
          Halt;
        ]
  in
  check_str "moval + deref" "99" out

(* ---------------- assembler round trips ---------------- *)

let test_asm_roundtrip_manual () =
  let prog =
    Isa.
      [
        Label "start";
        Movl (Imm 3, Reg 0);
        Addl3 (Disp (-4, 13), PostInc 14, Reg 5);
        Pushl (PreDec 14);
        Cmpl (Deref 2, Lbl "start");
        Beql "start";
        Calls (2, "foo");
        Ret;
        Halt;
      ]
  in
  let text = Isa.to_string prog in
  let back = Asm_parser.parse text in
  check_bool "round trip" true (back = prog)

let test_asm_comments_blank () =
  let text = "# a comment\n\n\tmovl\t$1,r0  # trailing\n\thalt\n" in
  let prog = Asm_parser.parse text in
  check_bool "parsed" true (prog = Isa.[ Movl (Imm 1, Reg 0); Halt ])

let test_asm_errors () =
  let bad s =
    match Asm_parser.parse s with
    | exception Asm_parser.Parse_error _ -> true
    | _ -> false
  in
  check_bool "unknown op" true (bad "\tfoo\t$1,r0\n");
  check_bool "bad register" true (bad "\tmovl\t$1,r99\n");
  check_bool "bare int" true (bad "\tmovl\t5,r0\n")

let arb_instr =
  let open QCheck.Gen in
  let reg = int_bound 15 in
  let operand =
    oneof
      [
        map (fun n -> Isa.Imm n) (int_range (-1000) 1000);
        map (fun r -> Isa.Reg r) reg;
        map (fun r -> Isa.Deref r) reg;
        map2 (fun d r -> Isa.Disp (d, r)) (int_range (-100) 100) reg;
        map (fun r -> Isa.PostInc r) reg;
        map (fun r -> Isa.PreDec r) reg;
        return (Isa.Lbl "somelabel");
      ]
  in
  let label = oneofl [ "l1"; "loop"; "_print_int"; "a_b_c" ] in
  oneof
    [
      map (fun l -> Isa.Label l) label;
      map2 (fun a b -> Isa.Movl (a, b)) operand operand;
      map (fun a -> Isa.Pushl a) operand;
      map2 (fun a b -> Isa.Addl2 (a, b)) operand operand;
      (let three f = map (fun ((a, b), c) -> f a b c) (pair (pair operand operand) operand) in
       three (fun a b c -> Isa.Addl3 (a, b, c)));
      map2 (fun a b -> Isa.Cmpl (a, b)) operand operand;
      map (fun l -> Isa.Beql l) label;
      map (fun l -> Isa.Brb l) label;
      map2 (fun n l -> Isa.Calls (n, l)) (int_bound 5) label;
      return Isa.Ret;
      return Isa.Halt;
    ]

let prop_roundtrip =
  qc "assembler round-trips the printer"
    (QCheck.make
       ~print:(fun is -> Isa.to_string is)
       QCheck.Gen.(list_size (int_bound 20) arb_instr))
    (fun prog -> Asm_parser.parse (Isa.to_string prog) = prog)

(* The printer's text, byte for byte: every instruction constructor and
   every operand form, including negative immediates and displacements, the
   named registers and labels. *)
let test_printer_text () =
  let cases =
    Isa.
      [
        (Label "L12", "L12:");
        (Comment "frame of p", "# frame of p");
        (Movl (Imm (-5), Reg 0), "\tmovl\t$-5,r0");
        (Moval (Disp (-8, fp), Reg 11), "\tmoval\t-8(fp),r11");
        (Pushl (Deref ap), "\tpushl\t(ap)");
        (Addl2 (PostInc sp, Reg 15), "\taddl2\t(sp)+,pc");
        (Addl3 (Imm 2, Disp (4, ap), PreDec sp), "\taddl3\t$2,4(ap),-(sp)");
        (Subl2 (Lbl "_g", Reg 2), "\tsubl2\t_g,r2");
        (Subl3 (Imm 0, Deref fp, Reg 1), "\tsubl3\t$0,(fp),r1");
        (Mull2 (Disp (0, r0), PostInc r1), "\tmull2\t0(r0),(r1)+");
        (Divl2 (PreDec fp, Deref sp), "\tdivl2\t-(fp),(sp)");
        (Divl3 (Reg 12, Reg 13, Reg 14), "\tdivl3\tap,fp,sp");
        (Mnegl (Imm 123456, Disp (-123, 10)), "\tmnegl\t$123456,-123(r10)");
        (Cmpl (Lbl "L3", Imm 7), "\tcmpl\tL3,$7");
        (Tstl (PreDec r2), "\ttstl\t-(r2)");
        (Beql "L1", "\tbeql\tL1");
        (Bneq "L2", "\tbneq\tL2");
        (Blss "L3", "\tblss\tL3");
        (Bleq "L4", "\tbleq\tL4");
        (Bgtr "L5", "\tbgtr\tL5");
        (Bgeq "L6", "\tbgeq\tL6");
        (Brb "L7", "\tbrb\tL7");
        (Calls (2, "P9"), "\tcalls\t$2,P9");
        (Calls (0, "_print_int"), "\tcalls\t$0,_print_int");
        (Ret, "\tret");
        (Halt, "\thalt");
      ]
  in
  List.iter
    (fun (i, want) ->
      check_str want (want ^ "\n") (Isa.to_string [ i ]);
      check_str want want (Format.asprintf "%a" Isa.pp_instr i))
    cases;
  check_str "program"
    (String.concat "" (List.map (fun (_, w) -> w ^ "\n") cases))
    (Isa.to_string (List.map fst cases));
  check_str "empty" "" (Isa.to_string []);
  check_str "pp_operand" "-4(fp)" (Format.asprintf "%a" Isa.pp_operand (Isa.Disp (-4, Isa.fp)))

let suite =
  [
    ( "vax",
      [
        Alcotest.test_case "print int" `Quick test_print_int;
        Alcotest.test_case "negative" `Quick test_negative;
        Alcotest.test_case "arith" `Quick test_arith;
        Alcotest.test_case "addl3/subl3" `Quick test_addl3;
        Alcotest.test_case "stack" `Quick test_memory_and_stack;
        Alcotest.test_case "branches" `Quick test_branches;
        Alcotest.test_case "loop" `Quick test_loop;
        Alcotest.test_case "call convention" `Quick test_call_convention;
        Alcotest.test_case "recursion" `Quick test_recursion;
        Alcotest.test_case "read int" `Quick test_read_int;
        Alcotest.test_case "char/bool" `Quick test_print_char_bool;
        Alcotest.test_case "fuel" `Quick test_infinite_loop_fuel;
        Alcotest.test_case "unknown label" `Quick test_unknown_label;
        Alcotest.test_case "div by zero" `Quick test_divide_by_zero;
        Alcotest.test_case "moval" `Quick test_moval;
        Alcotest.test_case "asm round trip" `Quick test_asm_roundtrip_manual;
        Alcotest.test_case "asm comments" `Quick test_asm_comments_blank;
        Alcotest.test_case "asm errors" `Quick test_asm_errors;
        Alcotest.test_case "printer text" `Quick test_printer_text;
        prop_roundtrip;
      ] );
  ]

type reg = int

let r0 = 0
let r1 = 1
let r2 = 2
let ap = 12
let fp = 13
let sp = 14

type operand =
  | Imm of int
  | Reg of reg
  | Deref of reg
  | Disp of int * reg
  | PostInc of reg
  | PreDec of reg
  | Lbl of string

type instr =
  | Label of string
  | Comment of string
  | Movl of operand * operand
  | Moval of operand * operand
  | Pushl of operand
  | Addl2 of operand * operand
  | Addl3 of operand * operand * operand
  | Subl2 of operand * operand
  | Subl3 of operand * operand * operand
  | Mull2 of operand * operand
  | Divl2 of operand * operand
  | Divl3 of operand * operand * operand
  | Mnegl of operand * operand
  | Cmpl of operand * operand
  | Tstl of operand
  | Beql of string
  | Bneq of string
  | Blss of string
  | Bleq of string
  | Bgtr of string
  | Bgeq of string
  | Brb of string
  | Calls of int * string
  | Ret
  | Halt

let reg_name = function
  | 12 -> "ap"
  | 13 -> "fp"
  | 14 -> "sp"
  | 15 -> "pc"
  | n -> "r" ^ string_of_int n

(* One writer: instructions go straight into a buffer, with no [Format]
   formatter per instruction; a code attribute prints thousands. *)
let paren b pre r post =
  Buffer.add_string b pre;
  Buffer.add_string b (reg_name r);
  Buffer.add_string b post

let add_operand b = function
  | Imm n -> Buffer.add_char b '$'; Buffer.add_string b (string_of_int n)
  | Reg r -> Buffer.add_string b (reg_name r)
  | Deref r -> paren b "(" r ")"
  | Disp (d, r) -> Buffer.add_string b (string_of_int d); paren b "(" r ")"
  | PostInc r -> paren b "(" r ")+"
  | PreDec r -> paren b "-(" r ")"
  | Lbl l -> Buffer.add_string b l

(* [\tname], then each operand after a tab (the first) or a comma. *)
let op b name = Buffer.add_char b '\t'; Buffer.add_string b name
let arg b sep o = Buffer.add_char b sep; add_operand b o
let op1 b name a = op b name; arg b '\t' a
let op2 b name a c = op1 b name a; arg b ',' c
let op3 b name a c d = op2 b name a c; arg b ',' d
let br b name l = op b name; Buffer.add_char b '\t'; Buffer.add_string b l

let add_instr b = function
  | Label l -> Buffer.add_string b l; Buffer.add_char b ':'
  | Comment c -> Buffer.add_string b "# "; Buffer.add_string b c
  | Movl (a, c) -> op2 b "movl" a c
  | Moval (a, c) -> op2 b "moval" a c
  | Pushl a -> op1 b "pushl" a
  | Addl2 (a, c) -> op2 b "addl2" a c
  | Addl3 (a, c, d) -> op3 b "addl3" a c d
  | Subl2 (a, c) -> op2 b "subl2" a c
  | Subl3 (a, c, d) -> op3 b "subl3" a c d
  | Mull2 (a, c) -> op2 b "mull2" a c
  | Divl2 (a, c) -> op2 b "divl2" a c
  | Divl3 (a, c, d) -> op3 b "divl3" a c d
  | Mnegl (a, c) -> op2 b "mnegl" a c
  | Cmpl (a, c) -> op2 b "cmpl" a c
  | Tstl a -> op1 b "tstl" a
  | Beql l -> br b "beql" l
  | Bneq l -> br b "bneq" l
  | Blss l -> br b "blss" l
  | Bleq l -> br b "bleq" l
  | Bgtr l -> br b "bgtr" l
  | Bgeq l -> br b "bgeq" l
  | Brb l -> br b "brb" l
  | Calls (n, l) -> op1 b "calls" (Imm n); arg b ',' (Lbl l)
  | Ret -> op b "ret"
  | Halt -> op b "halt"

let text add x =
  let b = Buffer.create 64 in
  add b x;
  Buffer.contents b

let pp_operand fmt o = Format.pp_print_string fmt (text add_operand o)

let pp_instr fmt i = Format.pp_print_string fmt (text add_instr i)

let to_string =
  text (fun b -> List.iter (fun i -> add_instr b i; Buffer.add_char b '\n'))

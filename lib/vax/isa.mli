(** VAX-subset assembly language.

    The compiler's target (paper, section 3: "VAX assembly language is
    produced"). This models the instructions and addressing modes the Pascal
    code generator emits: longword moves and arithmetic, comparisons and
    conditional branches, stack pushes with auto-increment/decrement modes,
    and the CALLS/RET procedure interface (simplified: the frame layout is
    documented in {!Machine}). Labels are symbolic; {!Machine} resolves them
    at load time. *)

type reg = int
(** 0..15; 12 = ap, 13 = fp, 14 = sp, 15 = pc *)

val r0 : reg
val r1 : reg
val r2 : reg
val ap : reg
val fp : reg
val sp : reg

type operand =
  | Imm of int  (** [$n] *)
  | Reg of reg  (** [rN] *)
  | Deref of reg  (** [(rN)] *)
  | Disp of int * reg  (** [d(rN)] *)
  | PostInc of reg  (** [(rN)+] *)
  | PreDec of reg  (** [-(rN)] *)
  | Lbl of string  (** address of a label *)

type instr =
  | Label of string
  | Comment of string
  | Movl of operand * operand
  | Moval of operand * operand  (** move address of first operand *)
  | Pushl of operand
  | Addl2 of operand * operand
  | Addl3 of operand * operand * operand
  | Subl2 of operand * operand
  | Subl3 of operand * operand * operand
  | Mull2 of operand * operand
  | Divl2 of operand * operand
  | Divl3 of operand * operand * operand
  | Mnegl of operand * operand  (** negate *)
  | Cmpl of operand * operand
  | Tstl of operand
  | Beql of string
  | Bneq of string
  | Blss of string
  | Bleq of string
  | Bgtr of string
  | Bgeq of string
  | Brb of string  (** unconditional branch *)
  | Calls of int * string  (** arg count, target *)
  | Ret
  | Halt

(** One operand or instruction, as {!to_string}'s writer prints it. *)
val pp_operand : Format.formatter -> operand -> unit

val pp_instr : Format.formatter -> instr -> unit

(** Render a program as assembly text, one instruction per line, labels
    outdented — the textual code attribute the compiler produces. Written
    straight into one buffer: no [Format] formatter per instruction. *)
val to_string : instr list -> string

val reg_name : reg -> string

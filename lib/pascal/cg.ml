(* Code-generation helpers shared by the semantic rules of the Pascal
   attribute grammar. All code values are Codestr (rope-backed assembly
   text), so concatenation in semantic rules is a balanced join, O(log n)
   with no text copied, and the string librarian can take code attributes
   apart at fragment boundaries. *)

open Pag_core
open Pag_util

let asm instrs = Codestr.of_rope (Rope.of_string (Vax.Isa.to_string instrs))

let cstr s = Codestr.of_string s

let ( ^^ ) = Codestr.concat

let cconcat = Codestr.concat_list

let empty = Codestr.empty

let value c = Codestr.value c

let of_value = Codestr.of_value

(* Scope construction: resolve raw declarations into symbol-table entries
   with frame addresses.

   Frame layout (offsets from fp, one 4-byte longword per slot):
     -4              static link (copied from 4(ap) in the prologue)
     -8, -12, ...    parameters, in declaration order (by-ref: the address)
     next slot       function result, when [fname] is a function
     then            locals; composites occupy [ty_words] consecutive words,
                     the recorded offset being the lowest address. *)

type scope = {
  sc_env : Value.t Symtab.t;
  sc_frame_bytes : int;
  sc_param_copies : (int * int) list; (* ap offset -> fp offset *)
  sc_result_offset : int option;
  sc_errs : string list;
}

let build_scope ~env ~level ~params ~fname ~retty ~rawdecls =
  let errs = ref [] in
  let used = ref 1 (* static link *) in
  let tab = ref env in
  let declared = Hashtbl.create 16 in
  let declare name v =
    if Hashtbl.mem declared name then
      errs := Printf.sprintf "duplicate declaration of %s" name :: !errs
    else Hashtbl.replace declared name ();
    tab := Symtab.add !tab name v
  in
  let copies = ref [] in
  let nparams = List.length params in
  List.iteri
    (fun i (name, (t : Ast.ty), by_ref) ->
      if (not by_ref) && not (Ast.is_scalar t) then
        errs :=
          Printf.sprintf "parameter %s: composite types must be passed by var"
            name
          :: !errs;
      incr used;
      let offset = -4 * !used in
      (* arguments are pushed left to right, the static link last, so the
         i-th parameter (0-based) sits at 4*(nparams - i + 1)(ap) *)
      copies := (4 * (nparams - i + 1), offset) :: !copies;
      declare name (Pvalue.info (Pvalue.IVar { ty = t; level; offset; by_ref })))
    params;
  let result_offset =
    match retty with
    | None -> None
    | Some t ->
        incr used;
        let offset = -4 * !used in
        (* The result slot lives under a mangled key so the routine entry
           stays visible for recursive calls; lv_id resolves assignments to
           the function name through it. *)
        declare (fname ^ "$result")
          (Pvalue.info (Pvalue.IVar { ty = t; level; offset; by_ref = false }));
        Some offset
  in
  List.iter
    (fun r ->
      match r with
      | Pvalue.RConst (name, v) -> declare name (Pvalue.info (Pvalue.IConst v))
      | Pvalue.RVar (name, t) ->
          let words = Ast.ty_words t in
          let offset = -4 * (!used + words) in
          used := !used + words;
          declare name
            (Pvalue.info (Pvalue.IVar { ty = t; level; offset; by_ref = false }))
      | Pvalue.RRoutine (name, label, psig, ret) ->
          declare name
            (Pvalue.info (Pvalue.IRoutine { label; params = psig; ret; level })))
    rawdecls;
  {
    sc_env = !tab;
    sc_frame_bytes = 4 * !used;
    sc_param_copies = List.rev !copies;
    sc_result_offset = result_offset;
    sc_errs = List.rev !errs;
  }

(* Chase the static chain from the current frame (level [cur]) to the frame
   at [target] level, leaving that frame pointer in r0. Assumes cur > target
   or emits nothing when equal (caller then uses fp directly). *)
let chase_chain ~cur ~target =
  let open Vax.Isa in
  if cur = target then []
  else
    Movl (Disp (-4, fp), Reg r0)
    :: List.concat
         (List.init (cur - target - 1) (fun _ ->
              [ Movl (Disp (-4, r0), Reg r0) ]))

(* Push the address of a variable. *)
let push_var_addr ~cur ~(v : Pvalue.info) =
  let open Vax.Isa in
  match v with
  | Pvalue.IVar { level; offset; by_ref; _ } ->
      if level = cur then
        if by_ref then [ Pushl (Disp (offset, fp)) ]
        else [ Moval (Disp (offset, fp), Reg r0); Pushl (Reg r0) ]
      else
        chase_chain ~cur ~target:level
        @
        if by_ref then [ Pushl (Disp (offset, r0)) ]
        else [ Moval (Disp (offset, r0), Reg r0); Pushl (Reg r0) ]
  | Pvalue.IConst _ | Pvalue.IRoutine _ -> [ Pushl (Imm 0) ]

(* Push the static link for a call to a routine declared at [target]. *)
let push_static_link ~cur ~target =
  let open Vax.Isa in
  if cur = target then [ Pushl (Reg fp) ]
  else chase_chain ~cur ~target @ [ Pushl (Reg r0) ]

(* Dereference the address on top of the stack into its value. *)
let deref_top =
  let open Vax.Isa in
  [ Movl (PostInc sp, Reg r0); Pushl (Deref r0) ]

(* Pop two operands (b on top, a below), leave result pushed. *)
let binop ops =
  let open Vax.Isa in
  [ Movl (PostInc sp, Reg r1); Movl (PostInc sp, Reg r0) ]
  @ ops
  @ [ Pushl (Reg r0) ]

let lab n = Printf.sprintf "L%d" n

let plab n = Printf.sprintf "P%d" n

(* Branchy comparison: pop b, a; push 1 if [a op b] else 0. Two labels. *)
let compare_code branch l_true l_end =
  let open Vax.Isa in
  [
    Movl (PostInc sp, Reg r1);
    Movl (PostInc sp, Reg r0);
    Cmpl (Reg r0, Reg r1);
    branch l_true;
    Pushl (Imm 0);
    Brb l_end;
    Label l_true;
    Pushl (Imm 1);
    Label l_end;
  ]

(* Routine section: entry label, prologue, body, epilogue. *)
let routine_section ~entry ~frame_bytes ~param_copies ~result_offset ~body =
  let open Vax.Isa in
  (* Zero the frame: Pascal leaves locals uninitialized, but the reference
     semantics (and the interpreter) give fresh variables the value 0, and
     stack memory is reused between calls. *)
  let zeroing =
    List.init (frame_bytes / 4) (fun i ->
        Movl (Imm 0, Disp (-4 * (i + 1), fp)))
  in
  let prologue =
    [ Label entry; Subl2 (Imm frame_bytes, Reg sp) ]
    @ zeroing
    @ [ Movl (Disp (4, ap), Disp (-4, fp)) ]
    @ List.map (fun (src, dst) -> Movl (Disp (src, ap), Disp (dst, fp))) param_copies
  in
  let epilogue =
    match result_offset with
    | Some off -> [ Movl (Disp (off, fp), Reg r0); Ret ]
    | None -> [ Ret ]
  in
  asm prologue ^^ body ^^ asm epilogue

let print_call (t : Ast.ty) =
  let open Vax.Isa in
  let routine =
    match t with
    | Ast.TChar -> "_print_char"
    | Ast.TBool -> "_print_bool"
    | Ast.TInt | Ast.TArray _ | Ast.TRecord _ -> "_print_int"
  in
  [ Calls (1, routine) ]

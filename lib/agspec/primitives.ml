(* The standard library of semantic functions available to specifications —
   the paper's "standard library of symbol table routines" (st_create,
   st_add, st_lookup, the flattening functions) plus arithmetic and string
   helpers. They are ordinary OCaml functions "trusted not to produce any
   visible side effects". *)

open Pag_core
open Pag_util

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let as_int = Value.as_int

let as_str ~ctx v = Rope.to_string (Value.as_str ~ctx v)

let table : (string, int * (Value.t array -> Value.t)) Hashtbl.t =
  Hashtbl.create 32

let register name k f = Hashtbl.replace table name (k, f)

let () =
  register "st_create" 0 (fun _ -> Value.Tab Symtab.empty);
  register "st_add" 3 (fun a ->
      let tab = Value.as_tab ~ctx:"st_add" a.(0) in
      Value.Tab (Symtab.add tab (as_str ~ctx:"st_add" a.(1)) a.(2)));
  register "st_lookup" 2 (fun a ->
      let tab = Value.as_tab ~ctx:"st_lookup" a.(0) in
      let name = as_str ~ctx:"st_lookup" a.(1) in
      match Symtab.lookup tab name with
      | Some v -> v
      | None -> err "st_lookup: unbound identifier %s" name);
  register "add" 2 (fun a ->
      Value.Int (as_int ~ctx:"add" a.(0) + as_int ~ctx:"add" a.(1)));
  register "sub" 2 (fun a ->
      Value.Int (as_int ~ctx:"sub" a.(0) - as_int ~ctx:"sub" a.(1)));
  register "mul" 2 (fun a ->
      Value.Int (as_int ~ctx:"mul" a.(0) * as_int ~ctx:"mul" a.(1)));
  register "neg" 1 (fun a -> Value.Int (-as_int ~ctx:"neg" a.(0)));
  register "concat" 2 (fun a ->
      Value.Str
        (Rope.concat (Value.as_str ~ctx:"concat" a.(0)) (Value.as_str ~ctx:"concat" a.(1))));
  register "int_to_string" 1 (fun a ->
      Value.str (string_of_int (as_int ~ctx:"int_to_string" a.(0))));
  register "code" 1 (fun a ->
      Codestr.value (Codestr.of_rope (Value.as_str ~ctx:"code" a.(0))));
  register "code_concat" 2 (fun a ->
      Codestr.value
        (Codestr.concat
           (Codestr.of_value ~ctx:"code_concat" a.(0))
           (Codestr.of_value ~ctx:"code_concat" a.(1))));
  register "nil" 0 (fun _ -> Value.List []);
  register "cons" 2 (fun a ->
      Value.List (a.(0) :: Value.as_list ~ctx:"cons" a.(1)));
  register "append" 2 (fun a ->
      Value.List
        (Value.as_list ~ctx:"append" a.(0) @ Value.as_list ~ctx:"append" a.(1)));
  register "pair" 2 (fun a -> Value.Pair (a.(0), a.(1)));
  register "fresh_label" 0 (fun _ -> Value.Int (Uid.fresh ()))

let find name = Hashtbl.find_opt table name

let names () = Hashtbl.fold (fun k _ acc -> k :: acc) table []

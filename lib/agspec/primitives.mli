(** Standard library of semantic functions for specifications — the paper's
    "standard library of symbol table routines" ([st_create], [st_add],
    [st_lookup]) plus arithmetic, list, pair and code-string helpers. All
    are pure ("trusted not to produce any visible side effects").

    Available functions: [st_create/0], [st_add/3], [st_lookup/2], [add/2],
    [sub/2], [mul/2], [neg/1], [concat/2], [int_to_string/1], [code/1],
    [code_concat/2], [nil/0], [cons/2], [append/2], [pair/2],
    [fresh_label/0] (draws from the evaluator's {!Pag_core.Uid} base). *)

(** Raised by a function that cannot compute its result, such as
    [st_lookup] of an unbound identifier. *)
exception Runtime_error of string

(** [find name] is the function's arity and body, [None] when no function
    has that name. The body reads exactly [arity] arguments:
    {!Compile.translator} resolves every call and checks its arity once. *)
val find : string -> (int * (Pag_core.Value.t array -> Pag_core.Value.t)) option

(** [register name arity fn] adds a custom primitive (e.g. for a client
    grammar's own attribute payloads). *)
val register : string -> int -> (Pag_core.Value.t array -> Pag_core.Value.t) -> unit

val names : unit -> string list

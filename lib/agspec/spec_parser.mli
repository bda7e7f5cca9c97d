(** Parser for the attribute-grammar specification language (see
    {!Spec_ast} for the concrete syntax). *)

exception Error of int * string
(** line, message: a malformed token (an integer literal out of range
    among them), a syntax error, a missing [%start], or a precedence
    declaration naming no declared terminal. *)

val parse : string -> Spec_ast.t

val parse_file : string -> Spec_ast.t

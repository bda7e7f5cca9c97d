(** Recursive-descent parser for the Pascal subset.

    (The paper generates its parser with YACC; the equivalent generated
    path in this repository is the {!Lrgen}/{!Agspec} pipeline, demonstrated
    on the appendix grammar. The production Pascal front end is hand written
    for precision of error messages.)

    The grammar needs one token of lookahead, so the parser holds only the
    current token and its line, and pulls the next from {!Lexer.next}: no
    token list is built. Lexing and parsing interleave, so the first error
    in the text is the one reported, as {!Lexer.Lex_error} or
    {!Parse_error}. *)

exception Parse_error of int * string
(** line of the token where parsing stopped, message *)

val parse_program : string -> Ast.program

val parse_expr : string -> Ast.expr
(** Parse a single expression (for tests). *)

(** Hand-written scanner for the Pascal subset. Case-insensitive keywords,
    [{ }] and [(* *)] comments, decimal numbers up to [max_int], ['c']
    character literals.

    A pull lexer: {!next} scans one token when the parser asks for it, so
    no token list is built. Keywords are told apart from identifiers by a
    string [match]; one lexer returns one shared [IDENT] per distinct
    identifier. A word allocates its lowercased string; a number, a
    character literal or a new identifier also allocates its token.

    Because {!Parser} pulls tokens as it parses, the first error in the
    text wins: in a program with a syntax error on line 2 and an
    unexpected character on line 5, parsing stops at line 2 with
    {!Parser.Parse_error}, and the character on line 5 is never scanned. *)

exception Lex_error of int * string
(** line (1-based), message *)

type t
(** A scan of one text. *)

val create : string -> t

(** The next token; [EOF] at the end of the text, and again on every later
    call. Raises {!Lex_error} on a malformed token or comment, and on an
    integer literal above [max_int] ("integer literal out of range"). *)
val next : t -> Token.t

(** The line of the token {!next} returned last (1 before the first). *)
val line : t -> int

(** Every token with its line, ending with [EOF]: a loop over {!next}. *)
val tokenize : string -> (Token.t * int) list

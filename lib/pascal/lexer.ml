exception Lex_error of int * string

let error line fmt = Printf.ksprintf (fun s -> raise (Lex_error (line, s))) fmt

module Words = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;  (** line of [src.[pos]] *)
  mutable tok_line : int;  (** line of the token {!next} returned last *)
  idents : Token.t Words.t;  (** one [IDENT] per distinct identifier *)
}

let create src =
  { src; pos = 0; line = 1; tok_line = 1; idents = Words.create 64 }

let line lx = lx.tok_line

let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_digit c = c >= '0' && c <= '9'

let ident lx w =
  match Words.find lx.idents w with
  | t -> t
  | exception Not_found ->
      let t = Token.IDENT w in
      Words.add lx.idents w t;
      t

(* The lowercased word from [start] to [lx.pos]: a keyword, or an
   identifier. *)
let word lx start =
  let b = Bytes.create (lx.pos - start) in
  for i = 0 to Bytes.length b - 1 do
    Bytes.unsafe_set b i (Char.lowercase_ascii lx.src.[start + i])
  done;
  match Bytes.unsafe_to_string b with
  | "program" -> Token.PROGRAM
  | "const" -> Token.CONST
  | "var" -> Token.VAR
  | "procedure" -> Token.PROCEDURE
  | "function" -> Token.FUNCTION
  | "begin" -> Token.BEGIN
  | "end" -> Token.END
  | "if" -> Token.IF
  | "then" -> Token.THEN
  | "else" -> Token.ELSE
  | "while" -> Token.WHILE
  | "do" -> Token.DO
  | "repeat" -> Token.REPEAT
  | "until" -> Token.UNTIL
  | "for" -> Token.FOR
  | "to" -> Token.TO
  | "downto" -> Token.DOWNTO
  | "case" -> Token.CASE
  | "of" -> Token.OF
  | "array" -> Token.ARRAY
  | "record" -> Token.RECORD
  | "integer" -> Token.INTEGER
  | "boolean" -> Token.BOOLEAN
  | "char" -> Token.CHAR
  | "true" -> Token.TRUE
  | "false" -> Token.FALSE
  | "div" -> Token.DIV
  | "mod" -> Token.MOD
  | "and" -> Token.AND
  | "or" -> Token.OR
  | "not" -> Token.NOT
  | "write" -> Token.WRITE
  | "writeln" -> Token.WRITELN
  | "read" -> Token.READ
  | w -> ident lx w

(* Decimal digits, accepted up to [max_int] as [int_of_string] accepts
   them. *)
let number lx =
  let src = lx.src in
  let n = String.length src in
  let v = ref 0 in
  while lx.pos < n && is_digit src.[lx.pos] do
    let d = Char.code src.[lx.pos] - Char.code '0' in
    if !v > (max_int - d) / 10 then
      error lx.line "integer literal out of range";
    v := (!v * 10) + d;
    lx.pos <- lx.pos + 1
  done;
  Token.NUM !v

(* ['c'], or [''''] for the quote itself. *)
let char_lit lx =
  let src = lx.src and p = lx.pos in
  let n = String.length src in
  if p + 3 < n && src.[p + 1] = '\'' && src.[p + 2] = '\'' && src.[p + 3] = '\''
  then begin
    lx.pos <- p + 4;
    Token.CHARLIT '\''
  end
  else if p + 2 < n && src.[p + 2] = '\'' then begin
    lx.pos <- p + 3;
    Token.CHARLIT src.[p + 1]
  end
  else error lx.line "bad character literal"

let one lx t =
  lx.pos <- lx.pos + 1;
  t

let two lx t =
  lx.pos <- lx.pos + 2;
  t

let operator lx c =
  (* '\000' stands for the end of the text: no operator ends in it *)
  let c1 = if lx.pos + 1 < String.length lx.src then lx.src.[lx.pos + 1] else '\000' in
  match c with
  | ':' -> if c1 = '=' then two lx Token.ASSIGN else one lx Token.COLON
  | '<' ->
      if c1 = '=' then two lx Token.LE
      else if c1 = '>' then two lx Token.NE
      else one lx Token.LT
  | '>' -> if c1 = '=' then two lx Token.GE else one lx Token.GT
  | '.' -> if c1 = '.' then two lx Token.DOTDOT else one lx Token.DOT
  | '+' -> one lx Token.PLUS
  | '-' -> one lx Token.MINUS
  | '*' -> one lx Token.STAR
  | '=' -> one lx Token.EQ
  | ';' -> one lx Token.SEMI
  | ',' -> one lx Token.COMMA
  | '(' -> one lx Token.LPAREN
  | ')' -> one lx Token.RPAREN
  | '[' -> one lx Token.LBRACKET
  | ']' -> one lx Token.RBRACKET
  | _ -> error lx.line "unexpected character %C" c

(* [{ ... }]; unterminated, it is reported on the line where the text
   ends. *)
let skip_brace_comment lx =
  let src = lx.src in
  let n = String.length src in
  lx.pos <- lx.pos + 1;
  while lx.pos < n && src.[lx.pos] <> '}' do
    if src.[lx.pos] = '\n' then lx.line <- lx.line + 1;
    lx.pos <- lx.pos + 1
  done;
  if lx.pos >= n then error lx.line "unterminated { comment";
  lx.pos <- lx.pos + 1

(* [(* ... *)]; unterminated, it is reported on the line of the text's last
   character. *)
let skip_star_comment lx =
  let src = lx.src in
  let n = String.length src in
  lx.pos <- lx.pos + 2;
  let fin = ref false in
  while not !fin do
    if lx.pos + 1 >= n then error lx.line "unterminated (* comment"
    else if src.[lx.pos] = '*' && src.[lx.pos + 1] = ')' then begin
      lx.pos <- lx.pos + 2;
      fin := true
    end
    else begin
      if src.[lx.pos] = '\n' then lx.line <- lx.line + 1;
      lx.pos <- lx.pos + 1
    end
  done

let rec next lx =
  let src = lx.src in
  let n = String.length src in
  if lx.pos >= n then begin
    lx.tok_line <- lx.line;
    Token.EOF
  end
  else
    let c = src.[lx.pos] in
    if c = '\n' then begin
      lx.line <- lx.line + 1;
      lx.pos <- lx.pos + 1;
      next lx
    end
    else if c = ' ' || c = '\t' || c = '\r' then begin
      lx.pos <- lx.pos + 1;
      next lx
    end
    else if c = '{' then begin
      skip_brace_comment lx;
      next lx
    end
    else if c = '(' && lx.pos + 1 < n && src.[lx.pos + 1] = '*' then begin
      skip_star_comment lx;
      next lx
    end
    else begin
      lx.tok_line <- lx.line;
      if is_digit c then number lx
      else if is_alpha c then begin
        let start = lx.pos in
        while lx.pos < n && (is_alpha src.[lx.pos] || is_digit src.[lx.pos]) do
          lx.pos <- lx.pos + 1
        done;
        word lx start
      end
      else if c = '\'' then char_lit lx
      else operator lx c
    end

let tokenize src =
  let lx = create src in
  let rec go acc =
    match next lx with
    | Token.EOF -> List.rev ((Token.EOF, lx.tok_line) :: acc)
    | t -> go ((t, lx.tok_line) :: acc)
  in
  go []

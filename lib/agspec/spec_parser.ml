open Spec_ast

exception Error of int * string

let error line fmt = Printf.ksprintf (fun s -> raise (Error (line, s))) fmt

(* ---------------- tokens ---------------- *)

type tok =
  | TDirective of string (* %name, %keyword, ... *)
  | TIdent of string
  | TNum of int
  | TStr of string
  | TDollar of int (* $$ = 0, $k = k *)
  | TColon
  | TComma
  | TSemi
  | TEq
  | TLp
  | TRp
  | TDot
  | TArrow
  | TSep (* %% *)
  | TLbrace
  | TRbrace
  | TEOF

let tok_name = function
  | TDirective d -> "%" ^ d
  | TIdent s -> Printf.sprintf "identifier %S" s
  | TNum n -> string_of_int n
  | TStr s -> Printf.sprintf "%S" s
  | TDollar 0 -> "$$"
  | TDollar k -> Printf.sprintf "$%d" k
  | TColon -> ":"
  | TComma -> ","
  | TSemi -> ";"
  | TEq -> "="
  | TLp -> "("
  | TRp -> ")"
  | TDot -> "."
  | TArrow -> "->"
  | TSep -> "%%"
  | TLbrace -> "{"
  | TRbrace -> "}"
  | TEOF -> "end of file"

let number line text =
  match int_of_string_opt text with
  | Some n -> n
  | None -> error line "integer %s out of range" text

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let emit t = toks := (t, !line) :: !toks in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      let fin = ref false in
      while not !fin do
        if !i + 1 >= n then error !line "unterminated comment"
        else if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          i := !i + 2;
          fin := true
        end
        else begin
          if src.[!i] = '\n' then incr line;
          incr i
        end
      done
    end
    else if c = '%' then
      if !i + 1 < n && src.[!i + 1] = '%' then begin
        emit TSep;
        i := !i + 2
      end
      else begin
        incr i;
        let start = !i in
        while !i < n && is_word src.[!i] do
          incr i
        done;
        emit (TDirective (String.sub src start (!i - start)))
      end
    else if c = '$' then
      if !i + 1 < n && src.[!i + 1] = '$' then begin
        emit (TDollar 0);
        i := !i + 2
      end
      else begin
        incr i;
        let start = !i in
        while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do
          incr i
        done;
        if !i = start then error !line "expected $$ or $<number>";
        emit (TDollar (number !line (String.sub src start (!i - start))))
      end
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do
        incr i
      done;
      emit (TNum (number !line (String.sub src start (!i - start))))
    end
    else if is_word c then begin
      let start = !i in
      while !i < n && is_word src.[!i] do
        incr i
      done;
      emit (TIdent (String.sub src start (!i - start)))
    end
    else if c = '"' then begin
      incr i;
      let buf = Buffer.create 8 in
      while !i < n && src.[!i] <> '"' do
        Buffer.add_char buf src.[!i];
        incr i
      done;
      if !i >= n then error !line "unterminated string";
      incr i;
      emit (TStr (Buffer.contents buf))
    end
    else begin
      (match c with
      | ':' -> emit TColon
      | ',' -> emit TComma
      | ';' -> emit TSemi
      | '=' -> emit TEq
      | '(' -> emit TLp
      | ')' -> emit TRp
      | '.' -> emit TDot
      | '{' -> emit TLbrace
      | '}' -> emit TRbrace
      | '-' when !i + 1 < n && src.[!i + 1] = '>' ->
          emit TArrow;
          incr i
      | _ -> error !line "unexpected character %C" c);
      incr i
    end
  done;
  emit TEOF;
  List.rev !toks

(* ---------------- parser ---------------- *)

type st = { mutable toks : (tok * int) list }

let peek st = match st.toks with (t, _) :: _ -> t | [] -> TEOF

let cur_line st = match st.toks with (_, l) :: _ -> l | [] -> 0

let advance st = match st.toks with _ :: r -> st.toks <- r | [] -> ()

let eat st t =
  if peek st = t then advance st
  else error (cur_line st) "expected %s, found %s" (tok_name t) (tok_name (peek st))

let ident st =
  match peek st with
  | TIdent s ->
      advance st;
      s
  | other -> error (cur_line st) "expected an identifier, found %s" (tok_name other)

let parse_attr_specs st =
  (* syn value, inh priority stab, ... *)
  let rec loop acc =
    let kind = ident st in
    let inherited =
      match kind with
      | "syn" -> false
      | "inh" -> true
      | k -> error (cur_line st) "expected syn or inh, found %S" k
    in
    let w1 = ident st in
    let priority, name =
      if w1 = "priority" then (true, ident st) else (false, w1)
    in
    let acc = { a_name = name; a_inherited = inherited; a_priority = priority } :: acc in
    if peek st = TComma then begin
      advance st;
      loop acc
    end
    else List.rev acc
  in
  loop []

let rec parse_sexpr st =
  match peek st with
  | TNum n ->
      advance st;
      SInt n
  | TStr s ->
      advance st;
      SStr s
  | TDollar k ->
      advance st;
      eat st TDot;
      SAttr (k, ident st)
  | TIdent f -> (
      advance st;
      match peek st with
      | TLp ->
          advance st;
          let args =
            if peek st = TRp then []
            else
              let rec loop acc =
                let e = parse_sexpr st in
                if peek st = TComma then begin
                  advance st;
                  loop (e :: acc)
                end
                else List.rev (e :: acc)
              in
              loop []
          in
          eat st TRp;
          SCall (f, args)
      | _ -> error (cur_line st) "expected ( after function name %S" f)
  | other -> error (cur_line st) "expected an expression, found %s" (tok_name other)

let parse_rule st =
  let pos =
    match peek st with
    | TDollar k ->
        advance st;
        k
    | other -> error (cur_line st) "expected $$ or $k, found %s" (tok_name other)
  in
  eat st TDot;
  let attr = ident st in
  eat st TEq;
  let e = parse_sexpr st in
  { r_pos = pos; r_attr = attr; r_expr = e }

let parse st =
  let names = ref [] in
  let keywords = ref [] in
  let nts = ref [] in
  let start = ref None in
  let prec = ref [] in
  let prec_terms = ref [] in
  let rec directives () =
    match peek st with
    | TSep ->
        advance st
    | TDirective "name" ->
        advance st;
        let term = ident st in
        let cls =
          match ident st with
          | "ident" -> Ident
          | "number" -> Number
          | other -> error (cur_line st) "expected ident or number, found %S" other
        in
        let attr = ident st in
        names := { n_term = term; n_class = cls; n_attr = attr } :: !names;
        directives ()
    | TDirective "keyword" ->
        advance st;
        let rec kws () =
          match peek st with
          | TIdent term -> (
              advance st;
              match peek st with
              | TStr text ->
                  advance st;
                  keywords := { k_term = term; k_text = text } :: !keywords;
                  kws ()
              | other ->
                  error (cur_line st) "expected keyword spelling, found %s"
                    (tok_name other))
          | _ -> ()
        in
        kws ();
        directives ()
    | TDirective "nosplit" ->
        advance st;
        let name = ident st in
        eat st TColon;
        let attrs = parse_attr_specs st in
        nts := { nt_name = name; nt_split = None; nt_attrs = attrs } :: !nts;
        directives ()
    | TDirective "split" ->
        advance st;
        let min_bytes =
          match peek st with
          | TNum n ->
              advance st;
              n
          | other -> error (cur_line st) "expected a size, found %s" (tok_name other)
        in
        let name = ident st in
        eat st TColon;
        let attrs = parse_attr_specs st in
        nts := { nt_name = name; nt_split = Some min_bytes; nt_attrs = attrs } :: !nts;
        directives ()
    | TDirective "start" ->
        advance st;
        start := Some (ident st);
        directives ()
    | TDirective ("left" | "right" | "nonassoc") ->
        let a =
          match peek st with
          | TDirective "left" -> Left
          | TDirective "right" -> Right
          | _ -> Nonassoc
        in
        advance st;
        let rec terms acc =
          match peek st with
          | TIdent t ->
              prec_terms := (cur_line st, t) :: !prec_terms;
              advance st;
              terms (t :: acc)
          | _ -> List.rev acc
        in
        prec := (a, terms []) :: !prec;
        directives ()
    | TDirective other -> error (cur_line st) "unknown directive %%%s" other
    | other -> error (cur_line st) "expected a directive or %%%%, found %s" (tok_name other)
  in
  directives ();
  (* a precedence declaration may precede the terminal's declaration *)
  List.iter
    (fun (line, t) ->
      if
        not
          (List.exists (fun ns -> ns.n_term = t) !names
          || List.exists (fun kw -> kw.k_term = t) !keywords)
      then
        error line "precedence declaration names %s, which is not a terminal"
          t)
    (List.rev !prec_terms);
  (* productions *)
  let prods = ref [] in
  let rec productions () =
    match peek st with
    | TEOF -> ()
    | TIdent lhs ->
        advance st;
        eat st TArrow;
        let rec rhs acc =
          match peek st with
          | TIdent s ->
              advance st;
              rhs (s :: acc)
          | _ -> List.rev acc
        in
        let rhs = rhs [] in
        let rules =
          if peek st = TLbrace then begin
            advance st;
            let rec loop acc =
              if peek st = TRbrace then begin
                advance st;
                List.rev acc
              end
              else begin
                let r = parse_rule st in
                if peek st = TSemi then advance st;
                loop (r :: acc)
              end
            in
            loop []
          end
          else []
        in
        prods := { p_lhs = lhs; p_rhs = rhs; p_rules = rules } :: !prods;
        productions ()
    | other -> error (cur_line st) "expected a production, found %s" (tok_name other)
  in
  productions ();
  match !start with
  | None -> error 0 "missing %%start declaration"
  | Some s ->
      {
        s_names = List.rev !names;
        s_keywords = List.rev !keywords;
        s_nts = List.rev !nts;
        s_start = s;
        s_prec = List.rev !prec;
        s_prods = List.rev !prods;
      }

let parse src = parse { toks = tokenize src }

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse src

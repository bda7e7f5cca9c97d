open Ast

exception Parse_error of int * string

(* The grammar needs one token of lookahead: [tok] is the current token,
   [line] its line, and [lx] scans the rest of the text on demand. *)
type state = { lx : Lexer.t; mutable tok : Token.t; mutable line : int }

let start src =
  let lx = Lexer.create src in
  let tok = Lexer.next lx in
  { lx; tok; line = Lexer.line lx }

let error st fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (st.line, s))) fmt

let peek st = st.tok

let advance st =
  st.tok <- Lexer.next st.lx;
  st.line <- Lexer.line st.lx

let eat st t =
  if peek st = t then advance st
  else
    error st "expected %s, found %s" (Token.to_string t)
      (Token.to_string (peek st))

let ident st =
  match peek st with
  | Token.IDENT s ->
      advance st;
      s
  | other -> error st "expected an identifier, found %s" (Token.to_string other)

let number st =
  match peek st with
  | Token.NUM n ->
      advance st;
      n
  | Token.MINUS -> (
      advance st;
      match peek st with
      | Token.NUM n ->
          advance st;
          -n
      | other -> error st "expected a number, found %s" (Token.to_string other))
  | other -> error st "expected a number, found %s" (Token.to_string other)

(* ---------------- types ---------------- *)

let rec parse_ty st =
  match peek st with
  | Token.INTEGER ->
      advance st;
      TInt
  | Token.BOOLEAN ->
      advance st;
      TBool
  | Token.CHAR ->
      advance st;
      TChar
  | Token.ARRAY ->
      advance st;
      eat st Token.LBRACKET;
      let lo = number st in
      eat st Token.DOTDOT;
      let hi = number st in
      eat st Token.RBRACKET;
      eat st Token.OF;
      let elem = parse_ty st in
      if hi < lo then error st "array upper bound below lower bound";
      TArray (lo, hi, elem)
  | Token.RECORD ->
      advance st;
      let fields = ref [] in
      let rec fields_loop () =
        if peek st = Token.END then ()
        else begin
          let names = ref [ ident st ] in
          while peek st = Token.COMMA do
            advance st;
            names := ident st :: !names
          done;
          eat st Token.COLON;
          let ty = parse_ty st in
          List.iter (fun n -> fields := (n, ty) :: !fields) (List.rev !names);
          if peek st = Token.SEMI then begin
            advance st;
            fields_loop ()
          end
        end
      in
      fields_loop ();
      eat st Token.END;
      TRecord (List.rev !fields)
  | other -> error st "expected a type, found %s" (Token.to_string other)

(* ---------------- expressions ----------------

   Standard Pascal precedence: relational < additive/or < multiplicative/and
   < unary not/-. *)

let rec parse_expr_prec st =
  let lhs = parse_simple st in
  match peek st with
  | Token.EQ | Token.NE | Token.LT | Token.LE | Token.GT | Token.GE ->
      let op =
        match peek st with
        | Token.EQ -> Eq
        | Token.NE -> Ne
        | Token.LT -> Lt
        | Token.LE -> Le
        | Token.GT -> Gt
        | Token.GE -> Ge
        | _ -> assert false
      in
      advance st;
      let rhs = parse_simple st in
      EBin (op, lhs, rhs)
  | _ -> lhs

and parse_simple st =
  (* leading sign *)
  let first =
    match peek st with
    | Token.MINUS ->
        advance st;
        EUn (Neg, parse_term st)
    | Token.PLUS ->
        advance st;
        parse_term st
    | _ -> parse_term st
  in
  let rec loop acc =
    match peek st with
    | Token.PLUS ->
        advance st;
        loop (EBin (Add, acc, parse_term st))
    | Token.MINUS ->
        advance st;
        loop (EBin (Sub, acc, parse_term st))
    | Token.OR ->
        advance st;
        loop (EBin (Or, acc, parse_term st))
    | _ -> acc
  in
  loop first

and parse_term st =
  let rec loop acc =
    match peek st with
    | Token.STAR ->
        advance st;
        loop (EBin (Mul, acc, parse_factor st))
    | Token.DIV ->
        advance st;
        loop (EBin (Div, acc, parse_factor st))
    | Token.MOD ->
        advance st;
        loop (EBin (Mod, acc, parse_factor st))
    | Token.AND ->
        advance st;
        loop (EBin (And, acc, parse_factor st))
    | _ -> acc
  in
  loop (parse_factor st)

and parse_factor st =
  match peek st with
  | Token.NUM n ->
      advance st;
      EInt n
  | Token.TRUE ->
      advance st;
      EBool true
  | Token.FALSE ->
      advance st;
      EBool false
  | Token.CHARLIT c ->
      advance st;
      EChar c
  | Token.NOT ->
      advance st;
      EUn (Not, parse_factor st)
  | Token.MINUS ->
      advance st;
      EUn (Neg, parse_factor st)
  | Token.LPAREN ->
      advance st;
      let e = parse_expr_prec st in
      eat st Token.RPAREN;
      e
  | Token.IDENT name -> (
      advance st;
      match peek st with
      | Token.LPAREN ->
          advance st;
          let args = parse_args st in
          eat st Token.RPAREN;
          ECall (name, args)
      | _ -> ELval (parse_lvalue_rest st (LId name)))
  | other -> error st "expected an expression, found %s" (Token.to_string other)

and parse_args st =
  if peek st = Token.RPAREN then []
  else
    let rec loop acc =
      let e = parse_expr_prec st in
      if peek st = Token.COMMA then begin
        advance st;
        loop (e :: acc)
      end
      else List.rev (e :: acc)
    in
    loop []

and parse_lvalue_rest st lv =
  match peek st with
  | Token.LBRACKET ->
      advance st;
      let idx = parse_expr_prec st in
      eat st Token.RBRACKET;
      parse_lvalue_rest st (LIndex (lv, idx))
  | Token.DOT ->
      advance st;
      let f = ident st in
      parse_lvalue_rest st (LField (lv, f))
  | _ -> lv

(* ---------------- statements ---------------- *)

let rec parse_stmt st =
  match peek st with
  | Token.IF ->
      advance st;
      let cond = parse_expr_prec st in
      eat st Token.THEN;
      let then_ = parse_body st in
      let else_ =
        if peek st = Token.ELSE then begin
          advance st;
          parse_body st
        end
        else []
      in
      SIf (cond, then_, else_)
  | Token.WHILE ->
      advance st;
      let cond = parse_expr_prec st in
      eat st Token.DO;
      SWhile (cond, parse_body st)
  | Token.REPEAT ->
      advance st;
      let body = parse_stmts st in
      eat st Token.UNTIL;
      SRepeat (body, parse_expr_prec st)
  | Token.FOR ->
      advance st;
      let v = ident st in
      eat st Token.ASSIGN;
      let e1 = parse_expr_prec st in
      let up =
        match peek st with
        | Token.TO ->
            advance st;
            true
        | Token.DOWNTO ->
            advance st;
            false
        | other -> error st "expected to/downto, found %s" (Token.to_string other)
      in
      let e2 = parse_expr_prec st in
      eat st Token.DO;
      SFor (v, e1, up, e2, parse_body st)
  | Token.CASE ->
      advance st;
      let scrutinee = parse_expr_prec st in
      eat st Token.OF;
      let arms = ref [] in
      let default = ref None in
      let rec arms_loop () =
        match peek st with
        | Token.END -> ()
        | Token.ELSE ->
            advance st;
            default := Some (parse_body st)
        | _ ->
            let consts = ref [ number st ] in
            while peek st = Token.COMMA do
              advance st;
              consts := number st :: !consts
            done;
            eat st Token.COLON;
            let body = parse_body st in
            arms := (List.rev !consts, body) :: !arms;
            if peek st = Token.SEMI then begin
              advance st;
              arms_loop ()
            end
            else if peek st = Token.ELSE then arms_loop ()
      in
      arms_loop ();
      eat st Token.END;
      SCase (scrutinee, List.rev !arms, !default)
  | Token.WRITE ->
      advance st;
      eat st Token.LPAREN;
      let args = parse_args st in
      eat st Token.RPAREN;
      SWrite (args, false)
  | Token.WRITELN ->
      advance st;
      let args =
        if peek st = Token.LPAREN then begin
          advance st;
          let a = parse_args st in
          eat st Token.RPAREN;
          a
        end
        else []
      in
      SWrite (args, true)
  | Token.READ ->
      advance st;
      eat st Token.LPAREN;
      let name = ident st in
      let lv = parse_lvalue_rest st (LId name) in
      eat st Token.RPAREN;
      SRead lv
  | Token.IDENT name -> (
      advance st;
      match peek st with
      | Token.LPAREN ->
          advance st;
          let args = parse_args st in
          eat st Token.RPAREN;
          SCall (name, args)
      | Token.ASSIGN | Token.LBRACKET | Token.DOT ->
          let lv = parse_lvalue_rest st (LId name) in
          eat st Token.ASSIGN;
          SAssign (lv, parse_expr_prec st)
      | _ -> SCall (name, []))
  | other -> error st "expected a statement, found %s" (Token.to_string other)

(* A statement body: either one statement or a begin..end compound. *)
and parse_body st =
  if peek st = Token.BEGIN then begin
    advance st;
    let stmts = parse_stmts st in
    eat st Token.END;
    stmts
  end
  else [ parse_stmt st ]

(* Semicolon-separated statements; empty statements are tolerated and a
   compound statement in a sequence splices its contents. *)
and parse_stmts st =
  let stmts = ref [] in
  let rec loop () =
    (match peek st with
    | Token.END | Token.UNTIL | Token.ELSE | Token.EOF -> ()
    | Token.SEMI -> ()
    | Token.BEGIN ->
        advance st;
        let inner = parse_stmts st in
        eat st Token.END;
        stmts := List.rev_append inner !stmts
    | _ -> stmts := parse_stmt st :: !stmts);
    if peek st = Token.SEMI then begin
      advance st;
      loop ()
    end
  in
  loop ();
  List.rev !stmts

(* ---------------- declarations ---------------- *)

let rec parse_block st =
  let decls = ref [] in
  let rec decls_loop () =
    match peek st with
    | Token.CONST ->
        advance st;
        let rec consts () =
          let name = ident st in
          eat st Token.EQ;
          let v = number st in
          eat st Token.SEMI;
          decls := DConst (name, v) :: !decls;
          match peek st with Token.IDENT _ -> consts () | _ -> ()
        in
        consts ();
        decls_loop ()
    | Token.VAR ->
        advance st;
        let rec vars () =
          let names = ref [ ident st ] in
          while peek st = Token.COMMA do
            advance st;
            names := ident st :: !names
          done;
          eat st Token.COLON;
          let ty = parse_ty st in
          eat st Token.SEMI;
          List.iter (fun n -> decls := DVar (n, ty) :: !decls) (List.rev !names);
          match peek st with Token.IDENT _ -> vars () | _ -> ()
        in
        vars ();
        decls_loop ()
    | Token.PROCEDURE | Token.FUNCTION ->
        let is_func = peek st = Token.FUNCTION in
        advance st;
        let name = ident st in
        let params =
          if peek st = Token.LPAREN then begin
            advance st;
            let ps = ref [] in
            let rec params_loop () =
              let by_ref =
                if peek st = Token.VAR then begin
                  advance st;
                  true
                end
                else false
              in
              let names = ref [ ident st ] in
              while peek st = Token.COMMA do
                advance st;
                names := ident st :: !names
              done;
              eat st Token.COLON;
              let ty = parse_ty st in
              List.iter
                (fun n -> ps := { p_name = n; p_ty = ty; p_ref = by_ref } :: !ps)
                (List.rev !names);
              if peek st = Token.SEMI then begin
                advance st;
                params_loop ()
              end
            in
            params_loop ();
            eat st Token.RPAREN;
            List.rev !ps
          end
          else []
        in
        let ret =
          if is_func then begin
            eat st Token.COLON;
            Some (parse_ty st)
          end
          else None
        in
        eat st Token.SEMI;
        let block = parse_block st in
        eat st Token.SEMI;
        decls :=
          DRoutine { r_name = name; r_params = params; r_ret = ret; r_block = block }
          :: !decls;
        decls_loop ()
    | _ -> ()
  in
  decls_loop ();
  eat st Token.BEGIN;
  let body = parse_stmts st in
  eat st Token.END;
  { b_decls = List.rev !decls; b_body = body }

let parse_program src =
  let st = start src in
  eat st Token.PROGRAM;
  let name = ident st in
  eat st Token.SEMI;
  let block = parse_block st in
  eat st Token.DOT;
  eat st Token.EOF;
  { prog_name = name; prog_block = block }

let parse_expr src =
  let st = start src in
  let e = parse_expr_prec st in
  eat st Token.EOF;
  e

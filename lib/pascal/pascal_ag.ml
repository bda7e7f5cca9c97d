open Pag_core
open Pag_util
open Ast
open Ag_dsl

type mode = [ `Base | `Threaded ]

(* ------------------------------------------------------------------ *)
(* Mode compilation: turn production specs into Grammar productions.   *)
(* ------------------------------------------------------------------ *)

(* Nonterminals the label-counter chain threads through in `Threaded mode:
   everything that can contain a label-consuming construct. *)
let threaded_nts =
  [
    "block"; "decls"; "decl"; "rlabel"; "newlab"; "stmts"; "stmt"; "cases";
    "case1"; "optelse"; "args"; "wargs"; "expr"; "lvalue";
  ]

let is_threaded nt = List.mem nt threaded_nts

let compile_spec mode sp =
  let open Grammar in
  let base_rules =
    List.map
      (function
        | R (t, deps, fn) -> rule t ~deps fn
        | RL (t, deps, fn) -> (
            match mode with
            | `Base ->
                rule t ~deps (fun args ->
                    let labels =
                      Array.init sp.sp_labels (fun _ -> Uid.fresh ())
                    in
                    fn ~labels args)
            | `Threaded ->
                rule t
                  ~deps:(lhs "lab_in" :: deps)
                  (fun args ->
                    let base = as_int ~ctx:"lab_in" args.(0) in
                    let labels = Array.init sp.sp_labels (fun i -> base + i) in
                    fn ~labels (Array.sub args 1 (Array.length args - 1)))))
      sp.sp_rules
  in
  let thread_rules =
    if mode <> `Threaded || not (is_threaded sp.sp_lhs) then []
    else begin
      (* chain the counter: this production's own labels first, then each
         threaded child left to right *)
      let children =
        List.mapi (fun i s -> (i + 1, s)) sp.sp_rhs
        |> List.filter (fun (_, s) -> is_threaded s)
      in
      let k = sp.sp_labels in
      match children with
      | [] ->
          [
            rule (lhs "lab_out") ~deps:[ lhs "lab_in" ] (fun a ->
                v_int (as_int ~ctx:"lab" a.(0) + k));
          ]
      | (p1, _) :: rest ->
          let first =
            rule (rhs p1 "lab_in") ~deps:[ lhs "lab_in" ] (fun a ->
                v_int (as_int ~ctx:"lab" a.(0) + k))
          in
          let rec chain prev = function
            | [] -> [ rule (lhs "lab_out") ~deps:[ rhs prev "lab_out" ] id ]
            | (p, _) :: rest ->
                rule (rhs p "lab_in") ~deps:[ rhs prev "lab_out" ] id
                :: chain p rest
          in
          first :: chain p1 rest
    end
  in
  production ~name:sp.sp_name ~lhs:sp.sp_lhs ~rhs:sp.sp_rhs
    (base_rules @ thread_rules)

(* ------------------------------------------------------------------ *)
(* Scope rules shared by block                                         *)
(* ------------------------------------------------------------------ *)

let scope_of args =
  (* args: env, level, params, fname, retty, dlist *)
  let ctx = "scope" in
  let env = Value.as_tab ~ctx args.(0) in
  let level = as_int ~ctx args.(1) in
  let params = plist_of_value ~ctx args.(2) in
  let fname = as_str ~ctx args.(3) in
  let retty = Pvalue.ret_ty_of_value ~ctx args.(4) in
  let rawdecls = rawdecls_of_value ~ctx args.(5) in
  Cg.build_scope ~env ~level ~params ~fname ~retty ~rawdecls

let scope_deps =
  let open Grammar in
  [ lhs "env"; lhs "level"; lhs "params"; lhs "fname"; lhs "retty"; rhs 1 "dlist" ]

(* ------------------------------------------------------------------ *)
(* Structural production specifications                                *)
(* ------------------------------------------------------------------ *)

let aty = Pvalue.as_ty

let structural_specs : prod_spec list =
  let open Grammar in
  [
    (* ---------------- program ---------------- *)
    prod "program" "program" [ "ID"; "block" ]
      ([
         r (rhs 2 "env") [] (fun _ -> Value.Tab Symtab.empty);
         r (rhs 2 "level") [] (fun _ -> v_int 1);
         r (rhs 2 "entry") [] (fun _ -> v_str "_main");
         r (rhs 2 "params") [] (fun _ -> v_list []);
         r (rhs 2 "retty") [] (fun _ -> Value.Unit);
         r (rhs 2 "fname") [] (fun _ -> v_str "");
         r (lhs "code")
           [ rhs 2 "code" ]
           (fun args ->
             let open Vax.Isa in
             code
               (Cg.( ^^ )
                  (Cg.asm [ Pushl (Imm 0); Calls (1, "_main"); Halt ])
                  (as_code ~ctx:"program" args.(0))));
         r (lhs "errs") [ rhs 2 "errs" ] id;
       ]
      (* in `Threaded mode, seed_chain adds block.lab_in = 0 here *)
      );
    (* ---------------- block ---------------- *)
    prod "block" "block" [ "decls"; "stmts" ]
      [
        r (rhs 1 "env") scope_deps (fun args -> Value.Tab (scope_of args).Cg.sc_env);
        r (rhs 1 "level") [ lhs "level" ] id;
        r (rhs 2 "env") scope_deps (fun args -> Value.Tab (scope_of args).Cg.sc_env);
        r (rhs 2 "level") [ lhs "level" ] id;
        r (lhs "code")
          (scope_deps @ [ lhs "entry"; rhs 2 "code"; rhs 1 "code" ])
          (fun args ->
            let sc = scope_of args in
            let entry = as_str ~ctx:"block" args.(6) in
            let body = as_code ~ctx:"block" args.(7) in
            let nested = as_code ~ctx:"block" args.(8) in
            code
              (Cg.( ^^ )
                 (Cg.routine_section ~entry ~frame_bytes:sc.Cg.sc_frame_bytes
                    ~param_copies:sc.Cg.sc_param_copies
                    ~result_offset:sc.Cg.sc_result_offset ~body)
                 nested));
        r (lhs "errs")
          (scope_deps @ [ rhs 1 "errs"; rhs 2 "errs" ])
          (fun args ->
            let sc = scope_of args in
            cat_errs [ errs_v sc.Cg.sc_errs; args.(6); args.(7) ]);
      ];
    (* ---------------- declaration lists ---------------- *)
    prod "decls_nil" "decls" []
      [
        r (lhs "dlist") [] (fun _ -> v_list []);
        r (lhs "code") [] (fun _ -> code Cg.empty);
        r (lhs "errs") [] (fun _ -> v_list []);
      ];
    prod "decls_cons" "decls" [ "decls"; "decl" ]
      (down [ 1; 2 ]
      @ [
          r (lhs "dlist")
            [ rhs 1 "dlist"; rhs 2 "dlist" ]
            (fun args ->
              v_list (as_list ~ctx:"dlist" args.(0) @ as_list ~ctx:"dlist" args.(1)));
          r (lhs "code")
            [ rhs 1 "code"; rhs 2 "code" ]
            (fun args ->
              code
                (Cg.( ^^ )
                   (as_code ~ctx:"decls" args.(0))
                   (as_code ~ctx:"decls" args.(1))));
          errs_up [ 1; 2 ];
        ]);
    (* ---------------- declarations ---------------- *)
    prod "decl_const" "decl" [ "ID"; "NUMT" ]
      [
        r (lhs "dlist")
          [ rhs 1 "name"; rhs 2 "value" ]
          (fun args ->
            v_list
              [
                Pvalue.raw
                  (Pvalue.RConst
                     (as_str ~ctx:"const" args.(0), as_int ~ctx:"const" args.(1)));
              ]);
        r (lhs "code") [] (fun _ -> code Cg.empty);
        r (lhs "errs") [] (fun _ -> v_list []);
      ];
    prod "decl_var" "decl" [ "ID"; "typ" ]
      [
        r (lhs "dlist")
          [ rhs 1 "name"; rhs 2 "ty" ]
          (fun args ->
            v_list
              [
                Pvalue.raw
                  (Pvalue.RVar (as_str ~ctx:"var" args.(0), aty ~ctx:"var" args.(1)));
              ]);
        r (lhs "code") [] (fun _ -> code Cg.empty);
        r (lhs "errs") [] (fun _ -> v_list []);
      ];
    prod "decl_proc" "decl" [ "ID"; "rlabel"; "params"; "block" ]
      [
        r (lhs "dlist")
          [ rhs 1 "name"; rhs 2 "lab"; rhs 3 "plist" ]
          (fun args ->
            v_list
              [
                Pvalue.raw
                  (Pvalue.RRoutine
                     ( as_str ~ctx:"proc" args.(0),
                       as_str ~ctx:"proc" args.(1),
                       psig_of_plist (plist_of_value ~ctx:"proc" args.(2)),
                       None ));
              ]);
        r (rhs 4 "env") [ lhs "env" ] id;
        r (rhs 4 "level") [ lhs "level" ] (fun args ->
            v_int (as_int ~ctx:"proc" args.(0) + 1));
        r (rhs 4 "entry") [ rhs 2 "lab" ] id;
        r (rhs 4 "params") [ rhs 3 "plist" ] id;
        r (rhs 4 "retty") [] (fun _ -> Value.Unit);
        r (rhs 4 "fname") [ rhs 1 "name" ] id;
        r (lhs "code") [ rhs 4 "code" ] id;
        r (lhs "errs") [ rhs 4 "errs" ] id;
      ];
    prod "decl_func" "decl" [ "ID"; "rlabel"; "params"; "typ"; "block" ]
      [
        r (lhs "dlist")
          [ rhs 1 "name"; rhs 2 "lab"; rhs 3 "plist"; rhs 4 "ty" ]
          (fun args ->
            v_list
              [
                Pvalue.raw
                  (Pvalue.RRoutine
                     ( as_str ~ctx:"func" args.(0),
                       as_str ~ctx:"func" args.(1),
                       psig_of_plist (plist_of_value ~ctx:"func" args.(2)),
                       Some (aty ~ctx:"func" args.(3)) ));
              ]);
        r (rhs 5 "env") [ lhs "env" ] id;
        r (rhs 5 "level") [ lhs "level" ] (fun args ->
            v_int (as_int ~ctx:"func" args.(0) + 1));
        r (rhs 5 "entry") [ rhs 2 "lab" ] id;
        r (rhs 5 "params") [ rhs 3 "plist" ] id;
        r (rhs 5 "retty") [ rhs 4 "ty" ] id;
        r (rhs 5 "fname") [ rhs 1 "name" ] id;
        r (lhs "code") [ rhs 5 "code" ] id;
        r (lhs "errs")
          [ rhs 5 "errs"; rhs 4 "ty"; rhs 1 "name" ]
          (fun args ->
            let t = aty ~ctx:"func" args.(1) in
            let extra =
              if Ast.is_scalar t then []
              else
                [
                  Printf.sprintf "function %s must return a scalar"
                    (as_str ~ctx:"func" args.(2));
                ]
            in
            cat_errs [ args.(0); errs_v extra ]);
      ];
    (* Label-generating empty productions. *)
    prod ~labels:1 "rlabel" "rlabel" []
      [ rl (lhs "lab") [] (fun ~labels _ -> v_str (Cg.plab labels.(0))) ];
    prod ~labels:1 "newlab" "newlab" []
      [ rl (lhs "lab") [] (fun ~labels _ -> v_str (Cg.lab labels.(0))) ];
    (* ---------------- parameters ---------------- *)
    prod "params_nil" "params" [] [ r (lhs "plist") [] (fun _ -> v_list []) ];
    prod "params_cons" "params" [ "params"; "param" ]
      [
        r (lhs "plist")
          [ rhs 1 "plist"; rhs 2 "pinfo" ]
          (fun args -> v_list (as_list ~ctx:"params" args.(0) @ [ args.(1) ]));
      ];
    prod "param_val" "param" [ "ID"; "typ" ]
      [
        r (lhs "pinfo")
          [ rhs 1 "name"; rhs 2 "ty" ]
          (fun args -> Value.Pair (args.(0), Value.Pair (args.(1), Value.Bool false)));
      ];
    prod "param_ref" "param" [ "ID"; "typ" ]
      [
        r (lhs "pinfo")
          [ rhs 1 "name"; rhs 2 "ty" ]
          (fun args -> Value.Pair (args.(0), Value.Pair (args.(1), Value.Bool true)));
      ];
    (* ---------------- types ---------------- *)
    prod "ty_int" "typ" [] [ r (lhs "ty") [] (fun _ -> Pvalue.ty TInt) ];
    prod "ty_bool" "typ" [] [ r (lhs "ty") [] (fun _ -> Pvalue.ty TBool) ];
    prod "ty_char" "typ" [] [ r (lhs "ty") [] (fun _ -> Pvalue.ty TChar) ];
    prod "ty_array" "typ" [ "NUMT"; "NUMT"; "typ" ]
      [
        r (lhs "ty")
          [ rhs 1 "value"; rhs 2 "value"; rhs 3 "ty" ]
          (fun args ->
            Pvalue.ty
              (TArray
                 ( as_int ~ctx:"array" args.(0),
                   as_int ~ctx:"array" args.(1),
                   aty ~ctx:"array" args.(2) )));
      ];
    prod "ty_record" "typ" [ "fields" ]
      [
        r (lhs "ty")
          [ rhs 1 "flist" ]
          (fun args ->
            Pvalue.ty
              (TRecord
                 (List.map
                    (fun f ->
                      let n, t = Value.as_pair ~ctx:"record" f in
                      (as_str ~ctx:"record" n, aty ~ctx:"record" t))
                    (as_list ~ctx:"record" args.(0)))));
      ];
    prod "fields_nil" "fields" [] [ r (lhs "flist") [] (fun _ -> v_list []) ];
    prod "fields_cons" "fields" [ "fields"; "field" ]
      [
        r (lhs "flist")
          [ rhs 1 "flist"; rhs 2 "finfo" ]
          (fun args -> v_list (as_list ~ctx:"fields" args.(0) @ [ args.(1) ]));
      ];
    prod "field" "field" [ "ID"; "typ" ]
      [
        r (lhs "finfo")
          [ rhs 1 "name"; rhs 2 "ty" ]
          (fun args -> Value.Pair (args.(0), args.(1)));
      ];
    (* ---------------- statement lists ---------------- *)
    prod "stmts_nil" "stmts" []
      [
        r (lhs "code") [] (fun _ -> code Cg.empty);
        r (lhs "errs") [] (fun _ -> v_list []);
      ];
    prod "stmts_cons" "stmts" [ "stmts"; "stmt" ]
      (down [ 1; 2 ]
      @ [
          r (lhs "code")
            [ rhs 1 "code"; rhs 2 "code" ]
            (fun args ->
              code
                (Cg.( ^^ )
                   (as_code ~ctx:"stmts" args.(0))
                   (as_code ~ctx:"stmts" args.(1))));
          errs_up [ 1; 2 ];
        ]);
  ]

let specs = structural_specs @ Stmt_rules.specs @ Expr_rules.specs

(* In `Threaded mode the start production seeds the chain: the program's
   block gets lab_in = 0. *)
let seed_chain mode prods =
  match mode with
  | `Base -> prods
  | `Threaded ->
      List.map
        (fun (p : Grammar.production) ->
          if p.Grammar.p_name = "program" then
            let open Grammar in
            production ~name:p.p_name ~lhs:p.p_lhs
              ~rhs:(Array.to_list p.p_rhs)
              (Array.to_list p.p_rules
              @ [ rule (rhs 2 "lab_in") ~deps:[] (fun _ -> v_int 0) ])
          else p)
        prods

(* ------------------------------------------------------------------ *)
(* Symbols                                                             *)
(* ------------------------------------------------------------------ *)

let symbols mode =
  let open Grammar in
  let t = if mode = `Threaded then [ inh "lab_in"; syn "lab_out" ] else [] in
  let tif name attrs = if is_threaded name then attrs @ t else attrs in
  let envlev = [ inh ~priority:true "env"; inh "level" ] in
  [
    terminal "ID" [ "name" ];
    terminal "NUMT" [ "value" ];
    terminal "CHART" [ "value" ];
    nonterminal "program" [ syn "code"; syn "errs" ];
    nonterminal "block"
      (tif "block"
         (envlev
         @ [
             inh "entry"; inh "params"; inh "retty"; inh "fname"; syn "code";
             syn "errs";
           ]));
    nonterminal ~split:512 "decls"
      (tif "decls" (envlev @ [ syn "dlist"; syn "code"; syn "errs" ]));
    nonterminal ~split:512 "decl"
      (tif "decl" (envlev @ [ syn "dlist"; syn "code"; syn "errs" ]));
    nonterminal "rlabel" (tif "rlabel" [ syn "lab" ]);
    nonterminal "newlab" (tif "newlab" [ syn "lab" ]);
    nonterminal "params" [ syn "plist" ];
    nonterminal "param" [ syn "pinfo" ];
    nonterminal "typ" [ syn "ty" ];
    nonterminal "fields" [ syn "flist" ];
    nonterminal "field" [ syn "finfo" ];
    nonterminal ~split:512 "stmts"
      (tif "stmts" (envlev @ [ syn "code"; syn "errs" ]));
    nonterminal ~split:512 "stmt"
      (tif "stmt" (envlev @ [ syn "code"; syn "errs" ]));
    nonterminal "cases"
      (tif "cases"
         (envlev @ [ inh "endlab"; syn "dispatch"; syn "bodies"; syn "errs" ]));
    nonterminal "case1"
      (tif "case1"
         (envlev @ [ inh "endlab"; syn "dispatch"; syn "bodies"; syn "errs" ]));
    nonterminal "optelse" (tif "optelse" (envlev @ [ syn "code"; syn "errs" ]));
    nonterminal "consts" [ inh "armlab"; syn "code" ];
    nonterminal "args"
      (tif "args" (envlev @ [ inh "psig"; syn "code"; syn "tys"; syn "errs" ]));
    nonterminal "wargs" (tif "wargs" (envlev @ [ syn "code"; syn "errs" ]));
    nonterminal "expr"
      (tif "expr" (envlev @ [ syn "ty"; syn "code"; syn "addr"; syn "errs" ]));
    nonterminal "lvalue"
      (tif "lvalue"
         (envlev
         @ [ syn "ty"; syn "acode"; syn "vcode"; syn "writable"; syn "errs" ]));
  ]

let make mode =
  let prods = seed_chain mode (List.map (compile_spec mode) specs) in
  Grammar.make
    ~name:(match mode with `Base -> "pascal" | `Threaded -> "pascal-threaded")
    ~start:"program" (symbols mode) prods

let grammar = make `Base

let grammar_threaded = make `Threaded

(* ------------------------------------------------------------------ *)
(* AST -> attribute-grammar tree                                       *)
(* ------------------------------------------------------------------ *)

(* Each production is resolved once per call, and every leaf of one
   identifier or one integer shares its attribute value. *)
let tree_of_program g (p : Ast.program) =
  let r = Tree.resolve g and node = Tree.build in
  let shared tbl make key =
    match Hashtbl.find tbl key with
    | v -> v
    | exception Not_found ->
        let v = [ make key ] in
        Hashtbl.add tbl key v;
        v
  in
  let names = Hashtbl.create 256 and ints = Hashtbl.create 64 in
  let id_t = Tree.terminal g "ID" [ "name" ] in
  let num_t = Tree.terminal g "NUMT" [ "value" ] in
  let char_t = Tree.terminal g "CHART" [ "value" ] in
  let id_leaf name = Tree.leaf_of id_t (shared names v_str name) in
  let num_leaf v = Tree.leaf_of num_t (shared ints v_int v) in
  let char_leaf c = Tree.leaf_of char_t (shared ints v_int (Char.code c)) in
  let ty_int = r "ty_int" and ty_bool = r "ty_bool" and ty_char = r "ty_char"
  and ty_array = r "ty_array" and ty_record = r "ty_record" in
  let fields_nil = r "fields_nil" and fields_cons = r "fields_cons"
  and field = r "field" in
  let rec typ_tree = function
    | TInt -> node ty_int [||]
    | TBool -> node ty_bool [||]
    | TChar -> node ty_char [||]
    | TArray (lo, hi, e) ->
        node ty_array [| num_leaf lo; num_leaf hi; typ_tree e |]
    | TRecord fs ->
        let fields =
          List.fold_left
            (fun acc (n, t) ->
              node fields_cons [| acc; node field [| id_leaf n; typ_tree t |] |])
            (node fields_nil [||]) fs
        in
        node ty_record [| fields |]
  in
  let lv_id = r "lv_id" and lv_index = r "lv_index" and lv_field = r "lv_field" in
  let e_int = r "e_int" and e_true = r "e_true" and e_false = r "e_false"
  and e_char = r "e_char" and e_lval = r "e_lval" and e_neg = r "e_neg"
  and e_not = r "e_not" and e_call = r "e_call" in
  let e_add = r "e_add" and e_sub = r "e_sub" and e_mul = r "e_mul"
  and e_div = r "e_div" and e_mod = r "e_mod" and e_and = r "e_and"
  and e_or = r "e_or" and e_eq = r "e_eq" and e_ne = r "e_ne" and e_lt = r "e_lt"
  and e_le = r "e_le" and e_gt = r "e_gt" and e_ge = r "e_ge" in
  let args_nil = r "args_nil" and args_cons = r "args_cons" in
  let rec lvalue_tree = function
    | LId n -> node lv_id [| id_leaf n |]
    | LIndex (b, e) -> node lv_index [| lvalue_tree b; expr_tree e |]
    | LField (b, f) -> node lv_field [| lvalue_tree b; id_leaf f |]
  and expr_tree = function
    | EInt n -> node e_int [| num_leaf n |]
    | EBool true -> node e_true [||]
    | EBool false -> node e_false [||]
    | EChar c -> node e_char [| char_leaf c |]
    | ELval lv -> node e_lval [| lvalue_tree lv |]
    | EBin (op, a, b) ->
        let prod =
          match op with
          | Add -> e_add
          | Sub -> e_sub
          | Mul -> e_mul
          | Div -> e_div
          | Mod -> e_mod
          | And -> e_and
          | Or -> e_or
          | Eq -> e_eq
          | Ne -> e_ne
          | Lt -> e_lt
          | Le -> e_le
          | Gt -> e_gt
          | Ge -> e_ge
        in
        node prod [| expr_tree a; expr_tree b |]
    | EUn (Neg, e) -> node e_neg [| expr_tree e |]
    | EUn (Not, e) -> node e_not [| expr_tree e |]
    | ECall (f, args) -> node e_call [| id_leaf f; args_tree args |]
  and args_tree = function
    | [] -> node args_nil [||]
    | e :: rest -> node args_cons [| expr_tree e; args_tree rest |]
  in
  let wargs_nil = r "wargs_nil" and wargs_cons = r "wargs_cons" in
  let wargs_tree args =
    List.fold_right
      (fun e acc -> node wargs_cons [| expr_tree e; acc |])
      args (node wargs_nil [||])
  in
  let stmts_nil = r "stmts_nil" and stmts_cons = r "stmts_cons" in
  let s_assign = r "s_assign" and s_if = r "s_if" and s_while = r "s_while"
  and s_repeat = r "s_repeat" and s_for_up = r "s_for_up"
  and s_for_down = r "s_for_down" and s_case = r "s_case" and s_call = r "s_call"
  and s_write = r "s_write" and s_writeln = r "s_writeln" and s_read = r "s_read" in
  let cases_nil = r "cases_nil" and cases_cons = r "cases_cons"
  and case1 = r "case1" and newlab = r "newlab" and consts_one = r "consts_one"
  and consts_cons = r "consts_cons" and optelse_none = r "optelse_none"
  and optelse_some = r "optelse_some" in
  let rec stmts_tree stmts =
    List.fold_left
      (fun acc s -> node stmts_cons [| acc; stmt_tree s |])
      (node stmts_nil [||]) stmts
  and stmt_tree = function
    | SAssign (lv, e) -> node s_assign [| lvalue_tree lv; expr_tree e |]
    | SIf (c, t, e) -> node s_if [| expr_tree c; stmts_tree t; stmts_tree e |]
    | SWhile (c, body) -> node s_while [| expr_tree c; stmts_tree body |]
    | SRepeat (body, c) -> node s_repeat [| stmts_tree body; expr_tree c |]
    | SFor (v, e1, up, e2, body) ->
        node
          (if up then s_for_up else s_for_down)
          [| id_leaf v; expr_tree e1; expr_tree e2; stmts_tree body |]
    | SCase (e, arms, default) ->
        let cases =
          List.fold_left
            (fun acc (consts, body) ->
              let ctree =
                match consts with
                | [] -> invalid_arg "case arm with no constants"
                | c0 :: rest ->
                    List.fold_left
                      (fun a c -> node consts_cons [| a; num_leaf c |])
                      (node consts_one [| num_leaf c0 |])
                      rest
              in
              node cases_cons
                [| acc; node case1 [| node newlab [||]; ctree; stmts_tree body |] |])
            (node cases_nil [||]) arms
        in
        let optelse =
          match default with
          | None -> node optelse_none [||]
          | Some body -> node optelse_some [| stmts_tree body |]
        in
        node s_case [| node newlab [||]; expr_tree e; cases; optelse |]
    | SCall (f, args) -> node s_call [| id_leaf f; args_tree args |]
    | SWrite (args, false) -> node s_write [| wargs_tree args |]
    | SWrite (args, true) -> node s_writeln [| wargs_tree args |]
    | SRead lv -> node s_read [| lvalue_tree lv |]
  in
  let decls_nil = r "decls_nil" and decls_cons = r "decls_cons"
  and block = r "block" and decl_const = r "decl_const" and decl_var = r "decl_var"
  and decl_proc = r "decl_proc" and decl_func = r "decl_func"
  and rlabel = r "rlabel" and params_nil = r "params_nil"
  and params_cons = r "params_cons" and param_ref = r "param_ref"
  and param_val = r "param_val" in
  let rec block_tree (b : Ast.block) =
    let decls =
      List.fold_left
        (fun acc d -> node decls_cons [| acc; decl_tree d |])
        (node decls_nil [||]) b.b_decls
    in
    node block [| decls; stmts_tree b.b_body |]
  and decl_tree = function
    | DConst (n, v) -> node decl_const [| id_leaf n; num_leaf v |]
    | DVar (n, t) -> node decl_var [| id_leaf n; typ_tree t |]
    | DRoutine rt ->
        let params =
          List.fold_left
            (fun acc (p : Ast.param) ->
              node params_cons
                [|
                  acc;
                  node
                    (if p.p_ref then param_ref else param_val)
                    [| id_leaf p.p_name; typ_tree p.p_ty |];
                |])
            (node params_nil [||]) rt.r_params
        in
        (match rt.r_ret with
        | None ->
            node decl_proc
              [| id_leaf rt.r_name; node rlabel [||]; params; block_tree rt.r_block |]
        | Some t ->
            node decl_func
              [|
                id_leaf rt.r_name; node rlabel [||]; params; typ_tree t;
                block_tree rt.r_block;
              |])
  in
  node (r "program") [| id_leaf p.prog_name; block_tree p.prog_block |]

let code_of_attrs attrs =
  match List.assoc_opt "code" attrs with
  | Some v -> Rope.to_string (Codestr.to_rope (Cg.of_value ~ctx:"code" v))
  | None -> ""

let errors_of_attrs attrs =
  match List.assoc_opt "errs" attrs with
  | Some v -> as_errs ~ctx:"errs" v
  | None -> []

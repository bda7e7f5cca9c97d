open Pag_core
open Spec_ast

exception Error of string

exception Scan_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type t = {
  c_spec : Spec_ast.t;
  c_grammar : Grammar.t;
  c_tables : Lrgen.Lalr.tables;
  c_plan : Pag_analysis.Kastens.plan option;
  c_prod_names : (string, string) Hashtbl.t; (* cfg prod name -> ag prod name *)
}

(* ---------------- semantic expressions ---------------- *)

(* Dependencies of an expression: attribute references in occurrence order,
   deduplicated. *)
let deps_of_expr e =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let rec go = function
    | SAttr (pos, attr) ->
        if not (Hashtbl.mem seen (pos, attr)) then begin
          Hashtbl.add seen (pos, attr) ();
          out := (pos, attr) :: !out
        end
    | SInt _ | SStr _ -> ()
    | SCall (_, args) -> List.iter go args
  in
  go e;
  List.rev !out

(* Calls are resolved here, once per rule: an unknown function or a wrong
   argument count is an error naming the production [prod], and a firing
   does no name lookup. *)
let compile_expr ~prod e =
  (* args arrive in deps_of_expr order *)
  let deps = deps_of_expr e in
  let index = Hashtbl.create 8 in
  List.iteri (fun i d -> Hashtbl.add index d i) deps;
  let rec comp = function
    | SAttr (pos, attr) ->
        let i = Hashtbl.find index (pos, attr) in
        fun (args : Value.t array) -> args.(i)
    | SInt n -> fun _ -> Value.Int n
    | SStr s -> fun _ -> Value.str s
    | SCall (f, es) -> (
        match Primitives.find f with
        | None -> error "production %s: unknown function %s" prod f
        | Some (k, fn) ->
            if List.length es <> k then
              error "production %s: %s expects %d arguments, got %d" prod f k
                (List.length es);
            let cs = Array.of_list (List.map comp es) in
            fun args -> fn (Array.map (fun c -> c args) cs))
  in
  (deps, comp e)

(* ---------------- grammar construction ---------------- *)

let translator spec =
  (* symbols *)
  let terminals =
    List.map
      (fun ns -> Grammar.terminal ns.n_term [ ns.n_attr ])
      spec.s_names
    @ List.map (fun kw -> Grammar.terminal kw.k_term []) spec.s_keywords
  in
  let nonterminals =
    List.map
      (fun nt ->
        let attrs =
          List.map
            (fun a ->
              if a.a_inherited then Grammar.inh ~priority:a.a_priority a.a_name
              else Grammar.syn ~priority:a.a_priority a.a_name)
            nt.nt_attrs
        in
        Grammar.nonterminal ?split:nt.nt_split nt.nt_name attrs)
      spec.s_nts
  in
  (* productions with unique names lhs#k *)
  let counts = Hashtbl.create 16 in
  let prod_name lhs =
    let k = Option.value ~default:0 (Hashtbl.find_opt counts lhs) in
    Hashtbl.replace counts lhs (k + 1);
    Printf.sprintf "%s#%d" lhs k
  in
  let ag_prods =
    List.map
      (fun p ->
        let name = prod_name p.p_lhs in
        let rules =
          List.map
            (fun r ->
              let deps, fn =
                compile_expr
                  ~prod:(String.concat " " ((p.p_lhs ^ " ->") :: p.p_rhs))
                  r.r_expr
              in
              let target =
                if r.r_pos = 0 then Grammar.lhs r.r_attr
                else Grammar.rhs r.r_pos r.r_attr
              in
              let deps =
                List.map
                  (fun (pos, attr) ->
                    if pos = 0 then Grammar.lhs attr else Grammar.rhs pos attr)
                  deps
              in
              Grammar.rule target ~deps fn)
            p.p_rules
        in
        (name, Grammar.production ~name ~lhs:p.p_lhs ~rhs:p.p_rhs rules))
      spec.s_prods
  in
  let grammar =
    try
      Grammar.make ~name:"agspec" ~start:spec.s_start
        (terminals @ nonterminals)
        (List.map snd ag_prods)
    with Grammar.Error msg -> error "invalid attribute grammar: %s" msg
  in
  (* parser tables *)
  let cfg_prods =
    List.map
      (fun (name, (p : Grammar.production)) ->
        {
          Lrgen.Cfg.cp_name = name;
          cp_lhs = p.Grammar.p_lhs;
          cp_rhs = Array.to_list p.Grammar.p_rhs;
          cp_prec = None;
        })
      ag_prods
  in
  let prec =
    List.map
      (fun (a, ts) ->
        ( (match a with
          | Left -> Lrgen.Cfg.Left
          | Right -> Lrgen.Cfg.Right
          | Nonassoc -> Lrgen.Cfg.Nonassoc),
          ts ))
      spec.s_prec
  in
  let cfg =
    try
      Lrgen.Cfg.make
        ~terminals:
          (List.map (fun ns -> ns.n_term) spec.s_names
          @ List.map (fun kw -> kw.k_term) spec.s_keywords)
        ~start:spec.s_start ~prec cfg_prods
    with Lrgen.Cfg.Error msg -> error "invalid grammar: %s" msg
  in
  let tables = Lrgen.Lalr.build cfg in
  let plan =
    match Pag_analysis.Kastens.analyze grammar with
    | Ok p -> Some p
    | Error _ -> None
  in
  let c_prod_names = Hashtbl.create 16 in
  List.iter (fun (n, _) -> Hashtbl.replace c_prod_names n n) ag_prods;
  { c_spec = spec; c_grammar = grammar; c_tables = tables; c_plan = plan; c_prod_names }

let grammar t = t.c_grammar

let tables t = t.c_tables

let plan t = t.c_plan

(* ---------------- scanner ---------------- *)

(* Generic scanner driven by the %name/%keyword declarations: longest-match
   keywords (so "<=" beats "<"), identifiers, decimal numbers. An error
   names the character offset where its token starts. *)
let scan_error at fmt =
  Printf.ksprintf
    (fun s -> raise (Scan_error (Printf.sprintf "character %d: %s" at s)))
    fmt

let scan spec src =
  let kws =
    List.sort
      (fun a b -> compare (String.length b.k_text) (String.length a.k_text))
      spec.s_keywords
  in
  let ident_term =
    List.find_opt (fun ns -> ns.n_class = Ident) spec.s_names
  in
  let number_term =
    List.find_opt (fun ns -> ns.n_class = Number) spec.s_names
  in
  let n = String.length src in
  let out = ref [] in
  let i = ref 0 in
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_digit c = c >= '0' && c <= '9' in
  let starts_with text =
    String.length text > 0
    && !i + String.length text <= n
    && String.sub src !i (String.length text) = text
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else begin
      (* keywords first (longest match); word-like keywords must not steal a
         prefix of a longer identifier *)
      let kw =
        List.find_opt
          (fun kw ->
            starts_with kw.k_text
            && not
                 (is_alpha kw.k_text.[0]
                 && !i + String.length kw.k_text < n
                 && (is_alpha src.[!i + String.length kw.k_text]
                    || is_digit src.[!i + String.length kw.k_text])))
          kws
      in
      match kw with
      | Some kw ->
          out := (kw.k_term, None) :: !out;
          i := !i + String.length kw.k_text
      | None ->
          if is_digit c then begin
            let start = !i in
            while !i < n && is_digit src.[!i] do
              incr i
            done;
            let text = String.sub src start (!i - start) in
            match (number_term, int_of_string_opt text) with
            | Some ns, Some n ->
                out := (ns.n_term, Some (ns.n_attr, Value.Int n)) :: !out
            | Some _, None ->
                scan_error start "integer literal %s out of range" text
            | None, _ -> scan_error start "no %%name number terminal declared"
          end
          else if is_alpha c then begin
            let start = !i in
            while !i < n && (is_alpha src.[!i] || is_digit src.[!i]) do
              incr i
            done;
            match ident_term with
            | Some ns ->
                out :=
                  ( ns.n_term,
                    Some (ns.n_attr, Value.str (String.sub src start (!i - start))) )
                  :: !out
            | None -> scan_error start "no %%name ident terminal declared"
          end
          else scan_error !i "unexpected character %C" c
    end
  done;
  List.rev !out

let parse t src =
  let tokens = scan t.c_spec src in
  try
    Lrgen.Engine.parse t.c_tables
      ~shift:(fun term payload ->
        match payload with
        | Some (attr, v) -> Tree.leaf t.c_grammar term [ (attr, v) ]
        | None -> Tree.leaf t.c_grammar term [])
      ~reduce:(fun prod children -> Tree.node t.c_grammar prod.Lrgen.Cfg.cp_name children)
      tokens
  with Lrgen.Engine.Syntax_error { position; token; expected } ->
    error "syntax error at token %d (%s); expected one of: %s" position token
      (String.concat ", " expected)

let evaluate t tree =
  let store =
    match t.c_plan with
    | Some plan ->
        let store, _ = Pag_eval.Static_eval.eval plan tree in
        store
    | None ->
        let store, _ = Pag_eval.Dynamic.eval t.c_grammar tree in
        store
  in
  Pag_eval.Store.root_attrs store

let evaluate_parallel t opts tree =
  match t.c_plan with
  | Some plan -> Pag_parallel.Runner.run_sim opts t.c_grammar (Some plan) tree
  | None ->
      (* without a plan the classic protocol runs all-dynamic *)
      let schedule =
        match opts.Pag_parallel.Runner.schedule with
        | `Steal -> `Steal
        | `Static | `Dynamic -> `Dynamic
      in
      Pag_parallel.Runner.run_sim { opts with schedule } t.c_grammar None tree

let diagnostic = function
  | Spec_parser.Error (line, msg) ->
      Some (Printf.sprintf "spec:%d: %s" line msg)
  | Scan_error msg -> Some ("scan error: " ^ msg)
  | Error msg
  | Grammar.Error msg
  | Primitives.Runtime_error msg
  | Value.Type_error msg
  | Pag_eval.Engine.Cycle msg ->
      Some ("error: " ^ msg)
  | _ -> None

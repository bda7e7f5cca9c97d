open Pag_analysis
open Pag_eval
open Pag_parallel

type compiled = { c_asm : string; c_errors : string list }

exception Compile_error of string

let analyze g =
  match Kastens.analyze g with
  | Ok p -> p
  | Error f ->
      raise
        (Compile_error (Format.asprintf "grammar analysis failed: %a" Kastens.pp_failure f))

let plan = lazy (analyze Pascal_ag.grammar)

let plan_threaded = lazy (analyze Pascal_ag.grammar_threaded)

let phase_label = function
  | 1 -> Some "symbol table"
  | 2 -> Some "code generation"
  | _ -> None

let compiled_of_attrs attrs =
  {
    c_asm = Pascal_ag.code_of_attrs attrs;
    c_errors = Pascal_ag.errors_of_attrs attrs;
  }

let compile ?obs ?dag ?dag_out ?prov ?engine_out ?tree_out
    ?(evaluator = `Static) prog =
  let tree =
    match obs with
    | Some x when Pag_obs.Obs.ctx_enabled x ->
        Pag_obs.Obs.with_span x "parse+build" (fun () ->
            Pascal_ag.tree_of_program Pascal_ag.grammar prog)
    | _ -> Pascal_ag.tree_of_program Pascal_ag.grammar prog
  in
  Option.iter (fun f -> f tree) tree_out;
  let store =
    match evaluator with
    | `Static ->
        let store, _ =
          Static_eval.eval ?obs ?dag ?prov ?engine_out (Lazy.force plan) tree
        in
        store
    | `Dynamic ->
        let store, _ =
          Dynamic.eval ?obs ?dag ?dag_out ?prov ?engine_out Pascal_ag.grammar
            tree
        in
        store
    | `Oracle -> Oracle.eval Pascal_ag.grammar tree
  in
  compiled_of_attrs (Store.root_attrs store)

let compile_source src = compile (Parser.parse_program src)

let grammar_of = function
  | `Base -> (Pascal_ag.grammar, Lazy.force plan)
  | `Threaded -> (Pascal_ag.grammar_threaded, Lazy.force plan_threaded)

let compile_parallel_sim ?(variant = `Base) opts prog =
  let g, pl = grammar_of variant in
  let tree = Pascal_ag.tree_of_program g prog in
  let opts = { opts with Runner.phase_label } in
  let result = Runner.run_sim opts g (Some pl) tree in
  (result, compiled_of_attrs result.Runner.r_attrs)

let compile_parallel_domains ?(variant = `Base) opts prog =
  let g, pl = grammar_of variant in
  let tree = Pascal_ag.tree_of_program g prog in
  let opts = { opts with Runner.phase_label } in
  let result = Runner.run_domains opts g (Some pl) tree in
  (result, compiled_of_attrs result.Runner.r_attrs)

let optimize c = { c with c_asm = Peephole.optimize_text c.c_asm }

(* Label numbers (L<n>, P<n>) depend on rule firing order, which differs
   between evaluators; the instruction sequence is determined by the tree
   alone.  Masking every label token (definitions and references alike)
   yields text that is comparable across evaluators and edit sessions. *)
let mask_labels s =
  let n = String.length s in
  let buf = Buffer.create n in
  let is_digit c = c >= '0' && c <= '9' in
  let is_word c =
    (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || is_digit c || c = '_'
  in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if
      (c = 'L' || c = 'P')
      && !i + 1 < n
      && is_digit s.[!i + 1]
      && (!i = 0 || not (is_word s.[!i - 1]))
    then begin
      Buffer.add_char buf c;
      Buffer.add_char buf '_';
      incr i;
      while !i < n && is_digit s.[!i] do
        incr i
      done
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

let run_compiled ?fuel ?input c =
  if c.c_errors <> [] then
    raise
      (Compile_error
         ("program has semantic errors: " ^ String.concat "; " c.c_errors));
  match Vax.Machine.run_text ?fuel ?input c.c_asm with
  | Ok o -> Ok o.Vax.Machine.output
  | Error e -> Error (Vax.Machine.error_to_string e)

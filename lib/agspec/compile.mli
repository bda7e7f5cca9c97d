(** Compile a specification into a runnable translator: an attribute grammar
    for the evaluators (sequential, ordered, and parallel) plus an LALR(1)
    parser and a scanner — everything the paper's compiler generator
    produces from one input.

    The appendix workflow:
    {[
      let t = Compile.translator (Spec_parser.parse_file "expr.ag") in
      let tree = Compile.parse t "let x = 2 in 1 + 2 * x ni" in
      let attrs = Compile.evaluate t tree in
      (* attrs = [("value", Int 5)] *)
    ]} *)

open Pag_core

exception Error of string

type t

(** Raises {!Error} when the specification is not a valid attribute
    grammar or LALR input, or when a semantic rule calls a function that
    {!Primitives} does not define or passes it the wrong number of
    arguments (the message names the function and the production). *)
val translator : Spec_ast.t -> t

val grammar : t -> Grammar.t

val tables : t -> Lrgen.Lalr.tables

(** Kastens plan, when the grammar is ordered. *)
val plan : t -> Pag_analysis.Kastens.plan option

(** Scan and parse a sentence into an attribute-grammar parse tree. Raises
    {!Scan_error} on a character no token starts with or an integer
    literal out of range, naming the character offset, and {!Error} on a
    syntax error. *)
val parse : t -> string -> Tree.t

exception Scan_error of string

(** Evaluate a tree (static evaluator when the grammar is ordered, dynamic
    otherwise) and return the root's synthesized attributes. A semantic
    function that fails raises {!Primitives.Runtime_error} (an unbound
    identifier) or {!Pag_core.Value.Type_error} (an argument of the wrong
    type); a circular tree raises {!Pag_eval.Engine.Cycle}. *)
val evaluate : t -> Tree.t -> (string * Value.t) list

(** Parallel evaluation on the simulated multiprocessor; it raises what
    {!evaluate} raises. *)
val evaluate_parallel :
  t -> Pag_parallel.Runner.options -> Tree.t -> Pag_parallel.Runner.result

(** [diagnostic exn] is the one-line report of an exception that reading,
    translating, scanning, parsing or evaluating raises by design:
    [spec:LINE: ...] for a {!Spec_parser.Error}, [scan error: ...], or
    [error: ...] for the others above and {!Pag_core.Grammar.Error}.
    [None] for any other exception. *)
val diagnostic : exn -> string option

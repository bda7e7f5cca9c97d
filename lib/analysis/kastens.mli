(** Kastens' ordered-attribute-grammar analysis (Acta Informatica 13, 1980),
    the static evaluation method the paper uses (section 2.3).

    The analysis runs once per grammar, at generation time:

    + compute induced dependencies: the fixpoint of projecting transitively
      closed per-production graphs onto symbols (IDS) and re-injecting them
      into the productions (IDP). A cycle here means the grammar is not
      absolutely noncircular — reported as {!Circular}.
    + partition each symbol's attributes into an alternating sequence of
      inherited/synthesized sets, peeled from the back of the induced symbol
      graph. Visit [v] of a node consumes the inherited partition [I_v] and
      produces the synthesized partition [S_v].
    + linearize each production's rules and child visits into one {b visit
      sequence} per left-hand-side visit, by topologically sorting an action
      graph. Failure means the grammar is not ordered — {!Not_ordered} — and
      callers should fall back to dynamic evaluation (the paper notes dynamic
      evaluators accept a wider class of grammars).

    The resulting {!plan} is everything the static evaluator interprets at
    run time, with no dependency analysis per tree. *)

open Pag_core

(** One step of a visit sequence: evaluate the [i]-th semantic rule of the
    production, or perform visit number [visit] (1-based) of the [child]-th
    right-hand-side symbol (0-based). *)
type instr = Eval of int | Visit of { child : int; visit : int }

type plan

type failure =
  | Circular of string  (** grammar is not absolutely noncircular *)
  | Not_ordered of string  (** partitions exist but no visit sequence does *)

val analyze : Grammar.t -> (plan, failure) result

(** The induced dependencies (IDS) {!analyze} partitions: for each symbol
    id, whether its attribute [b] depends on its attribute [a] (indices). *)
val induced : Grammar.t -> ((int -> int -> bool) array, failure) result

val grammar : plan -> Grammar.t

(** Number of visits of a nonterminal (≥ 1); 0 for terminals. *)
val visit_count : plan -> string -> int

(** [(inh, syn)] attribute names for visit [v] (1-based) of a symbol. *)
val visit_attrs : plan -> sym:string -> visit:int -> string list * string list

(** Visit number (1-based) that computes/consumes the given attribute. *)
val visit_of_attr : plan -> sym:string -> attr:string -> int

(** The visit sequence of a production for a given left-hand-side visit
    (1-based). *)
val visit_seq : plan -> prod:int -> visit:int -> instr list

val pp_failure : Format.formatter -> failure -> unit

val pp_plan : Format.formatter -> plan -> unit

(** DAG-native evaluation: one rule-instance set per unique subtree.

    {!Pag_core.Tree.dag} gives the canonical DAG form of a numbered tree —
    shape classes, per-class child edges, and the occurrence partition.
    This module makes that DAG the {e evaluation substrate} instead of a
    memo cache: the engine's flat instance table is built with rules only
    for {e leader} occurrences (the first occurrence of each multi-occurrence
    class) plus the unshared spine; every other occurrence is {e parked} —
    its slots exist but no rules are resolved for its subtree.

    At runtime each parked occurrence resolves once its inherited context
    arrives (its root's inherited slots — the {e gate}):

    - if the inherited fingerprint (canonical values, compared by identity)
      matches a completed, uid-clean evaluation of the same class, the
      leader's slot range is {e projected} onto the occurrence
      ({!Pag_eval.Store.project_range}) — synthesized attributes computed
      once per (class × fingerprint) and fanned out;
    - otherwise (divergent fingerprint, or the class evaluation consumed
      unique identifiers — labels must stay distinct per occurrence) the
      occurrence {e materializes}: its rule instances are resolved late
      ({!Engine.materialize_subtree}) and fire normally. A materialized
      occurrence registers as the leader for its own (class × fingerprint),
      so further occurrences with that context project from it.

    The runtime is scheduler-agnostic: {!machines} wires it into any
    machine set of {!Engine.steal_loop}. A firing reports its target slot
    and whether it drew unique identifiers; the runtime answers with newly
    projected slots (their consumers are released) and newly materialized
    rule ranges (their readiness is seeded). {!run_topo} runs the wired
    loop on the calling domain, for the dynamic schedule and incremental
    sessions; the simulated steal schedule wires its machine fibers the
    same way. *)

open Pag_core

(** {1 Plan (build time)} *)

type plan

(** [plan g store dag] analyzes the occurrence structure: follower
    regions (parked occurrences), candidate leader ranges, gates, and the
    slot/node maps the runtime needs. Follower regions {e nest}: the plan
    keeps walking inside a parked occurrence, so the repeated subtrees
    inside it are parked regions of their own — if an outer region cannot
    share (divergent fingerprint, taint), it materializes only its spine
    and the nested occurrences still project from their class leaders;
    when an outer region projects, its nested regions are subsumed by the
    copy. [min_size] (default 2) is the smallest subtree (in nodes) worth
    parking — below it the gate bookkeeping costs more than the rules it
    saves. The store must cover the dag's tree contiguously
    ({!Store.create} on the numbered tree). *)
val plan : ?min_size:int -> Grammar.t -> Store.t -> Tree.dag -> plan

(** Predicate for {!Engine.create}'s [rules_for]: false exactly for nodes
    inside parked occurrences. *)
val rules_for : plan -> Tree.t -> bool

(** {1 Runtime} *)

type t

val make : plan -> Engine.t -> Engine.graph -> t

(** {1 Incremental editing support}

    After the initial evaluation, resident sessions ({!Incr}) keep the
    runtime: an edit that touches a projected occurrence splits it off its
    class by materializing it (sticky — it never re-projects). *)

(** [revive_node rt gr id] — if node [id] lies inside a projected (or
    still-parked) region, materialize that region, register the new range
    in the graph, and return it. [None] when the node is not in a region
    or the region is already live. Use before grafting/killing/re-resolving
    at a node. *)
val revive_node : t -> Engine.graph -> int -> (int * int) option

(** [revive_gate rt gr slot] — like {!revive_node} for a changed slot that
    is the inherited gate of a non-live region: the editing occurrence's
    fingerprint is diverging, split it off its class. [None] when the slot
    gates no region or the region is live. *)
val revive_gate : t -> Engine.graph -> int -> (int * int) option

(** {1 Scheduler wiring} *)

(** [machines rt build] is the machine set [build ~fire] with the runtime
    wired in, for {!Engine.steal_loop} over {!Engine.rule_tasks} of the
    runtime's engine and graph. The set's machines must run a rule
    instance by calling [fire] inside their uid bracket and then release
    its target slot. The wired set:

    - resolves gates that are complete before any firing (roots with no
      inherited attributes) when it starts;
    - taints every class evaluation whose range holds the node of a rule
      that drew unique identifiers ({!Pag_core.Uid.mark} moved across
      [fire]): those are never projected;
    - reports each released target to the runtime, which resolves gates,
      completes leaders, and projects or materializes regions
      transitively; projected slots are released and materialized rule
      ranges seeded on the machine whose firing began last;
    - when a machine runs dry with the store incomplete, materializes the
      lowest-index unresolved region and keeps going. A grammar can feed a
      subtree's own synthesized output back into its inherited context
      (repmin's [gmin]); a parked occurrence's gate then never completes.
      Occurrences on such a feedback path evaluate per occurrence —
      correct, just not shared. With every region resolved, the loop
      stops and raises {!Engine.Cycle} as for any stuck run. *)
val machines :
  t -> (fire:(int -> unit) -> Engine.machines) -> Engine.machines

(** [run_topo rt] runs {!Engine.steal_loop} over {!Engine.rule_tasks} on
    the wired one-machine set ({!Engine.one_machine}): the DAG-aware
    sequential schedule. Returns the number of firings; raises
    {!Engine.Cycle} when the store stays incomplete. *)
val run_topo : t -> int

(** {1 Statistics} *)

type stats = {
  dg_regions : int;  (** parked follower regions in the plan *)
  dg_projected : int;  (** regions resolved by projection *)
  dg_materialized : int;  (** regions resolved by late evaluation *)
  dg_projected_slots : int;  (** slots defined by projection *)
  dg_materialized_rids : int;  (** rule instances resolved late *)
  dg_tainted_classes : int;  (** class evaluations that consumed uids *)
}

val stats : t -> stats

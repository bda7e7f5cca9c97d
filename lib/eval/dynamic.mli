(** Dynamic attribute evaluator (paper, section 2.3 and figure 1).

    Given a tree, builds the dependency graph between all attribute
    instances, then evaluates rules in topological order as they become
    ready. Handles any noncircular tree (a strictly larger class than
    ordered grammars) at the price of computing and storing per-tree
    dependency information — the overhead the combined evaluator avoids.

    The returned statistics expose that price: [instances] and [edges]
    measure the graph that had to be built, [evals] the rules fired. *)

open Pag_core

type stats = {
  instances : int;  (** attribute instances in the dependency graph *)
  edges : int;  (** dependency edges built *)
  evals : int;  (** semantic rules fired *)
}

exception Cycle of string

(** [eval ?obs g t]. With a live [obs] context, records spans for the two
    phases the paper charges the dynamic evaluator for (dependency-graph
    construction, topological evaluation) plus the [eval.dynamic_rules],
    [graph.nodes], [graph.edges] and store counters.

    [~dag:true] makes the shared DAG the evaluation substrate: the
    instance table is built with one rule-instance set per unique subtree
    ({!Dag}) — non-leader occurrences of shared classes are parked and
    resolved at runtime by projecting their class evaluation's slot range
    (same inherited fingerprint) or materializing their own instances
    (divergent fingerprint, or uid-consuming class). Results are identical
    to [~dag:false] up to label numbering. [dag_out] hands out the DAG
    runtime for post-run statistics.

    [prov]/[prov_clock]/[engine_out] mirror {!Static_eval.eval}: attach a
    provenance ring to the run's engine and hand the engine out for
    post-run analysis ({!Causal}). *)
val eval :
  ?obs:Pag_obs.Obs.ctx ->
  ?root_inh:(string * Value.t) list ->
  ?dag:bool ->
  ?dag_out:(Dag.t -> unit) ->
  ?prov:Pag_obs.Prov.t ->
  ?prov_clock:(unit -> float) ->
  ?engine_out:(Engine.t -> unit) ->
  Grammar.t ->
  Tree.t ->
  Store.t * stats

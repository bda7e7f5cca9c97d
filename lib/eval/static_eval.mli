(** Static (ordered) attribute evaluator (paper, section 2.3, figures 2-3).

    Interprets the visit sequences produced by {!Pag_analysis.Kastens}: a
    collection of mutually recursive visit procedures, one per production,
    walking the tree in the order fixed at generation time. No dependency
    analysis happens at evaluation time — the efficiency edge the combined
    evaluator inherits for the static parts of its tree. *)

open Pag_core
open Pag_analysis

type stats = {
  visits : int;  (** visit-procedure invocations *)
  evals : int;  (** semantic rules fired *)
}

(** [eval ?obs plan t] evaluates the whole tree. With a live [obs] context,
    phase spans (store build, the visit passes) and the evaluation counters
    ([eval.visits], [eval.static_rules], [store.reads]/[store.writes]) are
    recorded; with the default {!Pag_obs.Obs.null_ctx} the instrumentation
    costs one branch per phase and nothing per rule.

    [~dag:true] runs the {!Tree.sharing} pass first and evaluates the DAG
    view through the subtree-visit {!Memo} — this schedule's collapse unit
    is the whole visit over a shape class: each shared subtree's visit is
    evaluated once per inherited fingerprint and replayed at its other
    occurrences ([eval.memo_hits]/[eval.memo_misses] count the outcomes).
    Semantics are unchanged — mismatching contexts and label-consuming
    subtrees fall back to ordinary evaluation.

    [prov] attaches a provenance ring to the run's engine: every firing is
    recorded (memoized replays as synthetic [replay] records), timed by
    [prov_clock] (default: the obs clock when live, else [Sys.time]).
    [engine_out] receives the engine before evaluation starts, so callers
    can keep it for post-run analysis ({!Causal}). *)
val eval :
  ?obs:Pag_obs.Obs.ctx ->
  ?root_inh:(string * Value.t) list ->
  ?dag:bool ->
  ?prov:Pag_obs.Prov.t ->
  ?prov_clock:(unit -> float) ->
  ?engine_out:(Engine.t -> unit) ->
  Kastens.plan ->
  Tree.t ->
  Store.t * stats

(** [visit plan engine node v] runs visit [v] of [node] against an existing
    {!Engine} (and its store) — the entry point the combined evaluator uses
    on the roots of its static subtrees. Returns (visits, evals) performed;
    a memoized subtree replay counts as one visit and no evals. *)
val visit :
  ?memo:Memo.t -> Kastens.plan -> Engine.t -> Tree.t -> int -> int * int

(** [visit_poked plan store ~poke node v] is {!visit} for a task of the
    steal schedule ({!Taskgraph.run_steal}), whose domains run visits of
    disjoint subtrees at once: it reads arguments with {!Store.peek} and
    writes every target through [poke] ({!Store.poke_rule}), touching no
    set-bit or counter. No memo. Returns (visits, evals). *)
val visit_poked :
  Kastens.plan ->
  Store.t ->
  poke:(int -> Value.t -> unit) ->
  Tree.t ->
  int ->
  int * int

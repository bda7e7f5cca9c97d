(** Incremental re-evaluation: edit-driven recompilation.

    A session holds a fully evaluated tree together with its {!Store},
    {!Engine} and slot-level dependency graph. Every edit runs through one
    wave: each edit replaces one subtree ({!Pag_core.Tree.diff} finds the
    site), the replacement is appended to the store and engine, the
    detached instances go dead, and the edit's dirty cone is the
    consumer-edge closure of the appended instances and the edit site's
    own. Structurally independent edits merge their cones into one wave,
    which re-fires once self-adjusting-computation style — only rules in
    the merged cone re-fire, and an equality cutoff
    ({!Store.redefine_slot}) stops propagation wherever a recomputed value
    came out unchanged. {!edit} and {!replace} are waves of one edit,
    {!edit_batch} a wave of many, and all three return {!wave_stats}. When
    the dirty cone exceeds [frontier] of all live rules (default 0.6), the
    session falls back to a compacting from-scratch rebuild instead.

    Unique labels are drawn from the session's own cursor, so incremental
    results equal from-scratch results up to label renaming — and exactly,
    when no rule in the dirty cone allocates labels. *)

open Pag_core

type session

(** Cumulative session counters. *)
type totals = {
  tot_edits : int;
  tot_dirty : int;
  tot_refired : int;
  tot_cutoff : int;
  tot_fallbacks : int;
}

(** Outcome of one {!edit}, {!replace} or {!edit_batch} call. *)
type wave_stats = {
  wv_edits : int;  (** edits submitted (including structural no-ops) *)
  wv_waves : int;  (** merged refire waves run *)
  wv_conflicts : int;  (** edits that interfered and forced a wave flush *)
  wv_dirty : int;  (** dirty-cone members, all waves and rebuilds *)
  wv_refired : int;  (** rules re-fired (a rebuild re-fires every rule) *)
  wv_cutoff : int;  (** dirty rules skipped by the equality cutoff *)
  wv_fallbacks : int;  (** from-scratch rebuilds (each subsumes its wave) *)
  wv_rounds : int;  (** level-synchronous refire rounds, all waves *)
  wv_round_refired : int array;
      (** refires per round, in wave order; a member's round is one plus
          the highest round among its cone producers *)
  wv_bytes : int;
      (** bytes the edits ship: each grafted replacement subtree, and the
          whole new tree for a root-level change *)
  wv_prop_ms : float;  (** propagation (and rebuild) CPU time, ms *)
}

(** [start g tree] evaluates [tree] from scratch and opens the session.
    [frontier] is the dirty-cone fraction beyond which edits rebuild from
    scratch. With a live [obs] context each edit records the [incr.*]
    counters and the [incr.prop_ms] histogram.

    [~dag:true] makes the shared DAG the evaluation substrate ({!Dag}):
    the initial evaluation parks repeated-subtree occurrences and projects
    their synthesized attributes from one evaluation per (class ×
    inherited fingerprint). Edits then split classes on divergence only:
    a graft inside a projected occurrence, or a dirty cone reaching the
    inherited gate of one, materializes that occurrence (sticky) while the
    other occurrences keep their values untouched. Fallback rebuilds
    re-plan the DAG on the compacted tree, restoring full sharing.

    [prov] attaches a provenance ring that survives the session's engine
    rebuilds: the initial evaluation and every refire append records, and
    a fallback rebuild clears the ring before re-recording its
    from-scratch evaluation (the compaction renumbers slots, so stale
    records would misresolve). [--explain]/[--profile] thus work against
    the live session at any point ({!engine} exposes the current engine
    for {!Causal}). *)
val start :
  ?obs:Pag_obs.Obs.ctx ->
  ?dag:bool ->
  ?prov:Pag_obs.Prov.t ->
  ?frontier:float ->
  Grammar.t ->
  Tree.t ->
  session

(** The session's current (evaluated) tree. *)
val tree : session -> Tree.t

(** The session's current store — all attribute values of {!tree} are set.
    Instances of subtrees detached by earlier edits linger as dead slots
    until the next compacting rebuild; query through live nodes only. *)
val store : session -> Store.t

(** Attribute instances owned by live nodes of {!tree} — the session's
    memory footprint (RSS proxy). [Store.slot_count (store s)] additionally
    counts dead slots left by detached subtrees; the session compacts
    (rebuilds from scratch) whenever the dead weight would exceed the live
    weight, so the total stays within 2x [live_slots] plus one edit's
    appended subtree. A multi-tenant pool evicts against this number. *)
val live_slots : session -> int

(** The session's current engine (replaced wholesale by a fallback
    rebuild — re-fetch after every edit before analyzing provenance). *)
val engine : session -> Engine.t

(** The ring passed to {!start} ({!Pag_obs.Prov.disabled} when none). *)
val prov : session -> Pag_obs.Prov.t

(** [edit session next] updates the session so its tree is (structurally)
    [next] and every attribute reflects it: [edit_batch session [next]].
    [next] must have the same root symbol. Structurally equal trees are a
    no-op; a root-level change or an oversized dirty cone falls back to
    from-scratch. After a [Subtree] delta the session keeps its current
    tree object with the replacement grafted in — nodes of [next] outside
    the replacement are not used. *)
val edit : session -> Tree.t -> wave_stats

(** [replace session ~next d] is the pre-diffed {!edit}: [d] must be
    [Tree.diff (tree session) next], which a caller that already took the
    diff hands over instead of paying for a second one. A [Subtree] delta
    grafts its [repl] (an unnumbered tree) as child [pos] of [parent] (a
    node of the session's tree) and reads nothing else of [next]; only a
    [Root] delta makes [next] the session's tree. *)
val replace : session -> next:Tree.t -> Tree.delta -> wave_stats

(** [edit_batch session nexts] applies a set of edits in waves: each
    edit's dirty cone is computed by the usual value-blind closure, and
    structurally independent cones MERGE into one dirty set that re-fires
    once per wave — rule purity makes propagation confluent, so the merged
    wave reaches exactly the store serial application would. Cone
    {e overlap} is not interference (every cone reaches the root's
    synthesized attributes); an edit conflicts, and flushes the pending
    wave into a fresh one, only when it structurally interferes with an
    accepted edit: it grafts into a replaced region, detaches pending cone
    members, or shares the graft parent (whose re-resolved frontier slots
    both would seed). Conflicting batches thus degrade to serial waves
    with the same final store, in submission order. Compaction and
    frontier overflow fall back to a from-scratch rebuild, which subsumes
    the pending wave.

    Each wave re-fires its cone sequentially with provenance recording,
    so [--profile] blames across waves. After the call {!changed} answers
    for the whole batch. *)
val edit_batch : session -> Tree.t list -> wave_stats

(** [changed session node attr] — did the last call change this
    instance's value? Conservatively [true] for everything after a
    fallback rebuild. The distributed runner uses this to ship only
    changed boundary attributes (unchanged ones travel as references). *)
val changed : session -> Tree.t -> string -> bool

val totals : session -> totals

(** DAG-sharing statistics of the session's current evaluation ([None]
    unless the session was started with [~dag:true]). [dg_materialized]
    grows as edits split projected occurrences off their classes; a
    fallback rebuild resets the counts for the re-planned DAG. *)
val dag_stats : session -> Dag.stats option

(** Run setup and edit sessions — the one place that turns a description of
    a parallel evaluation into a {!Runner} invocation.

    [pagc], [agrun] and the benchmark harness all build their runs through
    {!spec}/{!options}/{!run} instead of each assembling
    {!Runner.options} by hand.

    {2 Edit sessions}

    An {!edit_session} keeps a program resident: the tree stays evaluated
    (via {!Pag_eval.Incr}) and decomposed ({!Split}) between edits, the way
    the paper's compiler would sit inside an editor loop. Each {!edit}
    diffs the re-parsed tree against the resident one, re-evaluates only
    the dirty cone through {!Pag_eval.Incr}'s one wave (a single edit is a
    wave of one), and then plays one message wave over the network
    simulator to price the distributed update:

    - the coordinator ships the replacement subtree to the machine owning
      the edit site ({!Message.Edit});
    - that owner pays the rebuild (bytes x rebuild cost) and the whole
      propagation (all re-fired rules, priced at dynamic-rule cost);
    - boundary attributes then flow through the fragment tree (inherited
      down, synthesized up, root attributes to the coordinator). An
      attribute the equality cutoff proved unchanged crosses as a
      fixed-size {!Message.Attr_ref} instead of its full value.

    One wave simulation prices both {!edit} and {!edit_batch}. A single
    edit is a wave with no round structure and no cone-merge metadata; a
    merged batch adds per-edit metadata to the dispatch and spreads its
    refire rounds over every fragment machine (see {!edit_batch}).

    With a fault plan in the spec, the wave runs behind the
    reliable-delivery layer ({!Reliable}) and the report counts its
    retransmissions. The model deliberately stops short of a resident
    distributed worker loop: values come from the session's own
    incremental evaluation, the simulation prices traffic and latency
    (DESIGN.md section 10 discusses the simplification). *)

open Pag_core
open Pag_eval
open Netsim

(** A parallel run: the runner's options and the transport that runs
    them. Edit sessions read [use_dag] and [provenance] from the options
    too: [use_dag] evaluates through {!Pag_eval.Incr} with [~dag:true] —
    the {!Pag_eval.Dag} runtime, whose classes split on divergence only,
    so resident sessions keep the sharing across edits — and [provenance]
    attaches one ring that survives the session's engine rebuilds. *)
type spec = { sp_options : Runner.options; sp_transport : [ `Sim | `Domains ] }

(** [spec machines] with every knob defaulted as in
    {!Runner.default_options}. [~schedule:`Dynamic] runs the classic
    protocol all-dynamic; [~schedule:`Steal] selects the work-stealing
    instance scheduler (see {!Runner.options}). *)
val spec :
  ?schedule:[ `Static | `Dynamic | `Steal ] ->
  ?transport:[ `Sim | `Domains ] ->
  ?granularity:float ->
  ?librarian:bool ->
  ?priority:bool ->
  ?dag:bool ->
  ?telemetry:bool ->
  ?faults:Faults.spec ->
  ?phase_label:(int -> string option) ->
  ?provenance:bool ->
  int ->
  spec

(** The spec's runner options. *)
val options : spec -> Runner.options

(** Run one full (from-scratch) parallel evaluation on the spec's
    transport. *)
val run :
  spec ->
  Grammar.t ->
  Pag_analysis.Kastens.plan option ->
  Tree.t ->
  Runner.result

type edit_session

(** Outcome of one {!edit}: the {!Pag_eval.Incr.wave_stats} counters plus
    the distributed wave's census. *)
type edit_report = {
  er_dirty : int;  (** rule instances in the dirty cone *)
  er_refired : int;  (** rules actually re-fired *)
  er_cutoff : int;  (** dirty rules skipped by the equality cutoff *)
  er_fallback : bool;  (** handled by a from-scratch rebuild *)
  er_prop_ms : float;  (** local propagation time, milliseconds *)
  er_owner : int;  (** fragment owning the edit site *)
  er_boundary_changed : int;  (** boundary attributes that changed *)
  er_boundary_total : int;  (** boundary attributes shipped (incl. refs) *)
  er_bytes_incr : int;  (** wire bytes of the incremental wave *)
  er_bytes_full : int;
      (** wire bytes a from-scratch distributed recompile would ship:
          every fragment subtree plus every boundary attribute in full *)
  er_messages : int;  (** messages in the wave, acks included *)
  er_retransmits : int;  (** reliable-layer retransmissions (faults only) *)
  er_latency : float;  (** simulated seconds, edit sent -> roots refreshed *)
}

(** Evaluate [tree] from scratch, decompose it, and keep both resident.
    [frontier] as in {!Pag_eval.Incr.start}. *)
val open_session :
  ?obs:Pag_obs.Obs.ctx ->
  ?prov:Pag_obs.Prov.t ->
  ?frontier:float ->
  spec ->
  Grammar.t ->
  Tree.t ->
  edit_session

(** The resident (always fully evaluated) tree. *)
val tree : edit_session -> Tree.t

(** The resident store; every attribute of {!tree} is set. *)
val store : edit_session -> Store.t

(** The resident decomposition of {!tree}: the plan the waves are priced
    on, equal to [Split.decompose] of {!tree} after every {!edit}. *)
val plan : edit_session -> Split.plan

(** The session's memory footprint, as {!Pag_eval.Incr.live_slots}. *)
val live_slots : edit_session -> int

val totals : edit_session -> Incr.totals

(** The session's current engine (swapped by fallback rebuilds — re-fetch
    after every edit) for {!Pag_eval.Causal.build}. *)
val engine : edit_session -> Engine.t

(** The session's provenance ring: attached when the spec enabled
    [provenance] or a ring was passed to {!open_session},
    {!Pag_obs.Prov.disabled} otherwise. Records the initial evaluation and
    every refire, so [--explain]/[--profile] work mid-session. *)
val prov : edit_session -> Pag_obs.Prov.t

(** [edit session next] makes the resident tree structurally equal to
    [next] (same root symbol required), re-evaluating incrementally and
    pricing the distributed update. The diff is taken here, once, since
    the graft parent names the owner, and every delta then runs through
    the pre-diffed {!Pag_eval.Incr.replace}. Structurally equal trees are
    a no-op with an all-zero report; a root-level change falls back to a
    from-scratch rebuild and a fresh decomposition.

    A graft keeps the resident {!plan} when it cannot move it: the old
    and new subtrees have the same node count and linearized size, and
    neither holds a node whose symbol is a split point. {!Split.decompose}
    of the edited tree would then rebuild exactly that plan. Any other
    graft, and any edit that fell back to a rebuild (which renumbers the
    tree), re-decomposes. *)
val edit : edit_session -> Tree.t -> edit_report

(** [boundary_message s ~src b i a] — attribute [a] (index [i]) of node
    [b] crossing a machine boundary after [s]'s last update: in full when
    it changed ({!Pag_eval.Incr.changed}), else a fixed-size
    {!Message.Attr_ref} from [src]. Waves and service results price it. *)
val boundary_message :
  Incr.session -> src:int -> Tree.t -> int -> Grammar.attr_decl -> Message.t

(** Outcome of one {!edit_batch}: the {!Pag_eval.Incr.wave_stats} counters
    plus the batched wave's census. *)
type batch_report = {
  br_edits : int;
  br_waves : int;  (** merged refire waves *)
  br_conflicts : int;  (** edits serialized into a follow-up wave *)
  br_dirty : int;
  br_refired : int;
  br_cutoff : int;
  br_fallbacks : int;
  br_rounds : int;  (** level-synchronous refire rounds across waves *)
  br_boundary_changed : int;
  br_boundary_total : int;
  br_bytes : int;  (** wire bytes of the whole batched wave *)
  br_messages : int;
  br_retransmits : int;
  br_latency : float;  (** simulated seconds, dispatch -> roots refreshed *)
}

(** [edit_batch session nexts] applies the whole edit set through
    {!Pag_eval.Incr.edit_batch} — independent dirty cones merged per wave,
    conflicting edits serialized into follow-up waves — and prices ONE
    distributed wave for the batch: a single dispatch carrying every
    replacement plus 16 bytes of cone-merge metadata per edit, the merged
    refire co-scheduled across all fragment machines (each level-
    synchronous round costs its ceiling share of steal-priced rules, and
    shipped cone chunks/results are charged as messages), and a single
    boundary flow. Serial {!edit} application pays the owner-sequential
    propagation and a full boundary wave per edit; this is where batched
    throughput beats the one-edit-at-a-time ceiling. *)
val edit_batch : edit_session -> Tree.t list -> batch_report

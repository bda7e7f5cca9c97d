(** Parser-side protocol: assign fragments to evaluators, collect the root
    attributes, and resolve code descriptors through the librarian.

    This is the paper's measurement boundary — "running time is measured
    from the time the parser initiates evaluation until it receives back the
    root attributes" — so the runners time exactly this function.

    With a {!recovery} configuration (faulty networks), every wait carries a
    liveness watchdog: when nothing arrives for [rc_watchdog] seconds the
    coordinator pings the machines it is waiting on through the reliable
    link. A machine that stops acknowledging is presumed crashed; the
    coordinator then broadcasts {!Message.Stop} to the survivors and
    re-evaluates the whole tree locally with the sequential evaluator
    (static when a Kastens plan is available, dynamic otherwise), so
    compilation completes regardless of which evaluator machines died. *)

open Pag_core
open Pag_analysis

type recovery = {
  rc_link : Reliable.t;  (** the coordinator's own reliable layer *)
  rc_kplan : Kastens.plan option;  (** for the local static fallback *)
  rc_watchdog : float;  (** seconds of silence before probing liveness *)
}

(** [run env g ~tree ~plan ~librarian] returns the root's synthesized
    attributes with any librarian descriptors replaced by the assembled
    text, and a flag that is [true] when a crash forced local recovery.
    With a live [obs] context the two coordinator phases (collecting root
    attributes, resolving librarian descriptors) are recorded as spans and
    a local recovery as an instant event.

    [?sharing] (the tree's {!Pag_core.Tree.sharing} classes) charges each
    [Subtree] assignment its DAG-compressed size ({!Split.dag_bytes})
    instead of the full linearized size. *)
val run :
  ?obs:Pag_obs.Obs.ctx ->
  ?recovery:recovery ->
  ?sharing:Tree.sharing ->
  Transport.env ->
  Grammar.t ->
  tree:Tree.t ->
  plan:Split.plan ->
  librarian:int option ->
  (string * Value.t) list * bool

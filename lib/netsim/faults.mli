(** Seed-deterministic network fault model.

    The paper's evaluation assumes V-System messages on a quiet Ethernet
    never vanish. This module drops that assumption: a {!spec} describes a
    fault plan — per-message drop, duplication, reordering jitter, delay
    spikes, and machine crash-at-time-t — and {!Sim} consults it on every
    transmission. All randomness comes from per-sender PRNG streams derived
    from [fs_seed], so a given (spec, workload) pair replays identically on
    the deterministic simulator, and each sender's fault sequence is stable
    even under the nondeterministic thread interleaving of the domains
    transport. *)

type spec = {
  fs_drop : float;  (** probability a message vanishes on the wire *)
  fs_dup : float;  (** probability a message is delivered twice *)
  fs_reorder : float;
      (** probability a message is held back past later traffic *)
  fs_reorder_window : float;
      (** extra delivery latency (seconds) modelling the hold-back *)
  fs_delay : float;  (** probability of a delay spike *)
  fs_spike : float;  (** delay-spike magnitude, seconds *)
  fs_crashes : (int * float) list;
      (** (machine id, time): the machine stops executing and receiving *)
  fs_seed : int;  (** PRNG seed; same seed = same fault pattern *)
}

(** All rates zero, no crashes, seed 1. *)
val none : spec

(** Parse a command-line fault plan, e.g.
    ["drop=0.05,dup=0.02,reorder=0.1,delay=0.01@0.25,crash=3@12.0"].
    [crash] may repeat; [delay] and [crash] take [p@magnitude] /
    [machine@time] forms. Unknown keys or malformed numbers are errors. *)
val parse : ?seed:int -> string -> (spec, string) result

val pp : Format.formatter -> spec -> unit

(** Per-message fault decision. *)
type verdict = {
  v_drop : bool;
  v_dup : bool;
  v_reorder : bool;  (** domains transport: swap with the sender's next send *)
  v_delay : float;  (** simulator: extra delivery latency, seconds *)
}

(** No fault: deliver normally. *)
val clean : verdict

(** Counters of injected faults, for reporting. *)
type stats = {
  mutable st_dropped : int;
  mutable st_duplicated : int;
  mutable st_delayed : int;  (** reorder hold-backs and delay spikes *)
}

(** A spec instantiated with its PRNG streams. *)
type t

val make : spec -> t

val spec : t -> spec

(** Judge one transmission from [src] to [dst]. Decisions are drawn from
    [src]'s private stream, in send order. *)
val judge : t -> src:int -> dst:int -> verdict

val stats : t -> stats

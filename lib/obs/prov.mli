(** Bounded provenance recorder: one record per rule firing.

    The causal counterpart of the event recorder in {!Obs}: where spans say
    {e when} a machine was busy, provenance records say {e why} an
    attribute instance has its value — which rule instance fired, into
    which target slot, reading which argument slots, on which machine,
    over which time interval. {!Causal} (in [pag_eval]) materializes the
    records of a run into the provenance DAG behind [pagc --explain] and
    [pagc --profile].

    The buffer is a memory-capped ring in struct-of-arrays layout: a full
    ring overwrites its oldest record and counts it in {!dropped} (the
    sliding-window regime of a long-running serve session), arguments past
    [arity] are counted in {!arg_drops}. Recording into {!disabled} costs
    one branch and allocates nothing, so the engine's firing path keeps
    its instrumentation permanently.

    Not domain-safe: give each domain its own ring and analyze them
    together (see {!Pag_eval.Taskgraph.run_steal}). *)

type t

(** Materialized view of one recorded firing. Slot ids are private to the
    recording engine's store; {!Causal} maps them to global (node,
    attribute) instances. *)
type firing = {
  f_rid : int;
  f_pid : int;
  f_target : int;
  f_t0 : float;
  f_t1 : float;
  f_replay : bool;  (** synthesized for a memoized subtree replay *)
  f_args : int array;
}

(** The no-op sink: recording calls return immediately. *)
val disabled : t

(** 2^18 records (~20 MB); caps a serve tenant's window by default. *)
val default_cap : int

(** [create ~cap ~arity ()] — ring of up to [cap] records with up to
    [arity] argument slots each (defaults: {!default_cap}, 8). Storage
    starts small and doubles on demand; [hint] pre-sizes it for an
    expected record count (still capped by [cap]), sparing the doubling
    blits when the caller knows its firing total. *)
val create : ?cap:int -> ?arity:int -> ?hint:int -> unit -> t

val enabled : t -> bool

(** Records currently held (at most [cap]). *)
val length : t -> int

(** Records ever written, including overwritten ones. *)
val total : t -> int

(** Records lost to ring overwrite ([total - cap], floored at 0). *)
val dropped : t -> int

(** Argument entries lost to per-record [arity] overflow. *)
val arg_drops : t -> int

(** Append one firing record. Amortized O(1): storage starts small and
    doubles up to [cap], after which the ring overwrites in place. *)
val record :
  t ->
  rid:int ->
  pid:int ->
  target:int ->
  t0:float ->
  t1:float ->
  replay:bool ->
  unit

(** Append one argument slot to the most recent record. *)
val arg : t -> int -> unit

(** Patch the end timestamp of the most recent record (a scheduler that
    learns the firing's priced duration only after recording it). *)
val set_last_t1 : t -> float -> unit

(** The [j]-th surviving record, oldest first ([0 .. length - 1]). *)
val get : t -> int -> firing

(** Surviving records, oldest first. *)
val iter : t -> (firing -> unit) -> unit

(** Forget everything recorded (the ring's arrays are kept). *)
val clear : t -> unit

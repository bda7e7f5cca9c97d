(** Chase-Lev-style work-stealing deque of task ids: rule-instance ids, or
    the combined evaluator's task ids (spine rule instances and static
    visits, {!Pag_eval.Taskgraph}).

    One deque per domain (or per simulated machine). The owner pushes and
    pops ready task ids at the bottom in LIFO order — newly-released
    consumers are hot in cache, so depth-first execution keeps locality.
    Thieves remove from the top in FIFO order, which tends to transfer the
    oldest (and, for tree-shaped dependency graphs, largest) pending
    subcomputations.

    The implementation is the classic circular-array Chase-Lev deque
    expressed with OCaml 5 [Atomic]s: [top] and [bottom] are atomic
    indices; the element array is reached through an atomic reference so a
    grow by the owner is published to thieves. Element slots themselves
    are plain [int array] cells — a slot written by the owner is published
    to thieves by the subsequent [Atomic.set] on [bottom], and a slot is
    never reused until [top] has advanced past it, so the usual ABA
    argument applies. Payloads are immediate ints (task ids), so no torn
    reads are possible.

    This module lives in its own tiny library ([pag_steal]) so that both
    [pag_eval] (the engine's steal loop) and [pag_parallel] (the
    simulated machine set's probes) can use it without creating a
    dependency cycle. *)

type t

val create : unit -> t

val push : t -> int -> unit
(** Owner-only: push at the bottom. *)

val pop : t -> int option
(** Owner-only: pop at the bottom (LIFO). Returns [None] when empty; on
    the last element it races thieves with a CAS on [top] and may lose. *)

val steal : t -> int option
(** Thief: remove one element from the top (FIFO). [None] when the deque
    is observed empty or the CAS on [top] loses a race. *)

val steal_some : t -> int list
(** [steal_some victim] removes up to half of [victim]'s observed size
    (at least one attempt) via repeated single steals and returns the
    elements in steal (FIFO) order, without making them visible to any
    deque. Use when the transfer has latency — e.g. the netsim scheduler
    holds stolen instances "in flight" for the simulated reply time, so a
    third party cannot re-steal them mid-transfer (at two machines that
    re-steal window is a livelock: one pending instance bounces between
    the deques forever, each successful probe resetting the backoff). *)

val steal_half : t -> into:t -> int
(** [steal_half victim ~into] transfers up to half of [victim]'s observed
    size (at least one attempt) into the caller's own deque [into] via
    repeated single steals, and returns the number of elements actually
    transferred. [into] must be owned by the caller. Equivalent to
    pushing [steal_some victim] — use where the transfer is immediate
    (the shared-memory domains scheduler). *)

val size : t -> int
(** Racy size estimate ([bottom - top] clamped at 0). Exact when no other
    domain is concurrently operating on the deque. *)

(** {1 Per-domain scheduler statistics} *)

type stats = {
  mutable st_fired : int;      (** tasks executed by this domain *)
  mutable st_attempts : int;   (** steal probes issued *)
  mutable st_successes : int;  (** probes that transferred ≥ 1 task *)
  mutable st_stolen : int;     (** total tasks transferred in *)
  mutable st_hwm : int;        (** own-deque depth high-water mark *)
  mutable st_idle : float;     (** seconds spent idle/backing off:
                                   virtual under the netsim, wall clock
                                   under real domains *)
}

val zero_stats : unit -> stats

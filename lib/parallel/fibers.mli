(** Protocol machines as cooperative fibers on a few OCaml domains.

    The domains transport runs [N + 2] machines — coordinator, [N]
    fragment evaluators, librarian — on at most as many domains as there
    are cores. Every machine is an effect-handler fiber on its home domain,
    as the processes of the network simulator are on its one thread. A
    fiber gives up its domain only inside {!recv} and {!recv_timeout}, and
    only when its mailbox is empty, so two machines on one domain never
    interleave in the middle of a rule firing: per-domain state (the
    {!Pag_core.Uid} cursor, hash-cons arenas, telemetry contexts) is seen
    by one machine at a time, exactly as with one domain per machine.

    A domain whose fibers are all blocked parks on one mutex and condition;
    a message pushed to any of its mailboxes wakes it. While one of its
    fibers waits with a timeout, the domain polls every 0.5 ms instead. A
    run whose machines all block in {!recv} with no message in flight does
    not return. *)

type 'a t

(** [create ~machines] — mailboxes for machine ids [0 .. machines - 1]. *)
val create : machines:int -> 'a t

(** [push t ~dst m] appends [m] to machine [dst]'s mailbox and wakes it if
    it is blocked. Callable from any domain. Messages to a machine that is
    not running (never started, or finished) are dropped. *)
val push : 'a t -> dst:int -> 'a -> unit

(** [recv t id] — the next message of machine [id], from inside that
    machine's own fiber; the domain runs its other fibers meanwhile. *)
val recv : 'a t -> int -> 'a

(** [recv_timeout t id d] — as {!recv}, but [None] once [d] seconds of
    wall-clock time pass with no message. *)
val recv_timeout : 'a t -> int -> float -> 'a option

(** [run t machines] runs each [(id, domain, body)] as machine [id]'s fiber
    on domain [domain]. Domain 0 is the calling domain; each other domain
    index that some machine uses is spawned by {!Pag_util.Placement.run}.
    On one domain, fibers start in list order.
    Returns when every body has returned; re-raises the first exception a
    body raised. Returns the number of domains used. *)
val run : 'a t -> (int * int * (unit -> unit)) list -> int

(** Discrete-event simulator with direct-style processes.

    Simulated processes are ordinary OCaml functions that perform effects —
    {!Make.delay} to consume CPU time, {!Make.send}/{!Make.recv} to exchange
    messages over the {!Ethernet} model — and an effect-handler scheduler
    advances virtual time. This mirrors the paper's setting: one evaluator
    process per machine, communicating by (V-System-style) messages, with
    every transmission crossing the shared Ethernet.

    The simulator is deterministic: events at equal times fire in creation
    order. A network multiprocessor experiment therefore produces identical
    figures on every run.

    Every run is logged into an {!Pag_obs.Obs.recorder}, the raw material of
    the paper's figure 6 ({!Gantt.render}): a process's busy periods are
    spans named ["active"] (a {!Make.delay}, or the sender's cost of a
    {!Make.send}), its waits in a receive are spans named ["idle"], a
    delivered message is a flow from sender to receiver spanning send to
    arrival time, and a {!Make.mark} or a crash (["CRASH"]) is an instant.
    An empty period records nothing, so a zero delay leaves no span.

    The functor is applied per message type; each application gets its own
    effect constructors, so several simulators can coexist. *)

module Make (M : sig
  type msg
end) : sig
  type t

  type pid = int

  val create : ?params:Ethernet.params -> unit -> t

  (** Register a process. Its body runs when {!run} is called and may only
      perform effects of this simulator instance. *)
  val spawn : t -> name:string -> (unit -> unit) -> pid

  (** Run until no events remain. Raises [Deadlock] if some process is still
      blocked in [recv] when the event queue drains (crashed processes are
      exempt — a crashed machine is expected to never finish). *)
  val run : t -> unit

  exception Deadlock of string

  (** Install a fault plan: every subsequent transmission is judged against
      it (drop / duplicate / delay), and each [crash=m@t] entry schedules
      machine [m] to crash at time [t]. A crashed process stops executing,
      loses its mailbox, and silently drops all later deliveries. Call
      before {!run}. *)
  val set_faults : t -> Faults.spec -> unit

  (** Injected-fault counters, when a plan is installed. *)
  val fault_stats : t -> Faults.stats option

  val crashed : t -> pid -> bool

  val now : t -> float

  val network : t -> Ethernet.t

  (** The run's log, in recording order. *)
  val events : t -> Pag_obs.Obs.recorder

  (** The sum of [pid]'s ["active"] span lengths, added in recording order;
      0 for an unknown pid. O(1): kept as the log is recorded. *)
  val busy_time : t -> pid -> float

  (** The latest span end or message arrival in the log, 0 when empty.
      O(1). *)
  val horizon : t -> float

  val name_of : t -> pid -> string

  (** Peak mailbox depth the process has seen so far. *)
  val max_queue_depth : t -> pid -> int

  val process_count : t -> int

  (** {1 Effects — valid only inside a process body} *)

  (** Consume [dt] seconds of CPU time. *)
  val delay : float -> unit

  (** Send a message of [size] bytes to [dst]; the sender pays the CPU cost
      of emitting it, the network schedules delivery. *)
  val send : dst:pid -> size:int -> ?label:string -> M.msg -> unit

  (** Block until a message arrives (FIFO per receiver). *)
  val recv : unit -> M.msg

  (** Block until a message arrives or [d] seconds elapse; [None] on
      timeout. The retransmission timers of reliable delivery build on
      this. *)
  val recv_timeout : float -> M.msg option

  (** [Some m] if a message has already arrived, without blocking. *)
  val try_recv : unit -> M.msg option

  val self : unit -> pid

  val time : unit -> float

  (** Log a labelled instant (phase boundaries in figure 6). *)
  val mark : string -> unit
end

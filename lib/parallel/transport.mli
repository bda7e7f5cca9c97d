(** The environment a compiler process (worker, librarian, coordinator) runs
    against — the seam between the simulated network multiprocessor and the
    real multicore runtime.

    On the {!Runner.run_sim} transport, [delay] advances virtual time and
    [send]/[recv] go through the Ethernet model; on the {!Runner.run_domains}
    transport, [delay] is a no-op (the CPU does the actual work) and messages
    travel through the in-memory mailboxes of {!Fibers}, where a receive on
    an empty mailbox yields the domain to the machines sharing it. The
    process code is identical.

    When fault injection is active, processes do not use these raw
    environments directly: {!Reliable.wrap} layers sequence numbers,
    acknowledgements, retransmission and duplicate suppression on top and
    hands back an [env] with the same shape. *)

type env = {
  e_id : int;  (** this machine's id: 0 parser, 1..k evaluators, k+1 librarian *)
  e_delay : float -> unit;
  e_send : dst:int -> Message.t -> unit;
  e_recv : unit -> Message.t;
  e_recv_timeout : float -> Message.t option;
      (** receive with a timeout in transport seconds; [None] on expiry *)
  e_time : unit -> float;  (** current transport time (virtual or wall) *)
  e_mark : string -> unit;  (** phase mark in the trace (no-op if untraced) *)
  e_flush : unit -> unit;
      (** block until outgoing traffic is safely delivered — a no-op on raw
          transports, a drain of unacknowledged messages under {!Reliable} *)
}

open Pag_util
open Pag_obs

module Make (M : sig
  type msg
end) =
struct
  type pid = int

  type _ Effect.t +=
    | EDelay : float -> unit Effect.t
    | ESend : pid * int * string * M.msg -> unit Effect.t
    | ERecv : M.msg Effect.t
    | ERecvTimeout : float -> M.msg option Effect.t
    | ETryRecv : M.msg option Effect.t
    | ESelf : pid Effect.t
    | ETime : float Effect.t
    | EMark : string -> unit Effect.t

  (* A process blocked in a receive: plain [recv] resumes with the message,
     [recv_timeout] resumes with [Some msg] or, at the deadline, [None]. *)
  type blocked_k =
    | BRecv of (M.msg, unit) Effect.Deep.continuation
    | BRecvT of (M.msg option, unit) Effect.Deep.continuation

  type proc = {
    p_id : pid;
    p_name : string;
    mailbox : M.msg Queue.t;
    mutable max_queue : int;  (* peak mailbox depth, for telemetry *)
    mutable blocked : blocked_k option;
    mutable block_gen : int;  (* bumps on every block/wake, guards timeouts *)
    mutable idle_since : float;
    mutable busy : float;  (* summed "active" spans, in recording order *)
    mutable finished : bool;
    mutable crashed : bool;
  }

  type t = {
    mutable now : float;
    events : (unit -> unit) Pqueue.t;
    procs : (pid, proc) Hashtbl.t;
    mutable next_pid : int;
    net : Ethernet.t;
    log : Obs.recorder;
    mutable horizon : float;  (* latest span end or message arrival *)
    mutable faults : Faults.t option;
    pre_crashed : (pid, unit) Hashtbl.t;  (* crashes firing before spawn *)
  }

  exception Deadlock of string

  let create ?(params = Ethernet.default_params) () =
    {
      now = 0.0;
      events = Pqueue.create ();
      procs = Hashtbl.create 16;
      next_pid = 0;
      net = Ethernet.create params;
      log = Obs.create ();
      horizon = 0.0;
      faults = None;
      pre_crashed = Hashtbl.create 4;
    }

  let now t = t.now

  let network t = t.net

  let events t = t.log

  let horizon t = t.horizon

  let proc t pid =
    match Hashtbl.find_opt t.procs pid with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Sim: unknown pid %d" pid)

  let name_of t pid = (proc t pid).p_name

  let max_queue_depth t pid = (proc t pid).max_queue

  let busy_time t pid =
    match Hashtbl.find_opt t.procs pid with Some p -> p.busy | None -> 0.0

  (* One of [p]'s busy or idle periods. An empty period records nothing,
     so a zero delay leaves no span. *)
  let period t p ~t0 ~t1 ~active =
    if t1 > t0 then begin
      Obs.span t.log ~pid:p.p_id ~t0 ~t1 (if active then "active" else "idle");
      if active then p.busy <- p.busy +. (t1 -. t0);
      if t1 > t.horizon then t.horizon <- t1
    end

  let process_count t = Hashtbl.length t.procs

  let crashed t pid =
    match Hashtbl.find_opt t.procs pid with
    | Some p -> p.crashed
    | None -> Hashtbl.mem t.pre_crashed pid

  let do_crash t pid =
    match Hashtbl.find_opt t.procs pid with
    | None -> Hashtbl.replace t.pre_crashed pid ()
    | Some p ->
        if not (p.crashed || p.finished) then begin
          p.crashed <- true;
          (* Drop any pending receive: a crashed machine never resumes. *)
          p.blocked <- None;
          p.block_gen <- p.block_gen + 1;
          Obs.instant t.log ~pid ~t:t.now "CRASH"
        end

  let set_faults t spec =
    let f = Faults.make spec in
    t.faults <- Some f;
    List.iter
      (fun (machine, time) ->
        Pqueue.add t.events time (fun () -> do_crash t machine))
      (Faults.spec f).Faults.fs_crashes

  let fault_stats t = Option.map Faults.stats t.faults

  (* Deliver a message: wake the receiver if it is blocked, else enqueue.
     Crashed receivers silently lose the message. *)
  let deliver t ~src ~dst ~send_t ~label m =
    let p = proc t dst in
    if not p.crashed then begin
      Obs.flow t.log ~src ~dst ~send:send_t ~recv:t.now label;
      if t.now > t.horizon then t.horizon <- t.now;
      match p.blocked with
      | Some k ->
          p.blocked <- None;
          p.block_gen <- p.block_gen + 1;
          period t p ~t0:p.idle_since ~t1:t.now ~active:false;
          (match k with
          | BRecv k -> Effect.Deep.continue k m
          | BRecvT k -> Effect.Deep.continue k (Some m))
      | None ->
          Queue.add m p.mailbox;
          if Queue.length p.mailbox > p.max_queue then
            p.max_queue <- Queue.length p.mailbox
    end

  let start_fiber t p body =
    let open Effect.Deep in
    (* Resumptions scheduled for later must be dropped if the process has
       crashed in the meantime. *)
    let resume k v = if not p.crashed then continue k v in
    match_with body ()
      {
        retc = (fun () -> p.finished <- true);
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | EDelay d ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    period t p ~t0:t.now ~t1:(t.now +. d) ~active:true;
                    Pqueue.add t.events (t.now +. d) (fun () -> resume k ()))
            | ESend (dst, size, label, m) ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let send_t = t.now in
                    let verdict =
                      match t.faults with
                      | None -> Faults.clean
                      | Some f -> Faults.judge f ~src:p.p_id ~dst
                    in
                    (* A dropped frame still occupies the medium; it just
                       never reaches the receiver. *)
                    let arrival =
                      Ethernet.transmit t.net ~now:t.now ~size
                        ~jitter:verdict.Faults.v_delay
                    in
                    if not verdict.Faults.v_drop then
                      Pqueue.add t.events arrival (fun () ->
                          deliver t ~src:p.p_id ~dst ~send_t ~label m);
                    if verdict.Faults.v_dup then begin
                      let arrival2 = Ethernet.transmit t.net ~now:t.now ~size in
                      Pqueue.add t.events arrival2 (fun () ->
                          deliver t ~src:p.p_id ~dst ~send_t ~label m)
                    end;
                    let cost = Ethernet.sender_cost t.net ~size in
                    period t p ~t0:t.now ~t1:(t.now +. cost) ~active:true;
                    Pqueue.add t.events (t.now +. cost) (fun () ->
                        resume k ()))
            | ERecv ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    match Queue.take_opt p.mailbox with
                    | Some m -> continue k m
                    | None ->
                        p.blocked <- Some (BRecv k);
                        p.block_gen <- p.block_gen + 1;
                        p.idle_since <- t.now)
            | ERecvTimeout d ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    match Queue.take_opt p.mailbox with
                    | Some m -> continue k (Some m)
                    | None ->
                        p.blocked <- Some (BRecvT k);
                        p.block_gen <- p.block_gen + 1;
                        p.idle_since <- t.now;
                        let gen = p.block_gen in
                        Pqueue.add t.events (t.now +. d) (fun () ->
                            (* Still blocked in this same receive? *)
                            match p.blocked with
                            | Some (BRecvT k)
                              when p.block_gen = gen && not p.crashed ->
                                p.blocked <- None;
                                p.block_gen <- p.block_gen + 1;
                                period t p ~t0:p.idle_since ~t1:t.now
                                  ~active:false;
                                continue k None
                            | _ -> ()))
            | ETryRecv ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    continue k (Queue.take_opt p.mailbox))
            | ESelf -> Some (fun (k : (a, unit) continuation) -> continue k p.p_id)
            | ETime -> Some (fun (k : (a, unit) continuation) -> continue k t.now)
            | EMark label ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    Obs.instant t.log ~pid:p.p_id ~t:t.now label;
                    continue k ())
            | _ -> None);
      }

  let spawn t ~name body =
    let pid = t.next_pid in
    t.next_pid <- t.next_pid + 1;
    let p =
      {
        p_id = pid;
        p_name = name;
        mailbox = Queue.create ();
        max_queue = 0;
        blocked = None;
        block_gen = 0;
        idle_since = 0.0;
        busy = 0.0;
        finished = false;
        crashed = Hashtbl.mem t.pre_crashed pid;
      }
    in
    Hashtbl.add t.procs pid p;
    Pqueue.add t.events t.now (fun () ->
        if not p.crashed then start_fiber t p body);
    pid

  let run t =
    let rec loop () =
      match Pqueue.pop_min t.events with
      | None -> ()
      | Some (time, f) ->
          t.now <- max t.now time;
          f ();
          loop ()
    in
    loop ();
    let stuck =
      Hashtbl.fold
        (fun _ p acc ->
          if (not p.finished) && (not p.crashed) && p.blocked <> None then
            p.p_name :: acc
          else acc)
        t.procs []
    in
    if stuck <> [] then
      raise
        (Deadlock
           (Printf.sprintf "processes blocked in recv at end of simulation: %s"
              (String.concat ", " (List.sort compare stuck))))

  (* Effects *)

  let delay d = Effect.perform (EDelay d)

  let send ~dst ~size ?(label = "") m = Effect.perform (ESend (dst, size, label, m))

  let recv () = Effect.perform ERecv

  let recv_timeout d = Effect.perform (ERecvTimeout d)

  let try_recv () = Effect.perform ETryRecv

  let self () = Effect.perform ESelf

  let time () = Effect.perform ETime

  let mark label = Effect.perform (EMark label)
end

open Effect.Deep

type 'a wait =
  | Idle  (** not blocked: running, ready to run, or not started *)
  | Blocked of ('a option, unit) continuation * float
      (** in a receive, with its deadline ([infinity]: none) *)
  | Done

type 'a fiber = {
  f_home : 'a home;
  f_mail : 'a Queue.t;  (* guarded by the home's lock, like [f_wait] *)
  mutable f_wait : 'a wait;
}

(* One domain's scheduler state. [h_ready] holds resumptions to run; only
   the home's own domain runs them, so a continuation never migrates. *)
and 'a home = {
  h_lock : Mutex.t;
  h_wake : Condition.t;
  h_ready : (unit -> unit) Queue.t;
  mutable h_fibers : 'a fiber list;
  mutable h_timed : int;  (* fibers blocked with a deadline *)
  mutable h_live : int;  (* fibers not yet finished *)
  mutable h_stop : bool;  (* the run failed: return without finishing *)
}

type 'a t = {
  fibers : 'a fiber option array;
  failure : exn option Atomic.t;
  mutable homes : 'a home array;
}

type _ Effect.t += Await : 'a fiber * float -> 'a option Effect.t

(* Poll interval while a fiber waits with a timeout: the stdlib
   [Condition] has no timed wait. Far below any retransmission timeout. *)
let tick = 0.0005

let create ~machines =
  {
    fibers = Array.make machines None;
    failure = Atomic.make None;
    homes = [||];
  }

let locked h f =
  Mutex.lock h.h_lock;
  match f () with
  | v ->
      Mutex.unlock h.h_lock;
      v
  | exception e ->
      Mutex.unlock h.h_lock;
      raise e

(* Record the run's first failure and stop every domain. *)
let fail t e =
  if Atomic.compare_and_set t.failure None (Some e) then
    Array.iter
      (fun h ->
        locked h (fun () ->
            h.h_stop <- true;
            Condition.broadcast h.h_wake))
      t.homes

let push t ~dst m =
  match t.fibers.(dst) with
  | None -> ()
  | Some f ->
      let h = f.f_home in
      locked h (fun () ->
          match f.f_wait with
          | Idle -> Queue.add m f.f_mail
          | Done -> ()
          | Blocked (k, deadline) ->
              f.f_wait <- Idle;
              if deadline < infinity then h.h_timed <- h.h_timed - 1;
              Queue.add (fun () -> continue k (Some m)) h.h_ready;
              Condition.signal h.h_wake)

let fiber t id =
  match t.fibers.(id) with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Fibers: machine %d is not running" id)

(* Take a waiting message without yielding; block only on an empty
   mailbox. *)
let await t id deadline =
  let f = fiber t id in
  match locked f.f_home (fun () -> Queue.take_opt f.f_mail) with
  | Some m -> Some m
  | None -> Effect.perform (Await (f, deadline))

let recv t id =
  match await t id infinity with Some m -> m | None -> assert false

let recv_timeout t id d = await t id (Unix.gettimeofday () +. d)

let expire h now =
  List.iter
    (fun f ->
      match f.f_wait with
      | Blocked (k, deadline) when deadline <= now ->
          f.f_wait <- Idle;
          h.h_timed <- h.h_timed - 1;
          Queue.add (fun () -> continue k None) h.h_ready
      | _ -> ())
    h.h_fibers

let start t f body =
  let h = f.f_home in
  match_with body ()
    {
      retc =
        (fun () ->
          locked h (fun () ->
              f.f_wait <- Done;
              Queue.clear f.f_mail;
              h.h_live <- h.h_live - 1));
      exnc =
        (fun e ->
          locked h (fun () ->
              f.f_wait <- Done;
              h.h_live <- h.h_live - 1);
          fail t e);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Await (w, deadline) ->
              Some
                (fun (k : (b, unit) continuation) ->
                  let h = w.f_home in
                  locked h (fun () ->
                      match Queue.take_opt w.f_mail with
                      | Some m ->
                          (* pushed since [await] looked: run it next *)
                          Queue.add (fun () -> continue k (Some m)) h.h_ready
                      | None ->
                          w.f_wait <- Blocked (k, deadline);
                          if deadline < infinity then h.h_timed <- h.h_timed + 1))
          | _ -> None);
    }

(* The next resumption this domain should run, waiting for one if need be;
   [None] once its fibers are all done or the run failed. *)
let next h =
  locked h (fun () ->
      let rec go () =
        if h.h_stop then None
        else
          match Queue.take_opt h.h_ready with
          | Some task -> Some task
          | None when h.h_live = 0 -> None
          | None when h.h_timed > 0 ->
              expire h (Unix.gettimeofday ());
              if Queue.is_empty h.h_ready then begin
                Mutex.unlock h.h_lock;
                Unix.sleepf tick;
                Mutex.lock h.h_lock
              end;
              go ()
          | None ->
              Condition.wait h.h_wake h.h_lock;
              go ()
      in
      go ())

let rec schedule h =
  match next h with
  | None -> ()
  | Some task ->
      task ();
      schedule h

let run t machines =
  let ndom = 1 + List.fold_left (fun a (_, d, _) -> max a d) 0 machines in
  let homes =
    Array.init ndom (fun _ ->
        {
          h_lock = Mutex.create ();
          h_wake = Condition.create ();
          h_ready = Queue.create ();
          h_fibers = [];
          h_timed = 0;
          h_live = 0;
          h_stop = false;
        })
  in
  t.homes <- homes;
  List.iter
    (fun (id, d, body) ->
      let h = homes.(d) in
      let f = { f_home = h; f_mail = Queue.create (); f_wait = Idle } in
      t.fibers.(id) <- Some f;
      h.h_fibers <- f :: h.h_fibers;
      h.h_live <- h.h_live + 1;
      Queue.add (fun () -> start t f body) h.h_ready)
    machines;
  (* the caller's home, then every other home that has a fiber *)
  let used =
    List.filteri (fun d h -> d = 0 || h.h_fibers <> []) (Array.to_list homes)
    |> Array.of_list
  in
  ignore
    (Pag_util.Placement.run (Array.length used) (fun d -> schedule used.(d)));
  Option.iter raise (Atomic.get t.failure);
  Array.length used

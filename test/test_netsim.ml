open Netsim
open Pag_obs

module S = Sim.Make (struct
  type msg = string
end)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let qc ?(count = 100) name gen prop = Qc_seed.qc ~count name gen prop

(* [pid]'s spans named [name] in the simulator's log, in recording order. *)
let spans sim ~pid name =
  let acc = ref [] in
  Obs.iter (S.events sim) (fun e ->
      if e.Obs.e_kind = Obs.Span && e.Obs.e_pid = pid && e.Obs.e_name = name
      then acc := (e.Obs.e_t0, e.Obs.e_t1) :: !acc);
  List.rev !acc

(* [pid]'s "active" span lengths, summed in recording order. *)
let active_sum sim pid =
  List.fold_left (fun a (t0, t1) -> a +. (t1 -. t0)) 0.0 (spans sim ~pid "active")

let flows sim =
  let acc = ref [] in
  Obs.iter (S.events sim) (fun e ->
      if e.Obs.e_kind = Obs.Flow then acc := e :: !acc);
  List.rev !acc

let test_delay_advances_time () =
  let sim = S.create () in
  let finished = ref 0.0 in
  let _ =
    S.spawn sim ~name:"a" (fun () ->
        S.delay 1.5;
        S.delay 0.5;
        finished := S.time ())
  in
  S.run sim;
  check_float "two delays" 2.0 !finished;
  check_float "sim clock" 2.0 (S.now sim)

let test_send_recv () =
  let sim = S.create () in
  let got = ref "" and got_at = ref 0.0 in
  let receiver =
    S.spawn sim ~name:"recv" (fun () ->
        got := S.recv ();
        got_at := S.time ())
  in
  let _ =
    S.spawn sim ~name:"send" (fun () ->
        S.delay 1.0;
        S.send ~dst:receiver ~size:1000 "hello")
  in
  S.run sim;
  Alcotest.(check string) "message" "hello" !got;
  (* arrival = send time + transmission + latency *)
  let p = Ethernet.default_params in
  check_float "arrival time"
    (1.0 +. (1000.0 /. p.Ethernet.bandwidth) +. p.Ethernet.latency)
    !got_at

let test_recv_before_send_blocks () =
  (* The receiver starts first and must idle until the message arrives. *)
  let sim = S.create () in
  let receiver = S.spawn sim ~name:"r" (fun () -> ignore (S.recv ())) in
  let _ =
    S.spawn sim ~name:"s" (fun () ->
        S.delay 2.0;
        S.send ~dst:receiver ~size:10 "x")
  in
  S.run sim;
  let idle = spans sim ~pid:receiver "idle" in
  check_int "one idle span" 1 (List.length idle);
  check_bool "idle spans the wait" true
    (match idle with [ (t0, t1) ] -> t0 = 0.0 && t1 > 2.0 | _ -> false)

let test_mailbox_fifo () =
  let sim = S.create () in
  let order = ref [] in
  let receiver =
    S.spawn sim ~name:"r" (fun () ->
        S.delay 5.0;
        (* both messages already queued *)
        let a = S.recv () in
        let b = S.recv () in
        order := [ a; b ])
  in
  let _ =
    S.spawn sim ~name:"s" (fun () ->
        S.send ~dst:receiver ~size:10 "first";
        S.send ~dst:receiver ~size:10 "second")
  in
  S.run sim;
  Alcotest.(check (list string)) "fifo" [ "first"; "second" ] !order

let test_try_recv () =
  let sim = S.create () in
  let early = ref (Some "junk") and late = ref None in
  let receiver =
    S.spawn sim ~name:"r" (fun () ->
        early := S.try_recv ();
        S.delay 3.0;
        late := S.try_recv ())
  in
  let _ = S.spawn sim ~name:"s" (fun () -> S.send ~dst:receiver ~size:10 "m") in
  S.run sim;
  check_bool "nothing at t=0" true (!early = None);
  check_bool "delivered by t=3" true (!late = Some "m")

let test_deadlock_detected () =
  let sim = S.create () in
  let _ = S.spawn sim ~name:"stuck" (fun () -> ignore (S.recv ())) in
  match S.run sim with
  | exception S.Deadlock _ -> ()
  | () -> Alcotest.fail "expected deadlock"

let test_ethernet_contention () =
  (* Two simultaneous big sends must serialize on the shared medium. *)
  let sim = S.create () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  let r1 = S.spawn sim ~name:"r1" (fun () -> ignore (S.recv ()); t1 := S.time ()) in
  let r2 = S.spawn sim ~name:"r2" (fun () -> ignore (S.recv ()); t2 := S.time ()) in
  let _ = S.spawn sim ~name:"s1" (fun () -> S.send ~dst:r1 ~size:125_000 "a") in
  let _ = S.spawn sim ~name:"s2" (fun () -> S.send ~dst:r2 ~size:125_000 "b") in
  S.run sim;
  let p = Ethernet.default_params in
  let tx = 125_000.0 /. p.Ethernet.bandwidth in
  let first = min !t1 !t2 and second = max !t1 !t2 in
  check_float "first arrives after one tx" (tx +. p.Ethernet.latency) first;
  check_float "second queued behind" ((2.0 *. tx) +. p.Ethernet.latency) second;
  check_bool "contention recorded" true
    (Ethernet.contention_time (S.network sim) > 0.0)

let test_no_contention_mode () =
  let params = { Ethernet.default_params with Ethernet.contention = false } in
  let sim = S.create ~params () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  let r1 = S.spawn sim ~name:"r1" (fun () -> ignore (S.recv ()); t1 := S.time ()) in
  let r2 = S.spawn sim ~name:"r2" (fun () -> ignore (S.recv ()); t2 := S.time ()) in
  let _ = S.spawn sim ~name:"s1" (fun () -> S.send ~dst:r1 ~size:125_000 "a") in
  let _ = S.spawn sim ~name:"s2" (fun () -> S.send ~dst:r2 ~size:125_000 "b") in
  S.run sim;
  check_float "parallel delivery" !t1 !t2

let test_switched_ports () =
  (* Switched fabric: simultaneous transmissions on distinct ports each get
     a full-bandwidth link; same-port traffic still queues. On the shared
     medium the port hint is ignored and everything serializes. *)
  let p = Ethernet.switched_params in
  let tx = 125_000.0 /. p.Ethernet.bandwidth in
  let net = Ethernet.create p in
  let a = Ethernet.transmit net ~port:1 ~now:0.0 ~size:125_000 in
  let b = Ethernet.transmit net ~port:2 ~now:0.0 ~size:125_000 in
  check_float "port 1 unqueued" (tx +. p.Ethernet.latency) a;
  check_float "port 2 parallel" (tx +. p.Ethernet.latency) b;
  let c = Ethernet.transmit net ~port:2 ~now:0.0 ~size:125_000 in
  check_float "same port queues" ((2.0 *. tx) +. p.Ethernet.latency) c;
  check_bool "queueing recorded" true (Ethernet.contention_time net > 0.0);
  let shared = Ethernet.create Ethernet.default_params in
  let a' = Ethernet.transmit shared ~port:1 ~now:0.0 ~size:125_000 in
  let b' = Ethernet.transmit shared ~port:2 ~now:0.0 ~size:125_000 in
  check_float "shared medium ignores ports" (tx +. a') b'

let test_determinism () =
  let run_once () =
    let sim = S.create () in
    let log = ref [] in
    let pids = Array.make 3 0 in
    for i = 0 to 2 do
      pids.(i) <-
        S.spawn sim
          ~name:(Printf.sprintf "p%d" i)
          (fun () ->
            S.delay (0.1 *. float_of_int (i + 1));
            log := Printf.sprintf "p%d@%.3f" i (S.time ()) :: !log)
    done;
    S.run sim;
    List.rev !log
  in
  Alcotest.(check (list string)) "same schedule" (run_once ()) (run_once ())

let test_trace_and_gantt () =
  let sim = S.create () in
  let r = S.spawn sim ~name:"worker" (fun () -> ignore (S.recv ()); S.delay 1.0) in
  let _ =
    S.spawn sim ~name:"parser" (fun () ->
        S.mark "phase1";
        S.delay 0.5;
        S.send ~dst:r ~size:100 "go")
  in
  S.run sim;
  check_int "one flow" 1 (List.length (flows sim));
  check_bool "worker active 1s" true (S.busy_time sim r >= 1.0);
  check_bool "busy <= horizon" true (S.busy_time sim r <= S.horizon sim);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let chart = Gantt.render ~names:(S.name_of sim) (S.events sim) in
  check_bool "chart mentions worker" true (contains chart "worker");
  check_bool "chart shows activity" true (contains chart "#")

(* The log's accessors: [horizon] is the latest span end or message
   arrival, [busy_time] sums only that pid's "active" spans, and an empty
   period records nothing. *)
let test_log_accessors () =
  let sim = S.create () in
  (* [r] finishes long before its message arrives: the arrival is the
     log's last moment, and [r] never waits for it. *)
  let r = S.spawn sim ~name:"r" (fun () -> S.delay 0.1) in
  let w =
    S.spawn sim ~name:"w" (fun () ->
        ignore (S.recv ());
        S.delay 0.25)
  in
  let z = S.spawn sim ~name:"z" (fun () -> S.delay 0.0) in
  let s =
    S.spawn sim ~name:"s" (fun () ->
        S.send ~dst:w ~size:10 "go";
        S.delay 1.0;
        S.send ~dst:r ~size:125_000 "late")
  in
  S.run sim;
  let late =
    match List.filter (fun e -> e.Obs.e_dst = r) (flows sim) with
    | [ e ] -> e.Obs.e_t1
    | _ -> Alcotest.fail "expected one flow to r"
  in
  check_bool "late arrival sets the horizon" true (S.horizon sim = late);
  Obs.iter (S.events sim) (fun e ->
      if e.Obs.e_kind = Obs.Span then
        check_bool "every span ends before the arrival" true
          (e.Obs.e_t1 < late));
  check_bool "w waited" true (spans sim ~pid:w "idle" <> []);
  check_bool "w's busy time is its active span alone" true
    (S.busy_time sim w = 0.25);
  check_bool "r's busy time" true (S.busy_time sim r = 0.1);
  check_bool "s's busy time = its active spans" true
    (S.busy_time sim s = active_sum sim s
    && List.length (spans sim ~pid:s "active") = 3);
  check_bool "unknown pid" true (S.busy_time sim 99 = 0.0);
  let z_events = ref 0 in
  Obs.iter (S.events sim) (fun e -> if e.Obs.e_pid = z then incr z_events);
  check_int "a zero delay records no span" 0 !z_events;
  check_bool "z is not busy" true (S.busy_time sim z = 0.0)

(* Random process scripts: delays (some zero), sends to any process and
   timed receives, so no script deadlocks. A process's [busy_time] is the
   sum of its "active" spans added in recording order — bit for bit — and
   no longer than the horizon, which is the latest span end or arrival. *)
type op = Delay of float | Send of int * int | Recv_for of float

let gen_script =
  let open QCheck.Gen in
  let op n =
    frequency
      [
        ( 3,
          map (fun d -> Delay d) (oneof [ return 0.0; float_bound_inclusive 2.0 ]) );
        ( 2,
          map2
            (fun dst size -> Send (dst, size))
            (int_bound (n - 1)) (int_range 1 200_000) );
        (2, map (fun d -> Recv_for d) (float_bound_inclusive 1.0));
      ]
  in
  int_range 1 4 >>= fun n -> list_repeat n (list_size (0 -- 8) (op n))

let print_script =
  let op = function
    | Delay d -> Printf.sprintf "delay %h" d
    | Send (dst, size) -> Printf.sprintf "send %d %d" dst size
    | Recv_for d -> Printf.sprintf "recv_for %h" d
  in
  fun procs ->
    String.concat " | "
      (List.map (fun ops -> String.concat "; " (List.map op ops)) procs)

let prop_busy_time =
  qc "busy_time = active spans <= horizon"
    (QCheck.make ~print:print_script gen_script)
    (fun procs ->
      let sim = S.create () in
      let pids =
        List.mapi
          (fun i ops ->
            S.spawn sim ~name:(string_of_int i) (fun () ->
                List.iter
                  (function
                    | Delay d -> S.delay d
                    | Send (dst, size) -> S.send ~dst ~size "m"
                    | Recv_for d -> ignore (S.recv_timeout d))
                  ops))
          procs
      in
      S.run sim;
      let latest = ref 0.0 in
      Obs.iter (S.events sim) (fun e ->
          if e.Obs.e_kind <> Obs.Instant then
            latest := Float.max !latest e.Obs.e_t1);
      S.horizon sim = !latest
      && List.for_all
           (fun pid ->
             let sum = active_sum sim pid in
             S.busy_time sim pid = sum && sum <= S.horizon sim)
           pids)

let suite =
  [
    ( "netsim",
      [
        Alcotest.test_case "delay" `Quick test_delay_advances_time;
        Alcotest.test_case "send/recv" `Quick test_send_recv;
        Alcotest.test_case "recv blocks" `Quick test_recv_before_send_blocks;
        Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
        Alcotest.test_case "try_recv" `Quick test_try_recv;
        Alcotest.test_case "deadlock" `Quick test_deadlock_detected;
        Alcotest.test_case "ethernet contention" `Quick test_ethernet_contention;
        Alcotest.test_case "no contention" `Quick test_no_contention_mode;
        Alcotest.test_case "switched ports" `Quick test_switched_ports;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "trace/gantt" `Quick test_trace_and_gantt;
        Alcotest.test_case "log accessors" `Quick test_log_accessors;
        prop_busy_time;
      ] );
  ]

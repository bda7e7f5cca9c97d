open Pag_core
open Pag_analysis
open Pag_eval
open Pag_parallel
open Pag_grammars

let qc ?(count = 25) name gen prop = Qc_seed.qc ~count name gen prop

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let plan_of g =
  match Kastens.analyze g with
  | Ok p -> p
  | Error f -> Alcotest.failf "analysis failed: %a" Kastens.pp_failure f

let sc_plan = lazy (plan_of Stackcode_ag.grammar)
let rm_plan = lazy (plan_of Repmin_ag.grammar)
let ex_plan = lazy (plan_of Expr_ag.grammar)

let opts ?(schedule = `Static) ?(machines = 3) ?(librarian = true)
    ?(priority = true) ?(granularity = 1.0) () =
  {
    Runner.default_options with
    Runner.machines;
    schedule;
    granularity;
    use_priority = priority;
    use_librarian = librarian;
  }

let sc_tree seed =
  Stackcode_ag.random_program (Random.State.make [| seed |]) ~depth:7 ~blocks:5

let int_attr attrs name = Value.as_int ~ctx:"test" (List.assoc name attrs)

let code_attr attrs =
  let c = Codestr.of_value ~ctx:"test" (List.assoc "code" attrs) in
  Stackcode_ag.mask_labels (Pag_util.Rope.to_string (Codestr.to_rope c))

(* --------------- sequential degenerate cases --------------- *)

let test_one_machine_combined_is_static () =
  let t = sc_tree 11 in
  let r = Runner.run_sim (opts ~machines:1 ()) Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t in
  check_int "one fragment" 1 r.Runner.r_fragments;
  check_bool "no dynamic rules at all" true (r.Runner.r_dynamic_fraction = 0.0);
  check_int "value matches reference" (Stackcode_ag.reference_value t)
    (int_attr r.Runner.r_attrs "value")

let test_one_machine_dynamic () =
  let t = sc_tree 12 in
  let r = Runner.run_sim (opts ~schedule:`Dynamic ~machines:1 ()) Stackcode_ag.grammar None t in
  check_bool "all rules dynamic" true (r.Runner.r_dynamic_fraction = 1.0);
  check_int "value" (Stackcode_ag.reference_value t) (int_attr r.Runner.r_attrs "value")

(* --------------- parallel correctness --------------- *)

let test_parallel_combined_matches_sequential () =
  let t = sc_tree 13 in
  let seq, _ = Static_eval.eval (Lazy.force sc_plan) t in
  let seq_code =
    Stackcode_ag.mask_labels
      (Pag_util.Rope.to_string
         (Codestr.to_rope
            (Codestr.of_value ~ctx:"seq" (Store.get seq (Store.root seq) "code"))))
  in
  for m = 2 to 6 do
    let r = Runner.run_sim (opts ~machines:m ()) Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t in
    check_int (Printf.sprintf "value @ %d machines" m)
      (Stackcode_ag.reference_value t)
      (int_attr r.Runner.r_attrs "value");
    Alcotest.(check string)
      (Printf.sprintf "code @ %d machines" m)
      seq_code (code_attr r.Runner.r_attrs)
  done

let test_parallel_dynamic_matches () =
  let t = sc_tree 14 in
  for m = 2 to 4 do
    let r = Runner.run_sim (opts ~schedule:`Dynamic ~machines:m ()) Stackcode_ag.grammar None t in
    check_int (Printf.sprintf "value @ %d machines" m)
      (Stackcode_ag.reference_value t)
      (int_attr r.Runner.r_attrs "value")
  done

let test_naive_propagation_matches () =
  let t = sc_tree 15 in
  let r = Runner.run_sim (opts ~librarian:false ()) Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t in
  check_int "value" (Stackcode_ag.reference_value t) (int_attr r.Runner.r_attrs "value");
  (* without the librarian the code arrives as plain (local) text *)
  let c = Codestr.of_value ~ctx:"naive" (List.assoc "code" r.Runner.r_attrs) in
  check_int "no unresolved fragments" 0 (Codestr.frag_count c)

let test_no_priority_matches () =
  let t = sc_tree 16 in
  let r = Runner.run_sim (opts ~priority:false ()) Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t in
  check_int "value" (Stackcode_ag.reference_value t) (int_attr r.Runner.r_attrs "value")

let test_repmin_parallel () =
  (* a multi-visit grammar through the full parallel machinery *)
  let t =
    Repmin_ag.random_tree (Random.State.make [| 99 |]) ~depth:9
  in
  let expected = Repmin_ag.reference_result t in
  for m = 1 to 4 do
    let r =
      Runner.run_sim
        { (opts ~machines:m ()) with Runner.use_librarian = false }
        Repmin_ag.grammar (Some (Lazy.force rm_plan)) t
    in
    check_bool
      (Printf.sprintf "repmin result @ %d machines" m)
      true
      (Value.equal expected (List.assoc "res" r.Runner.r_attrs))
  done

let test_expr_parallel () =
  let t = Expr_ag.random_program (Random.State.make [| 7 |]) ~depth:8 in
  let expected = Expr_ag.reference_value t in
  for m = 1 to 4 do
    let r =
      Runner.run_sim
        { (opts ~machines:m ()) with Runner.use_librarian = false }
        Expr_ag.grammar (Some (Lazy.force ex_plan)) t
    in
    check_int (Printf.sprintf "@%d machines" m) expected
      (int_attr r.Runner.r_attrs "value")
  done

(* --------------- paper-shape sanity --------------- *)

let test_combined_mostly_static () =
  (* The paper's "< 5% of attributes evaluated dynamically". On a sizable
     tree the combined evaluator's dynamic fraction must be small. *)
  let t =
    Stackcode_ag.random_program (Random.State.make [| 21 |]) ~depth:10 ~blocks:8
  in
  let r = Runner.run_sim (opts ~machines:5 ()) Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t in
  check_bool
    (Printf.sprintf "dynamic fraction %.4f < 0.05" r.Runner.r_dynamic_fraction)
    true
    (r.Runner.r_dynamic_fraction < 0.05)

let test_combined_beats_dynamic_sequentially () =
  let t =
    Stackcode_ag.random_program (Random.State.make [| 22 |]) ~depth:10 ~blocks:8
  in
  let rc = Runner.run_sim (opts ~machines:1 ()) Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t in
  let rd = Runner.run_sim (opts ~schedule:`Dynamic ~machines:1 ()) Stackcode_ag.grammar None t in
  check_bool
    (Printf.sprintf "static %.3fs < dynamic %.3fs" rc.Runner.r_time rd.Runner.r_time)
    true
    (rc.Runner.r_time < rd.Runner.r_time)

let test_parallel_speedup_exists () =
  let t =
    Stackcode_ag.random_program (Random.State.make [| 23 |]) ~depth:11 ~blocks:8
  in
  let r1 = Runner.run_sim (opts ~machines:1 ()) Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t in
  let r4 = Runner.run_sim (opts ~machines:4 ()) Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t in
  check_bool
    (Printf.sprintf "1 machine %.3fs vs 4 machines %.3fs" r1.Runner.r_time
       r4.Runner.r_time)
    true
    (r4.Runner.r_time < r1.Runner.r_time)

let test_trace_present () =
  let t = sc_tree 24 in
  let r = Runner.run_sim (opts ~machines:3 ()) Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t in
  match r.Runner.r_trace with
  | None -> Alcotest.fail "expected a trace"
  | Some log ->
      let module Obs = Pag_obs.Obs in
      let flows = ref 0 and active = ref 0 in
      Obs.iter log (fun e ->
          match e.Obs.e_kind with
          | Obs.Flow -> incr flows
          | Obs.Span when e.Obs.e_name = "active" -> incr active
          | _ -> ());
      check_bool "messages recorded" true (!flows > 0);
      check_bool "activity recorded" true (!active > 0)

(* --------------- domains transport --------------- *)

let test_domains_combined () =
  let t = sc_tree 31 in
  let r = Runner.run_domains (opts ~machines:3 ()) Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t in
  check_int "value" (Stackcode_ag.reference_value t) (int_attr r.Runner.r_attrs "value")

let test_domains_dynamic () =
  let t = sc_tree 32 in
  let r = Runner.run_domains (opts ~schedule:`Dynamic ~machines:3 ()) Stackcode_ag.grammar None t in
  check_int "value" (Stackcode_ag.reference_value t) (int_attr r.Runner.r_attrs "value")

(* The static protocol's N + 2 machines share min(N, cores) domains: the
   calling one hosts coordinator, librarian and fragment 0, so one
   fragment spawns no domain at all. *)
let test_domains_placement () =
  let t = sc_tree 33 in
  let cores = Domain.recommended_domain_count () in
  for m = 1 to 6 do
    let r =
      Runner.run_domains (opts ~machines:m ()) Stackcode_ag.grammar
        (Some (Lazy.force sc_plan)) t
    in
    let frags = r.Runner.r_fragments in
    check_int
      (Printf.sprintf "domains @ %d machines (%d fragments)" m frags)
      (max 1 (min frags cores))
      r.Runner.r_report.Pag_obs.Obs.Report.rp_domains;
    check_int (Printf.sprintf "value @ %d machines" m)
      (Stackcode_ag.reference_value t)
      (int_attr r.Runner.r_attrs "value")
  done

(* --------------- fibers --------------- *)

let test_fibers_ping_pong () =
  (* Machines 0 and 2 share the calling domain, 1 and 3 another; every
     message crosses or stays on a domain, and the relay runs until the
     token has gone round 50 times. *)
  let h = Fibers.create ~machines:4 in
  let hops = ref 0 in
  let relay id () =
    let rec go () =
      match Fibers.recv h id with
      | 0 -> Fibers.push h ~dst:((id + 1) mod 4) 0
      | k ->
          if id = 0 then incr hops;
          Fibers.push h ~dst:((id + 1) mod 4) (if id = 0 then k - 1 else k);
          go ()
    in
    go ()
  in
  let used =
    Fibers.run h
      (( 0,
         0,
         fun () ->
           Fibers.push h ~dst:1 50;
           relay 0 () )
      :: List.map (fun id -> (id, id mod 2, relay id)) [ 1; 2; 3 ])
  in
  check_int "domains" 2 used;
  check_int "round trips" 50 !hops

let test_fibers_timeout_behind_busy_fiber () =
  (* A timed receive expires even though its domain is held by a
     computing fiber; it fires as soon as that fiber yields. *)
  let h = Fibers.create ~machines:2 in
  let timed_out = ref false and busy_done = ref false in
  let _ =
    Fibers.run h
      [
        ( 0,
          0,
          fun () ->
            timed_out := Fibers.recv_timeout h 0 0.01 = None;
            Fibers.push h ~dst:1 () );
        ( 1,
          0,
          fun () ->
            let t0 = Unix.gettimeofday () in
            while Unix.gettimeofday () -. t0 < 0.05 do
              ()
            done;
            busy_done := true;
            Fibers.recv h 1 );
      ]
  in
  check_bool "busy fiber ran" true !busy_done;
  check_bool "timeout fired" true !timed_out

let test_fibers_failure_propagates () =
  let h = Fibers.create ~machines:2 in
  match
    Fibers.run h
      [
        (0, 0, fun () -> ignore (Fibers.recv h 0));
        (1, 1, fun () -> failwith "boom");
      ]
  with
  | _ -> Alcotest.fail "expected the body's exception"
  | exception Failure msg -> Alcotest.(check string) "exception" "boom" msg

(* --------------- placement --------------- *)

let test_placement_run_order () =
  check_bool "results in index order" true
    (Pag_util.Placement.run 3 (fun d -> d) = [| 0; 1; 2 |])

(* Body 0 fails at once while body 1 still sleeps: the failure surfaces
   only after body 1's domain has finished. A failure of a spawned body
   alone surfaces too. *)
let test_placement_joins_before_raising () =
  let finished = Atomic.make false in
  (match
     Pag_util.Placement.run 2 (fun d ->
         if d = 0 then failwith "zero"
         else begin
           Unix.sleepf 0.05;
           Atomic.set finished true
         end)
   with
  | _ -> Alcotest.fail "expected body 0's exception"
  | exception Failure msg ->
      Alcotest.(check string) "exception" "zero" msg;
      check_bool "body 1 joined first" true (Atomic.get finished));
  match Pag_util.Placement.run 2 (fun d -> if d = 1 then failwith "one") with
  | _ -> Alcotest.fail "expected body 1's exception"
  | exception Failure msg -> Alcotest.(check string) "exception" "one" msg

(* [count] is arithmetic only: no domain is started here. *)
let test_placement_count () =
  let cores = Domain.recommended_domain_count () in
  check_int "count 0" 1 (Pag_util.Placement.count 0);
  check_int "count 1" 1 (Pag_util.Placement.count 1);
  check_int "count 64" (min 64 cores) (Pag_util.Placement.count 64)

(* --------------- properties --------------- *)

let arb_cfg =
  QCheck.make
    ~print:(fun (s, m, lib, prio) ->
      Printf.sprintf "seed=%d machines=%d librarian=%b priority=%b" s m lib prio)
    QCheck.Gen.(
      pair (int_bound 100_000) (int_range 1 6) >>= fun (s, m) ->
      pair bool bool >>= fun (lib, prio) -> return (s, m, lib, prio))

let prop_sim_value_correct =
  qc "sim parallel = reference under any config" arb_cfg (fun (s, m, lib, prio) ->
      let t = sc_tree s in
      let r =
        Runner.run_sim
          (opts ~machines:m ~librarian:lib ~priority:prio ())
          Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t
      in
      int_attr r.Runner.r_attrs "value" = Stackcode_ag.reference_value t)

let prop_sim_deterministic =
  qc ~count:10 "simulation is deterministic" QCheck.(int_bound 10_000)
    (fun s ->
      let t = sc_tree s in
      let run () =
        let r = Runner.run_sim (opts ~machines:4 ()) Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t in
        (r.Runner.r_time, r.Runner.r_messages, r.Runner.r_bytes)
      in
      run () = run ())

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "1 machine combined = static" `Quick
          test_one_machine_combined_is_static;
        Alcotest.test_case "1 machine dynamic" `Quick test_one_machine_dynamic;
        Alcotest.test_case "combined matches sequential" `Quick
          test_parallel_combined_matches_sequential;
        Alcotest.test_case "dynamic matches" `Quick test_parallel_dynamic_matches;
        Alcotest.test_case "naive propagation" `Quick test_naive_propagation_matches;
        Alcotest.test_case "no priority" `Quick test_no_priority_matches;
        Alcotest.test_case "repmin parallel" `Quick test_repmin_parallel;
        Alcotest.test_case "expr parallel" `Quick test_expr_parallel;
        Alcotest.test_case "mostly static" `Quick test_combined_mostly_static;
        Alcotest.test_case "static beats dynamic" `Quick
          test_combined_beats_dynamic_sequentially;
        Alcotest.test_case "speedup exists" `Quick test_parallel_speedup_exists;
        Alcotest.test_case "trace present" `Quick test_trace_present;
        Alcotest.test_case "domains combined" `Quick test_domains_combined;
        Alcotest.test_case "domains dynamic" `Quick test_domains_dynamic;
        Alcotest.test_case "domains placement" `Quick test_domains_placement;
        Alcotest.test_case "fibers ping-pong" `Quick test_fibers_ping_pong;
        Alcotest.test_case "fibers timeout behind busy fiber" `Quick
          test_fibers_timeout_behind_busy_fiber;
        Alcotest.test_case "fibers failure" `Quick
          test_fibers_failure_propagates;
        Alcotest.test_case "placement runs in index order" `Quick
          test_placement_run_order;
        Alcotest.test_case "placement joins before re-raising" `Quick
          test_placement_joins_before_raising;
        Alcotest.test_case "placement count" `Quick test_placement_count;
        prop_sim_value_correct;
        prop_sim_deterministic;
      ] );
  ]

open Pascal
open Pag_parallel
open Pag_obs

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let opts ?(schedule = `Static) ?(librarian = true) ?(priority = true) machines =
  {
    Runner.default_options with
    Runner.machines;
    schedule;
    use_librarian = librarian;
    use_priority = priority;
    phase_label = Driver.phase_label;
  }

(* A moderate deterministic workload with reads, procedures and nesting. *)
let program =
  lazy (fst (Progen.gen (Random.State.make [| 2024 |]) Progen.medium))

let reads_input p =
  let _, reads = p in
  List.init reads (fun i -> (i * 31 mod 60) - 20)

let workload = lazy (Progen.gen (Random.State.make [| 2024 |]) Progen.medium)

let sequential_output =
  lazy
    (let p, _ = Lazy.force workload in
     let input = reads_input (Lazy.force workload) in
     let c = Driver.compile p in
     check_bool "no errors" true (c.Driver.c_errors = []);
     match Driver.run_compiled ~input c with
     | Ok out -> out
     | Error e -> Alcotest.failf "sequential run failed: %s" e)

let run_and_execute ?(variant = `Base) opts =
  let p, _ = Lazy.force workload in
  let input = reads_input (Lazy.force workload) in
  let r, c = Driver.compile_parallel_sim ~variant opts p in
  check_bool "no errors" true (c.Driver.c_errors = []);
  match Driver.run_compiled ~input c with
  | Ok out -> (r, out)
  | Error e -> Alcotest.failf "parallel-compiled program failed: %s" e

let test_parallel_output_matches () =
  let expected = Lazy.force sequential_output in
  for m = 1 to 5 do
    let _, out = run_and_execute (opts m) in
    check_str (Printf.sprintf "combined @ %d machines" m) expected out
  done

let test_parallel_dynamic_output () =
  let expected = Lazy.force sequential_output in
  for m = 1 to 3 do
    let _, out = run_and_execute (opts ~schedule:`Dynamic m) in
    check_str (Printf.sprintf "dynamic @ %d machines" m) expected out
  done

let test_threaded_variant_output () =
  let expected = Lazy.force sequential_output in
  let _, out = run_and_execute ~variant:`Threaded (opts 3) in
  check_str "threaded variant output" expected out

let test_no_librarian_output () =
  let expected = Lazy.force sequential_output in
  let _, out = run_and_execute (opts ~librarian:false 4) in
  check_str "naive result propagation" expected out

let test_no_priority_output () =
  let expected = Lazy.force sequential_output in
  let _, out = run_and_execute (opts ~priority:false 4) in
  check_str "no priority attributes" expected out

let test_speedup_and_dynamic_fraction () =
  let r1, _ = run_and_execute (opts 1) in
  let r4, _ = run_and_execute (opts 4) in
  check_bool
    (Printf.sprintf "speedup: %.2fs -> %.2fs" r1.Runner.r_time r4.Runner.r_time)
    true
    (r4.Runner.r_time < r1.Runner.r_time);
  check_bool
    (Printf.sprintf "dynamic fraction %.4f < 5%%" r4.Runner.r_dynamic_fraction)
    true
    (r4.Runner.r_dynamic_fraction < 0.05)

let test_threaded_slower_in_parallel () =
  (* the threaded-counter chain serializes evaluators (experiment E7) *)
  let rb, _ = run_and_execute (opts 4) in
  let rt, _ = run_and_execute ~variant:`Threaded (opts 4) in
  check_bool
    (Printf.sprintf "threaded %.2fs > base %.2fs" rt.Runner.r_time rb.Runner.r_time)
    true
    (rt.Runner.r_time > rb.Runner.r_time)

let test_domains_output () =
  let expected = Lazy.force sequential_output in
  let p, _ = Lazy.force workload in
  let input = reads_input (Lazy.force workload) in
  let r, c = Driver.compile_parallel_domains (opts 3) p in
  check_bool "fragments" true (r.Runner.r_fragments >= 1);
  match Driver.run_compiled ~input c with
  | Ok out -> check_str "domains output" expected out
  | Error e -> Alcotest.failf "domains-compiled program failed: %s" e

(* Runs [f] under a watchdog: a run that neither returns nor raises within
   [limit] seconds (machines deadlocked, or one spinning) ends the test
   process instead of hanging it. *)
let with_deadline ?(limit = 120.0) name f =
  let finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        let stop = Unix.gettimeofday () +. limit in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < stop do
          Unix.sleepf 0.01
        done;
        if not (Atomic.get finished) then begin
          Printf.eprintf "%s: no result after %.0f s\n%!" name limit;
          exit 2
        end)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join dog)
    f

(* The static protocol on real domains, over both evaluators, with and
   without DAG sharing, and every machine count that changes the placement: 1 fragment
   (no spawned domain), 2 (one fragment per core), 3 and 5 (several
   fragments per domain). Each output is masked-equal to the Oracle's. *)
let test_domains_matrix () =
  let p, _ = Lazy.force workload in
  let oracle = Driver.mask_labels (Driver.compile ~evaluator:`Oracle p).Driver.c_asm in
  let cores = Domain.recommended_domain_count () in
  List.iter
    (fun m ->
      List.iter
        (fun (evaluator, schedule) ->
          List.iter
            (fun (sharing, dag) ->
              let name = Printf.sprintf "%s, %s, -m %d" evaluator sharing m in
              let r, c =
                with_deadline name (fun () ->
                    Driver.compile_parallel_domains
                      { (opts ~schedule m) with Runner.use_dag = dag }
                      p)
              in
              check_str name oracle (Driver.mask_labels c.Driver.c_asm);
              check_bool
                (Printf.sprintf "%s: at most min(fragments, cores) domains" name)
                true
                (r.Runner.r_report.Pag_obs.Obs.Report.rp_domains
                <= max 1 (min r.Runner.r_fragments cores)))
            [ ("plain", false); ("dag", true) ])
        [ ("combined", `Static); ("dynamic", `Dynamic) ])
    [ 1; 2; 3; 5 ]

let test_trace_shows_phases () =
  let r, _ = run_and_execute (opts 4) in
  match r.Runner.r_trace with
  | None -> Alcotest.fail "expected trace"
  | Some log ->
      let has kind name =
        let found = ref false in
        Obs.iter log (fun e ->
            if e.Obs.e_kind = kind && e.Obs.e_name = name then found := true);
        !found
      in
      check_bool "symbol table phase marked" true (has Obs.Instant "symbol table");
      check_bool "code generation phase marked" true
        (has Obs.Instant "code generation");
      (* the env attribute crosses fragment boundaries *)
      check_bool "env messages" true (has Obs.Flow "env")

let test_gantt_renders () =
  let r, _ = run_and_execute (opts 5) in
  match r.Runner.r_trace with
  | None -> Alcotest.fail "expected trace"
  | Some log ->
      let s =
        Netsim.Gantt.render
          ~names:(Runner.machine_name ~fragments:r.Runner.r_fragments)
          log
      in
      check_bool "nonempty chart" true (String.length s > 200)

let () = ignore program

(* The schedule alone picks the protocol's evaluator: [`Dynamic] with no
   other option runs every fragment all-dynamic. *)
let test_dynamic_schedule_alone () =
  let p = fst (Progen.gen (Random.State.make [| 7 |]) Progen.small) in
  let r, c =
    Driver.compile_parallel_sim
      { Runner.default_options with Runner.machines = 3; schedule = `Dynamic }
      p
  in
  let rp = r.Runner.r_report in
  let module R = Pag_obs.Obs.Report in
  check_str "label" "dynamic, 3 machines (sim)" rp.R.rp_label;
  check_bool "no static rules" true
    (rp.R.rp_static_rules = 0 && rp.R.rp_dynamic_rules > 0);
  check_str "code = sequential"
    (Driver.mask_labels (Driver.compile ~evaluator:`Static p).Driver.c_asm)
    (Driver.mask_labels c.Driver.c_asm)

let suite =
  [
    ( "pascal-parallel",
      [
        Alcotest.test_case "combined output" `Quick test_parallel_output_matches;
        Alcotest.test_case "dynamic output" `Quick test_parallel_dynamic_output;
        Alcotest.test_case "dynamic schedule alone" `Quick
          test_dynamic_schedule_alone;
        Alcotest.test_case "threaded output" `Quick test_threaded_variant_output;
        Alcotest.test_case "no librarian" `Quick test_no_librarian_output;
        Alcotest.test_case "no priority" `Quick test_no_priority_output;
        Alcotest.test_case "speedup + dyn fraction" `Quick
          test_speedup_and_dynamic_fraction;
        Alcotest.test_case "threaded serializes" `Quick
          test_threaded_slower_in_parallel;
        Alcotest.test_case "domains output" `Quick test_domains_output;
        Alcotest.test_case "domains matrix = oracle" `Quick test_domains_matrix;
        Alcotest.test_case "trace phases" `Quick test_trace_shows_phases;
        Alcotest.test_case "gantt" `Quick test_gantt_renders;
      ] );
  ]

(* Benchmark harness: regenerates every result figure and table of
   Boehm & Zwaenepoel, "Parallel Attribute Grammar Evaluation" (ICDCS 1987).

   Sections (ids match DESIGN.md / EXPERIMENTS.md):
     E1  figure 5   running times, dynamic and combined, 1..6 machines
     E2  figure 6   behaviour of the combined evaluator (Gantt)
     E3  figure 7   source program decomposition
     E4  in text    fraction of dynamically evaluated attributes (< 5%)
     E5  in text    string librarian vs naive result propagation
     E6  in text    priority attributes on/off
     E7  in text    unique identifiers: per-evaluator bases vs a threaded
                    counter attribute
     E8  in text    sequential static vs dynamic cost; split granularity
     E10 beyond     fault injection: reliable-delivery overhead at zero
                    faults; graceful degradation as the drop rate rises
                    (writes BENCH_2.json)
     E11 beyond     observability: wall-clock overhead of full telemetry
                    recording, and registry-vs-legacy-stats agreement
                    (writes BENCH_3.json)
     E12 beyond     DAG-shared subtree evaluation (--dag): sequential
                    static throughput, bytes on the wire,
                    equivalence gates (writes BENCH_4.json)
     E14 beyond     work-stealing instance scheduler vs the static fragment
                    schedule: machine sweep on balanced and skewed
                    workloads, equivalence gates (writes BENCH_6.json)
     E15 beyond     multi-tenant compile service: sustained edits/sec and
                    latency percentiles at 100/1k/10k netsim sessions plus
                    real-domains rows, per-tenant finals gated against
                    isolated session replays (writes BENCH_7.json)
     E16 beyond     attribute provenance ring: per-firing recording
                    overhead vs trace-only telemetry and all-off at 8
                    sim machines, schedule-identity and overhead gates
                    (writes BENCH_8.json)
     E17 beyond     parallel batched self-adjusting re-evaluation: merged
                    dirty cones vs one-at-a-time edits at 8 netsim
                    machines, a real-domains wave, batched service sweep
                    at 1k sessions, provenance-blame and equivalence
                    gates (writes BENCH_9.json)
     E18 beyond     first-class DAG evaluation: one rule-instance set per
                    unique subtree, once-per-machine fragment shipping;
                    instance/wire/time columns at 8 netsim machines and
                    equivalence gates (writes BENCH_10.json)

   Flags:
     --quick     use a smaller workload and fewer machine counts
     --micro     run only the microbenchmarks: Bechamel substrate benches
                 plus the flat-store vs seed-hash-store comparison (writes
                 BENCH_1.json)
     --smoke     run only a fast evaluator-equivalence check on a quick
                 workload; exits nonzero on any mismatch
     --only IDS  run only the named experiments (comma-separated, e.g.
                 --only e15,e17) *)

open Pascal
open Pag_parallel

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let micro = Array.exists (fun a -> a = "--micro") Sys.argv

let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv

(* --only e15,e17 runs just those experiments (full suite otherwise). *)
let only =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--only" then
      Some (String.split_on_char ',' (String.lowercase_ascii Sys.argv.(i + 1)))
    else find (i + 1)
  in
  find 1

let runs id = match only with None -> true | Some ids -> List.mem id ids

let sep title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let workload =
  lazy
    (if quick then fst (Progen.gen (Random.State.make [| 7 |]) Progen.medium)
     else Progen.paper_program ())

(* Stamped into every BENCH_*.json so a record always says what it ran on. *)
let workload_name =
  if quick then "Progen.gen medium seed=7" else "Progen.paper_program"

let max_machines = if quick then 4 else 6

let opts ?schedule ?librarian ?priority ?granularity machines =
  Session.options
    (Session.spec ?schedule ?librarian ?priority ?granularity
       ~phase_label:Driver.phase_label machines)

let compile ?variant o = Driver.compile_parallel_sim ?variant o (Lazy.force workload)

(* ------------------------------------------------------------------ *)

let e1_figure5 () =
  sep "[E1] Figure 5: evaluator running times (simulated seconds)";
  Printf.printf "workload: %d source lines of Pascal\n\n"
    (Pp.line_count (Lazy.force workload));
  Printf.printf "%-9s %-12s %-9s %-12s %-9s\n" "machines" "combined" "speedup"
    "dynamic" "speedup";
  let seq_c = ref 0.0 and seq_d = ref 0.0 in
  let best = ref (0, infinity) in
  for m = 1 to max_machines do
    let rc, _ = compile (opts m) in
    let rd, _ = compile (opts ~schedule:`Dynamic m) in
    if m = 1 then begin
      seq_c := rc.Runner.r_time;
      seq_d := rd.Runner.r_time
    end;
    if rc.Runner.r_time < snd !best then best := (m, rc.Runner.r_time);
    Printf.printf "%-9d %9.2fs   x%-7.2f %9.2fs   x%-7.2f\n" m
      rc.Runner.r_time
      (!seq_c /. rc.Runner.r_time)
      rd.Runner.r_time
      (!seq_d /. rd.Runner.r_time)
  done;
  Printf.printf
    "\npaper shape: combined below dynamic everywhere; speedup up to ~4;\n\
     best around 5 machines with no further gain at 6; not monotonic.\n\
     measured:    best at %d machines (x%.2f over sequential combined).\n"
    (fst !best)
    (!seq_c /. snd !best)

let e2_figure6 () =
  let m = min 5 max_machines in
  sep (Printf.sprintf
         "[E2] Figure 6: behaviour of the parallel combined evaluator (%d machines)" m);
  let r, _ = compile (opts m) in
  (match r.Runner.r_trace with
  | Some tr ->
      print_string
        (Netsim.Gantt.render ~width:90 ~max_arrows:16
           ~names:(Runner.machine_name ~fragments:r.Runner.r_fragments)
           tr)
  | None -> ());
  print_newline ();
  Printf.printf
    "paper shape: symbol-table generation and propagation essentially\n\
     sequential; good concurrency during code generation; result\n\
     propagation through the string librarian at the end.\n"

let e3_figure7 () =
  let m = min 5 max_machines in
  sep (Printf.sprintf "[E3] Figure 7: source program decomposition (%d machines)" m);
  let r, _ = compile (opts m) in
  Format.printf "%a@." Split.pp r.Runner.r_split;
  let sizes =
    Array.to_list
      (Array.map (fun f -> f.Split.fr_bytes) (Split.fragments r.Runner.r_split))
  in
  let mn = List.fold_left min max_int sizes
  and mx = List.fold_left max 0 sizes in
  Printf.printf
    "paper shape: subtrees of about equal size.\n\
     measured:    %d fragments, %d..%d bytes (max/min = %.2f).\n"
    (List.length sizes) mn mx
    (float_of_int mx /. float_of_int mn)

let e4_dynamic_fraction () =
  sep "[E4] Fraction of attributes evaluated dynamically (combined evaluator)";
  Printf.printf "%-9s %-10s\n" "machines" "dynamic";
  for m = 2 to max_machines do
    let r, _ = compile (opts m) in
    Printf.printf "%-9d %8.3f%%\n" m (100.0 *. r.Runner.r_dynamic_fraction)
  done;
  Printf.printf
    "\npaper: on average less than 5 percent of the attributes are\n\
     evaluated dynamically.\n"

let e5_librarian () =
  let m = min 5 max_machines in
  sep (Printf.sprintf "[E5] String librarian vs naive result propagation (%d machines)" m);
  let with_lib, c = compile (opts ~librarian:true m) in
  let without, _ = compile (opts ~librarian:false m) in
  Printf.printf "generated code: %d KB of assembly text\n\n"
    (String.length c.Driver.c_asm / 1024);
  Printf.printf "%-26s %10s %10s %12s\n" "" "time" "messages" "wire KB";
  Printf.printf "%-26s %9.2fs %10d %12d\n" "with string librarian"
    with_lib.Runner.r_time with_lib.Runner.r_messages
    (with_lib.Runner.r_bytes / 1024);
  Printf.printf "%-26s %9.2fs %10d %12d\n" "naive propagation"
    without.Runner.r_time without.Runner.r_messages
    (without.Runner.r_bytes / 1024);
  Printf.printf
    "\npaper: approximately 1 second improvement (about 10%% of their\n\
     running time); large code attributes otherwise cross the network as\n\
     many times as the process tree is deep, sequentially.\n\
     measured: %.2fs improvement (%.1f%%), %d KB less on the wire.\n"
    (without.Runner.r_time -. with_lib.Runner.r_time)
    (100.0
    *. (without.Runner.r_time -. with_lib.Runner.r_time)
    /. without.Runner.r_time)
    ((without.Runner.r_bytes - with_lib.Runner.r_bytes) / 1024)

let e6_priority () =
  let m = min 5 max_machines in
  sep (Printf.sprintf "[E6] Priority attributes (global symbol table) on/off (%d machines)" m);
  let with_prio, _ = compile (opts ~priority:true m) in
  let without, _ = compile (opts ~priority:false m) in
  Printf.printf "%-26s %9.2fs\n" "priority attributes" with_prio.Runner.r_time;
  Printf.printf "%-26s %9.2fs (+%.1f%%)\n" "no priority" without.Runner.r_time
    (100.0
    *. (without.Runner.r_time -. with_prio.Runner.r_time)
    /. with_prio.Runner.r_time);
  Printf.printf
    "\npaper: without priority attributes, pathological situations occur\n\
     where local attributes are computed ahead of globally required ones.\n"

let e7_unique_ids () =
  sep "[E7] Unique identifiers: per-evaluator bases vs threaded counter";
  let m = min 5 max_machines in
  let base1, _ = compile (opts 1) in
  let base_m, _ = compile (opts m) in
  let thr1, _ = compile ~variant:`Threaded (opts 1) in
  let thr_m, _ = compile ~variant:`Threaded (opts m) in
  Printf.printf "%-28s %12s %12s %10s\n" "" "1 machine"
    (Printf.sprintf "%d machines" m)
    "speedup";
  Printf.printf "%-28s %11.2fs %11.2fs %9.2fx\n" "per-evaluator bases"
    base1.Runner.r_time base_m.Runner.r_time
    (base1.Runner.r_time /. base_m.Runner.r_time);
  Printf.printf "%-28s %11.2fs %11.2fs %9.2fx\n" "threaded counter attribute"
    thr1.Runner.r_time thr_m.Runner.r_time
    (thr1.Runner.r_time /. thr_m.Runner.r_time);
  Printf.printf
    "\npaper: threading a counter attribute through the tree would require\n\
     virtually all evaluators to wait for its propagation; the parser hands\n\
     each evaluator a base value instead.\n"

let e8_sequential_and_granularity () =
  sep "[E8] Sequential evaluator cost and split granularity";
  let rc, _ = compile (opts 1) in
  let rd, _ = compile (opts ~schedule:`Dynamic 1) in
  Printf.printf "sequential combined (= static): %8.2fs\n" rc.Runner.r_time;
  Printf.printf "sequential dynamic:             %8.2fs (x%.2f)\n\n"
    rd.Runner.r_time
    (rd.Runner.r_time /. rc.Runner.r_time);
  Printf.printf
    "paper: static evaluators avoid computing and storing per-tree\n\
     dependency information; the combined evaluator keeps that efficiency.\n\n";
  let m = min 5 max_machines in
  Printf.printf "granularity sweep (combined, %d machines):\n" m;
  Printf.printf "%-14s %-10s %-10s %-10s\n" "granularity" "time" "fragments"
    "messages";
  List.iter
    (fun g ->
      let r, _ = compile (opts ~granularity:g m) in
      Printf.printf "%-14.2f %8.2fs %-10d %-10d\n" g r.Runner.r_time
        r.Runner.r_fragments r.Runner.r_messages)
    [ 0.05; 0.5; 1.0; 50.0; 2000.0 ];
  Printf.printf
    "\npaper: the minimum split size can be scaled by a runtime argument to\n\
     the parser for easy experimentation with decomposition granularity.\n"

let e9_assembly_integration () =
  sep "[E9] Integrating assembly: machine code vs assembly text";
  (* The paper argues for integrating assembly into the parallel compiler
     because machine language is much more compact than assembly text,
     shrinking the attributes transmitted over the network. *)
  let _, c = compile (opts 1) in
  let instrs = Vax.Asm_parser.parse c.Driver.c_asm in
  let text = String.length c.Driver.c_asm in
  let binary = Vax.Encode.encoded_size instrs in
  Printf.printf "assembly text of the workload:   %8d KB\n" (text / 1024);
  Printf.printf "encoded machine code + symbols:  %8d KB  (%.1fx smaller)\n"
    (binary / 1024)
    (float_of_int text /. float_of_int binary);
  let n_instr = Peephole.instr_count instrs in
  let opt = Peephole.optimize instrs in
  Printf.printf
    "peephole optimization: %d -> %d instructions (-%.1f%%)\n" n_instr
    (Peephole.instr_count opt)
    (100.0
    *. float_of_int (n_instr - Peephole.instr_count opt)
    /. float_of_int n_instr);
  Printf.printf
    "\npaper: \"machine language is much more compact than assembly\n\
     language, resulting in smaller attributes being transmitted over the\n\
     network\" — the motivation for running assembly as part of the same\n\
     parallel decomposition rather than as a separate pass.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the substrates                          *)
(* ------------------------------------------------------------------ *)

let microbenchmarks () =
  sep "[micro] Substrate microbenchmarks (Bechamel)";
  let open Bechamel in
  let open Pag_util in
  let rope_test =
    Test.make ~name:"rope concat x1000"
      (Staged.stage (fun () ->
           let r = ref Rope.empty in
           for i = 0 to 999 do
             r := Rope.concat !r (Rope.of_string (string_of_int i))
           done;
           Rope.length !r))
  in
  let string_test =
    Test.make ~name:"string concat x1000"
      (Staged.stage (fun () ->
           let s = ref "" in
           for i = 0 to 999 do
             s := !s ^ string_of_int i
           done;
           String.length !s))
  in
  let symtab_test =
    Test.make ~name:"symtab add+lookup x200"
      (Staged.stage (fun () ->
           let t = ref Symtab.empty in
           for i = 0 to 199 do
             t := Symtab.add !t (string_of_int i) i
           done;
           for i = 0 to 199 do
             ignore (Symtab.lookup !t (string_of_int i))
           done))
  in
  let tree =
    Pag_grammars.Expr_ag.random_program (Random.State.make [| 5 |]) ~depth:9
  in
  let plan =
    match Pag_analysis.Kastens.analyze Pag_grammars.Expr_ag.grammar with
    | Ok p -> p
    | Error _ -> assert false
  in
  let static_test =
    Test.make ~name:"static eval (expr tree)"
      (Staged.stage (fun () -> ignore (Pag_eval.Static_eval.eval plan tree)))
  in
  let dynamic_test =
    Test.make ~name:"dynamic eval (expr tree)"
      (Staged.stage (fun () ->
           ignore (Pag_eval.Dynamic.eval Pag_grammars.Expr_ag.grammar tree)))
  in
  let parse_test =
    let t = Lazy.force Agspec.Appendix.translator in
    Test.make ~name:"agspec parse+eval"
      (Staged.stage (fun () ->
           let tree = Agspec.Compile.parse t "let x = 2 in 1 + 2 * x ni" in
           ignore (Agspec.Compile.evaluate t tree)))
  in
  let tests =
    [ rope_test; string_test; symtab_test; static_test; dynamic_test; parse_test ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some [ x ] -> x
            | _ -> nan
          in
          Printf.printf "%-32s %12.0f ns/run\n" name ns)
        stats)
    tests

(* ------------------------------------------------------------------ *)
(* Flat store vs seed hash store (BENCH_1)                             *)
(* ------------------------------------------------------------------ *)

(* Label numbers depend on the order rules fire (Uid.fresh), which differs
   between evaluators; the emitted instruction sequence is determined by the
   tree alone. Compare code with every L<n>/P<n> label token masked
   (definitions and references alike). *)
let mask_asm = Driver.mask_labels

let masked_code attrs = mask_asm (Pascal_ag.code_of_attrs attrs)

let pascal_roots_agree a_attrs b_attrs =
  String.equal (masked_code a_attrs) (masked_code b_attrs)
  && Pascal_ag.errors_of_attrs a_attrs = Pascal_ag.errors_of_attrs b_attrs

(* ------------------------------------------------------------------ *)
(* E10: fault injection                                                *)
(* ------------------------------------------------------------------ *)

let e10_faults () =
  let m = min 5 max_machines in
  sep
    (Printf.sprintf
       "[E10] Fault injection: reliable delivery and degradation (%d machines)"
       m);
  let base, cb = compile (opts m) in
  let reference = mask_asm cb.Driver.c_asm in
  (* No pinned timeouts: the runner auto-scales the retransmission horizon
     and the liveness watchdog to the workload (a machine acks nothing
     during a long static visit, so the horizon must exceed the longest
     compute phase — on the paper workload the auto-scaling lands at the
     5s / 20s this experiment used to hand-tune). *)
  let faulty spec = { (opts m) with Runner.faults = Some spec } in
  (* Overhead of the reliable layer when the network is in fact perfect:
     every message still pays an envelope and an acknowledgement. *)
  let zero, cz = compile (faulty Netsim.Faults.none) in
  Printf.printf "%-34s %8.2fs   %6d messages\n" "bare protocol" base.Runner.r_time
    base.Runner.r_messages;
  Printf.printf "%-34s %8.2fs   %6d messages   (+%.1f%% time, code %s)\n"
    "reliable layer, zero faults" zero.Runner.r_time zero.Runner.r_messages
    (100.0 *. ((zero.Runner.r_time /. base.Runner.r_time) -. 1.0))
    (if String.equal reference (mask_asm cz.Driver.c_asm) then "ok"
     else "MISMATCH");
  let zero_ok = String.equal reference (mask_asm cz.Driver.c_asm) in
  Printf.printf "\ndegradation sweep (dup = drop/2, seed 1):\n";
  Printf.printf "%-8s %-10s %-10s %-9s %-9s %-7s %-5s\n" "drop" "time"
    "slowdown" "dropped" "retrans" "recov" "code";
  let sweep =
    List.map
      (fun drop ->
        let spec =
          { Netsim.Faults.none with Netsim.Faults.fs_drop = drop; fs_dup = drop /. 2.0 }
        in
        let r, c = compile (faulty spec) in
        let dropped =
          match r.Runner.r_fault_stats with
          | Some fs -> fs.Netsim.Faults.st_dropped
          | None -> 0
        in
        let code_ok = String.equal reference (mask_asm c.Driver.c_asm) in
        Printf.printf "%-8.2f %8.2fs   x%-8.2f %-9d %-9d %-7b %s\n" drop
          r.Runner.r_time
          (r.Runner.r_time /. base.Runner.r_time)
          dropped r.Runner.r_retransmits r.Runner.r_recovered
          (if code_ok then "ok" else "MISMATCH");
        (drop, r, dropped, code_ok))
      [ 0.01; 0.02; 0.05; 0.1 ]
  in
  Printf.printf
    "\nexpected shape: zero-fault overhead small (acks are tiny frames);\n\
     running time degrades gracefully with the drop rate while the emitted\n\
     code stays identical — retransmission and deduplication mask every\n\
     injected fault.\n";
  let all_ok = zero_ok && List.for_all (fun (_, _, _, ok) -> ok) sweep in
  let oc = open_out "BENCH_2.json" in
  Printf.fprintf oc
    "{\n\
    \  \"id\": \"BENCH_2\",\n\
    \  \"bench\": \"fault injection: reliable-delivery overhead and \
     degradation under message loss\",\n\
    \  \"workload\": %S,\n\
    \  \"machines\": %d,\n\
    \  \"runs\": 1,\n\
    \  \"bare\": { \"time\": %.4f, \"messages\": %d },\n\
    \  \"reliable_zero_faults\": { \"time\": %.4f, \"messages\": %d, \
     \"overhead_percent\": %.2f, \"code_ok\": %b },\n\
    \  \"sweep\": [\n"
    workload_name m base.Runner.r_time base.Runner.r_messages
    zero.Runner.r_time zero.Runner.r_messages
    (100.0 *. ((zero.Runner.r_time /. base.Runner.r_time) -. 1.0))
    zero_ok;
  List.iteri
    (fun i (drop, r, dropped, code_ok) ->
      Printf.fprintf oc
        "    { \"drop\": %.2f, \"time\": %.4f, \"slowdown\": %.3f, \
         \"dropped\": %d, \"retransmits\": %d, \"recovered\": %b, \
         \"code_ok\": %b }%s\n"
        drop r.Runner.r_time
        (r.Runner.r_time /. base.Runner.r_time)
        dropped r.Runner.r_retransmits r.Runner.r_recovered code_ok
        (if i = List.length sweep - 1 then "" else ","))
    sweep;
  Printf.fprintf oc "  ],\n  \"all_code_ok\": %b\n}\n" all_ok;
  close_out oc;
  Printf.printf "wrote BENCH_2.json\n";
  if not all_ok then failwith "E10: compiled code diverged under faults"

let store_micro () =
  sep "[micro] BENCH_1: flat store + CSR graph vs seed hash store (dynamic)";
  let g = Pascal_ag.grammar in
  let tree = Pascal_ag.tree_of_program g (Progen.paper_program ()) in
  Printf.printf "workload: Progen.paper_program, %d tree nodes\n"
    (Pag_core.Tree.size tree);
  let runs = if quick then 2 else 5 in
  let measure f =
    ignore (f ());
    (* warmup *)
    Gc.compact ();
    (* both contenders start from a compacted major heap *)
    let a0 = Gc.allocated_bytes () in
    let t0 = Sys.time () in
    for _ = 1 to runs do
      ignore (f ())
    done;
    let dt = (Sys.time () -. t0) /. float_of_int runs in
    let db = (Gc.allocated_bytes () -. a0) /. float_of_int runs in
    (dt, db)
  in
  (* Scoped so both check stores are garbage before the timed runs — a live
     legacy store (hashtables over 276k instances) would tax every major GC
     cycle of the measurement. *)
  let flat_stats, agree =
    let legacy_store, legacy_stats = Legacy.Dynamic.eval g tree in
    let flat_store, flat_stats = Pag_eval.Dynamic.eval g tree in
    let agree =
      pascal_roots_agree
        (Pag_eval.Store.root_attrs flat_store)
        (Legacy.Store.root_attrs legacy_store)
      && Pag_eval.Store.missing flat_store = 0
      && Legacy.Store.missing legacy_store = 0
      && Pag_eval.Store.sets flat_store = Legacy.Store.sets legacy_store
      && flat_stats.Pag_eval.Dynamic.evals = legacy_stats.Legacy.Dynamic.evals
      && flat_stats.Pag_eval.Dynamic.edges = legacy_stats.Legacy.Dynamic.edges
    in
    (flat_stats, agree)
  in
  let legacy_t, legacy_b = measure (fun () -> Legacy.Dynamic.eval g tree) in
  let flat_t, flat_b = measure (fun () -> Pag_eval.Dynamic.eval g tree) in
  let evals = float_of_int flat_stats.Pag_eval.Dynamic.evals in
  let legacy_rate = evals /. legacy_t and flat_rate = evals /. flat_t in
  Printf.printf "\n%-28s %12s %14s %16s\n" "" "s/run" "evals/sec"
    "alloc bytes/run";
  Printf.printf "%-28s %12.3f %14.0f %16.0f\n" "seed hashtbl store" legacy_t
    legacy_rate legacy_b;
  Printf.printf "%-28s %12.3f %14.0f %16.0f\n" "flat store + CSR" flat_t
    flat_rate flat_b;
  Printf.printf
    "\nthroughput: x%.2f   allocation: x%.2f less   stores agree: %b\n"
    (flat_rate /. legacy_rate) (legacy_b /. flat_b) agree;
  let oc = open_out "BENCH_1.json" in
  Printf.fprintf oc
    "{\n\
    \  \"id\": \"BENCH_1\",\n\
    \  \"bench\": \"dynamic evaluator, flat store + CSR vs seed hashtbl \
     store\",\n\
    \  \"workload\": \"Progen.paper_program\",\n\
    \  \"tree_nodes\": %d,\n\
    \  \"instances\": %d,\n\
    \  \"edges\": %d,\n\
    \  \"evals_per_run\": %d,\n\
    \  \"runs\": %d,\n\
    \  \"seed_hashtbl\": { \"seconds_per_run\": %.6f, \"evals_per_sec\": \
     %.0f, \"allocated_bytes_per_run\": %.0f },\n\
    \  \"flat_csr\": { \"seconds_per_run\": %.6f, \"evals_per_sec\": %.0f, \
     \"allocated_bytes_per_run\": %.0f },\n\
    \  \"throughput_speedup\": %.3f,\n\
    \  \"allocation_ratio\": %.3f,\n\
    \  \"stores_agree\": %b\n\
     }\n"
    (Pag_core.Tree.size tree)
    flat_stats.Pag_eval.Dynamic.instances flat_stats.Pag_eval.Dynamic.edges
    flat_stats.Pag_eval.Dynamic.evals runs legacy_t legacy_rate legacy_b
    flat_t flat_rate flat_b (flat_rate /. legacy_rate) (legacy_b /. flat_b)
    agree;
  close_out oc;
  Printf.printf "wrote BENCH_1.json\n";
  if not agree then failwith "BENCH_1: flat and seed stores disagree"

(* ------------------------------------------------------------------ *)
(* E11: observability overhead (BENCH_3)                               *)
(* ------------------------------------------------------------------ *)

let e11_observability () =
  let m = min 5 max_machines in
  sep
    (Printf.sprintf
       "[E11] Observability: telemetry recording overhead (%d machines)" m);
  let module Obs = Pag_obs.Obs in
  let runs = if quick then 3 else 5 in
  let wall f =
    ignore (f ());
    (* warmup *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to runs do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int runs
  in
  let off = wall (fun () -> compile (opts m)) in
  let on_ =
    wall (fun () -> compile { (opts m) with Runner.telemetry = true })
  in
  let overhead = 100.0 *. ((on_ /. off) -. 1.0) in
  let r, _ = compile { (opts m) with Runner.telemetry = true } in
  let events =
    match r.Runner.r_obs with Some rec_ -> Obs.length rec_ | None -> 0
  in
  let reg = r.Runner.r_report.Obs.Report.rp_metrics in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 r.Runner.r_worker_stats in
  (* The registry is incremented independently of the legacy stats records
     at the same code points; any divergence is an instrumentation bug. *)
  let agree =
    Obs.Metrics.counter_value reg "worker.dynamic_rules"
    = sum (fun s -> s.Worker.ws_dynamic_rules)
    && Obs.Metrics.counter_value reg "worker.static_rules"
       = sum (fun s -> s.Worker.ws_static_rules)
    && Obs.Metrics.counter_value reg "worker.visits"
       = sum (fun s -> s.Worker.ws_visits)
    && Obs.Metrics.counter_value reg "worker.sends"
       = sum (fun s -> s.Worker.ws_sends)
    && Obs.Metrics.counter_value reg "net.bytes"
       = sum (fun s -> s.Worker.ws_bytes_flattened)
  in
  Printf.printf "%-30s %10.4fs wall clock per run\n" "telemetry disabled" off;
  Printf.printf "%-30s %10.4fs wall clock per run  (%+.2f%%)\n"
    "telemetry enabled" on_ overhead;
  Printf.printf "%-30s %10d spans/events/flows recorded\n" "event volume"
    events;
  Printf.printf "%-30s %10s\n" "registry = legacy stats"
    (if agree then "ok" else "MISMATCH");
  Printf.printf
    "\ntarget: enabled-vs-disabled overhead under ~2%% (recording is a\n\
     branch plus array stores; wall-clock noise on a sub-second run can\n\
     exceed the signal, so the number is recorded rather than asserted).\n";
  let oc = open_out "BENCH_3.json" in
  Printf.fprintf oc
    "{\n\
    \  \"id\": \"BENCH_3\",\n\
    \  \"bench\": \"telemetry recording overhead, combined evaluator, sim \
     transport\",\n\
    \  \"workload\": %S,\n\
    \  \"machines\": %d,\n\
    \  \"runs\": %d,\n\
    \  \"disabled_seconds_per_run\": %.6f,\n\
    \  \"enabled_seconds_per_run\": %.6f,\n\
    \  \"overhead_percent\": %.3f,\n\
    \  \"events_recorded\": %d,\n\
    \  \"registry_matches_legacy_stats\": %b,\n\
    \  \"virtual_time_unchanged\": %b\n\
     }\n"
    workload_name m runs off on_ overhead events agree
    (let base, _ = compile (opts m) in
     Float.abs (base.Runner.r_time -. r.Runner.r_time) < 1e-9);
  close_out oc;
  Printf.printf "wrote BENCH_3.json\n";
  if not agree then failwith "E11: telemetry registry diverged from legacy stats"

(* ------------------------------------------------------------------ *)
(* E12: DAG-shared subtree evaluation, --dag (BENCH_4)                 *)
(* ------------------------------------------------------------------ *)

let e12_dag () =
  sep "[E12] DAG-shared subtree evaluation, --dag (BENCH_4)";
  let routines = if quick then 4 else 6 in
  let reps = if quick then 120 else 300 in
  let workload_name =
    Printf.sprintf "Progen.repetitive routines=%d reps=%d" routines reps
  in
  let prog = Progen.repetitive ~routines ~reps () in
  let g = Pascal_ag.grammar in
  let tree = Pascal_ag.tree_of_program g prog in
  let plan = Lazy.force Driver.plan in
  Printf.printf "workload: %s, %d tree nodes\n" workload_name
    (Pag_core.Tree.size tree);
  let runs = if quick then 3 else 5 in
  let measure f =
    ignore (f ());
    (* warmup; also warms the intern arenas, which persist across runs *)
    Gc.compact ();
    let t0 = Sys.time () in
    for _ = 1 to runs do
      ignore (f ())
    done;
    (Sys.time () -. t0) /. float_of_int runs
  in
  (* --- sequential static evaluator, sharing off vs on --- *)
  let off_t = measure (fun () -> Pag_eval.Static_eval.eval plan tree) in
  let on_t = measure (fun () -> Pag_eval.Static_eval.eval ~dag:true plan tree) in
  let store_off, _ = Pag_eval.Static_eval.eval plan tree in
  let store_on, _ = Pag_eval.Static_eval.eval ~dag:true plan tree in
  let speedup = off_t /. on_t in
  (* memo-hit accounting through a telemetry context *)
  let obs = Pag_obs.Obs.make_ctx ~pid:0 ~clock:Sys.time in
  ignore (Pag_eval.Static_eval.eval ~obs ~dag:true plan tree);
  let memo_hits =
    Pag_obs.Obs.Metrics.counter_value obs.Pag_obs.Obs.x_metrics "eval.memo_hits"
  in
  let memo_misses =
    Pag_obs.Obs.Metrics.counter_value obs.Pag_obs.Obs.x_metrics
      "eval.memo_misses"
  in
  let hit_rate =
    if memo_hits + memo_misses = 0 then 0.0
    else float_of_int memo_hits /. float_of_int (memo_hits + memo_misses)
  in
  Printf.printf "\n%-28s %12s\n" "" "s/run";
  Printf.printf "%-28s %12.3f\n" "static, dag off" off_t;
  Printf.printf "%-28s %12.3f   (x%.2f)\n" "static, dag on" on_t speedup;
  Printf.printf "memo: %d hits / %d misses (%.1f%% hit rate)\n" memo_hits
    memo_misses (100.0 *. hit_rate);
  (* --- equivalence: byte-identical to dag-off, masked-equal to the
     oracle (firing order moves label numbers), output-equal to the
     reference interpreter through the VAX simulator --- *)
  let attrs st = Pag_eval.Store.root_attrs st in
  let byte_identical =
    String.equal
      (Pascal_ag.code_of_attrs (attrs store_on))
      (Pascal_ag.code_of_attrs (attrs store_off))
  in
  let oracle_ok =
    pascal_roots_agree (attrs store_on) (Pag_eval.Oracle.eval g tree |> attrs)
  in
  let dyn_on, _ = Pag_eval.Dynamic.eval ~dag:true g tree in
  let dyn_ok = pascal_roots_agree (attrs dyn_on) (attrs store_off) in
  let compiled =
    {
      Driver.c_asm = Pascal_ag.code_of_attrs (attrs store_on);
      c_errors = Pascal_ag.errors_of_attrs (attrs store_on);
    }
  in
  let interp_ok =
    match (Driver.run_compiled ~input:[] compiled, Interp.run prog) with
    | Ok a, Ok b -> String.equal a b
    | _ -> false
  in
  let stores_ok = byte_identical && oracle_ok && dyn_ok && interp_ok in
  Printf.printf
    "equivalence: off-identical %b, oracle %b, dynamic-dag %b, interpreter %b\n"
    byte_identical oracle_ok dyn_ok interp_ok;
  (* --- parallel run on the sim transport: bytes on the wire --- *)
  let m = min 4 max_machines in
  let plain, cp = Driver.compile_parallel_sim (opts m) prog in
  let hc, ch =
    Driver.compile_parallel_sim { (opts m) with Runner.use_dag = true } prog
  in
  let bytes_cut =
    1.0 -. (float_of_int hc.Runner.r_bytes /. float_of_int plain.Runner.r_bytes)
  in
  let parallel_ok = String.equal (mask_asm cp.Driver.c_asm) (mask_asm ch.Driver.c_asm) in
  Printf.printf "\nparallel (%d machines, sim):\n" m;
  Printf.printf "%-28s %8.2fs %10d messages %10d bytes\n" "dag off"
    plain.Runner.r_time plain.Runner.r_messages plain.Runner.r_bytes;
  Printf.printf "%-28s %8.2fs %10d messages %10d bytes   (-%.1f%% bytes)\n"
    "dag on" hc.Runner.r_time hc.Runner.r_messages hc.Runner.r_bytes
    (100.0 *. bytes_cut);
  Printf.printf "parallel code agrees: %b\n" parallel_ok;
  Printf.printf
    "\ntargets: sequential static speedup >= 1.5x, wire bytes cut >= 30%%,\n\
     all equivalence gates true.\n";
  let oc = open_out "BENCH_4.json" in
  Printf.fprintf oc
    "{\n\
    \  \"id\": \"BENCH_4\",\n\
    \  \"bench\": \"DAG-shared subtree evaluation (--dag) vs plain \
     evaluation\",\n\
    \  \"workload\": %S,\n\
    \  \"tree_nodes\": %d,\n\
    \  \"runs\": %d,\n\
    \  \"static_off_seconds_per_run\": %.6f,\n\
    \  \"static_on_seconds_per_run\": %.6f,\n\
    \  \"speedup\": %.3f,\n\
    \  \"memo_hits\": %d,\n\
    \  \"memo_misses\": %d,\n\
    \  \"memo_hit_rate\": %.4f,\n\
    \  \"parallel\": { \"machines\": %d, \"bytes_off\": %d, \"bytes_on\": \
     %d, \"bytes_reduction\": %.4f, \"messages_off\": %d, \"messages_on\": \
     %d, \"code_agrees\": %b },\n\
    \  \"stores_agree\": %b\n\
     }\n"
    workload_name (Pag_core.Tree.size tree) runs off_t on_t speedup memo_hits
    memo_misses hit_rate m plain.Runner.r_bytes hc.Runner.r_bytes bytes_cut
    plain.Runner.r_messages hc.Runner.r_messages parallel_ok stores_ok;
  close_out oc;
  Printf.printf "wrote BENCH_4.json\n";
  if not stores_ok then failwith "E12: DAG-shared evaluation diverged"

(* ------------------------------------------------------------------ *)
(* E13: incremental re-evaluation (BENCH_5)                            *)
(* ------------------------------------------------------------------ *)

let replace_once ~needle ~by s =
  let n = String.length needle in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i ->
      Some (String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n))
  | None -> None

(* Lockstep walk of two structurally equal trees comparing every attribute
   instance — the bit-equivalence gate for grammars that consume no unique
   identifiers. *)
let trees_agree g sa ta sb tb =
  let ok = ref true in
  let rec go (a : Pag_core.Tree.t) (b : Pag_core.Tree.t) =
    (match a.Pag_core.Tree.prod with
    | None -> ()
    | Some _ ->
        Array.iter
          (fun (ad : Pag_core.Grammar.attr_decl) ->
            match
              ( Pag_eval.Store.get_opt sa a ad.Pag_core.Grammar.a_name,
                Pag_eval.Store.get_opt sb b ad.Pag_core.Grammar.a_name )
            with
            | Some x, Some y ->
                if not (Pag_core.Value.equal x y) then ok := false
            | _ -> ok := false)
          (Pag_core.Grammar.symbol g a.Pag_core.Tree.sym).Pag_core.Grammar
            .s_attrs);
    Array.iteri
      (fun i c -> go c b.Pag_core.Tree.children.(i))
      a.Pag_core.Tree.children
  in
  go ta tb;
  !ok

let e13_incremental () =
  sep "[E13] Incremental re-evaluation: edit-driven recompilation (BENCH_5)";
  let g = Pascal_ag.grammar in
  (* The worked example is the editing workload; when the file is not
     around (bench run outside the repo root) a small inline program with
     the same edit site stands in. *)
  let path = "examples/primes.pas" in
  let base_src, e13_workload =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (s, path)
    end
    else
      ( "program tiny;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
        \  repeat\n    i := i * 2;\n    s := s + i\n  until i > 100;\n\
        \  write(s);\n  writeln\nend.\n",
        "inline fallback program" )
  in
  (* The single-statement edit: the doubling loop becomes a tripling loop,
     and back. *)
  let variant_src =
    match replace_once ~needle:"i := i * 2" ~by:"i := i * 3" base_src with
    | Some s -> s
    | None -> failwith "E13: edit site not found in the base source"
  in
  let tree_of src = Pascal_ag.tree_of_program g (Parser.parse_program src) in
  let base_tree = tree_of base_src in
  Printf.printf "workload: %s, %d tree nodes; edit: i := i * 2 -> * 3\n"
    e13_workload
    (Pag_core.Tree.size base_tree);
  let session = Pag_eval.Incr.start g base_tree in
  let reps = if quick then 12 else 40 in
  let incr_t = ref 0.0 and scratch_t = ref 0.0 in
  let dirty = ref 0 and refired = ref 0 and cutoff = ref 0 in
  let fallbacks = ref 0 in
  let code_ok = ref true in
  for k = 1 to reps do
    let src = if k land 1 = 1 then variant_src else base_src in
    (* Two builds of the same source: the session and the from-scratch
       baseline must never share a physical tree (evaluation numbers the
       nodes). Builds are excluded from both timings. *)
    let edit_tree = tree_of src in
    let fresh = tree_of src in
    let t0 = Sys.time () in
    let st = Pag_eval.Incr.edit session edit_tree in
    incr_t := !incr_t +. Sys.time () -. t0;
    let t1 = Sys.time () in
    let scratch, _ = Pag_eval.Dynamic.eval g fresh in
    scratch_t := !scratch_t +. Sys.time () -. t1;
    dirty := !dirty + st.Pag_eval.Incr.wv_dirty;
    refired := !refired + st.Pag_eval.Incr.wv_refired;
    cutoff := !cutoff + st.Pag_eval.Incr.wv_cutoff;
    if st.Pag_eval.Incr.wv_fallbacks > 0 then incr fallbacks;
    (* Label numbers depend on firing order; the emitted instructions must
       not. *)
    code_ok :=
      !code_ok
      && pascal_roots_agree
           (Pag_eval.Store.root_attrs (Pag_eval.Incr.store session))
           (Pag_eval.Store.root_attrs scratch)
  done;
  let incr_avg = !incr_t /. float_of_int reps in
  let scratch_avg = !scratch_t /. float_of_int reps in
  let speedup = scratch_avg /. incr_avg in
  let live_rules =
    Pag_core.Tree.fold
      (fun acc (n : Pag_core.Tree.t) ->
        match n.Pag_core.Tree.prod with
        | None -> acc
        | Some p -> acc + Array.length p.Pag_core.Grammar.p_rules)
      0 base_tree
  in
  Printf.printf "\n%-34s %14s\n" "" "s/edit";
  Printf.printf "%-34s %14.6f\n" "from-scratch (dynamic)" scratch_avg;
  Printf.printf "%-34s %14.6f   (x%.1f)\n" "incremental" incr_avg speedup;
  Printf.printf
    "dirty %.0f / %d rules per edit, refired %.0f, cutoff %.0f, %d \
     fallbacks; code %s\n"
    (float_of_int !dirty /. float_of_int reps)
    live_rules
    (float_of_int !refired /. float_of_int reps)
    (float_of_int !cutoff /. float_of_int reps)
    !fallbacks
    (if !code_ok then "ok" else "MISMATCH");
  (* --- bit-equivalence on a grammar that consumes no unique ids --- *)
  let expr_ok =
    let eg = Pag_grammars.Expr_ag.grammar in
    let t seed =
      Pag_grammars.Expr_ag.random_program (Random.State.make [| seed |])
        ~depth:7
    in
    let s = Pag_eval.Incr.start eg (t 1) in
    List.for_all
      (fun seed ->
        ignore (Pag_eval.Incr.edit s (t seed));
        let fresh = t seed in
        let scratch, _ = Pag_eval.Dynamic.eval eg fresh in
        trees_agree eg (Pag_eval.Incr.store s) (Pag_eval.Incr.tree s) scratch
          fresh)
      [ 2; 3; 2; 4; 1 ]
  in
  Printf.printf "expr edits bit-identical to from-scratch: %b\n" expr_ok;
  (* --- the distributed wave: what the edit costs on the wire --- *)
  let m = min 4 max_machines in
  let sp =
    Session.spec ~granularity:0.1 ~librarian:false
      ~phase_label:Driver.phase_label m
  in
  let full =
    Runner.run_sim (Session.options sp) g (Some (Lazy.force Driver.plan))
      (tree_of base_src)
  in
  let es = Session.open_session sp g (tree_of base_src) in
  let waves =
    List.map
      (fun src -> Session.edit es (tree_of src))
      [ variant_src; base_src; variant_src; base_src ]
  in
  let avg f = List.fold_left (fun a r -> a +. f r) 0.0 waves /. 4.0 in
  let bytes_incr = avg (fun r -> float_of_int r.Session.er_bytes_incr) in
  let bytes_full = avg (fun r -> float_of_int r.Session.er_bytes_full) in
  let latency = avg (fun r -> r.Session.er_latency) in
  let boundary_changed =
    avg (fun r -> float_of_int r.Session.er_boundary_changed)
  in
  let boundary_total =
    avg (fun r -> float_of_int r.Session.er_boundary_total)
  in
  Printf.printf "\ndistributed wave (%d machines, sim):\n" m;
  Printf.printf
    "%-34s %10.0f bytes/edit vs %10.0f full  (-%.1f%%)\n" "wire"
    bytes_incr bytes_full
    (100.0 *. (1.0 -. (bytes_incr /. bytes_full)));
  Printf.printf "%-34s %10.4fs vs %10.4fs full recompile\n" "latency" latency
    full.Runner.r_time;
  Printf.printf "%-34s %10.1f of %.1f changed\n" "boundary attributes"
    boundary_changed boundary_total;
  Printf.printf
    "\ntargets: incremental >= 5x from-scratch on a single-statement edit;\n\
     emitted code identical (modulo label numbering); expr attribute\n\
     values bit-identical.\n";
  let all_ok = speedup >= 5.0 && !code_ok && expr_ok in
  let oc = open_out "BENCH_5.json" in
  Printf.fprintf oc
    "{\n\
    \  \"id\": \"BENCH_5\",\n\
    \  \"bench\": \"incremental re-evaluation: single-statement edit vs \
     from-scratch recompilation\",\n\
    \  \"workload\": %S,\n\
    \  \"tree_nodes\": %d,\n\
    \  \"rule_instances\": %d,\n\
    \  \"edits\": %d,\n\
    \  \"scratch_seconds_per_edit\": %.6f,\n\
    \  \"incremental_seconds_per_edit\": %.6f,\n\
    \  \"speedup\": %.2f,\n\
    \  \"avg_dirty\": %.1f,\n\
    \  \"avg_refired\": %.1f,\n\
    \  \"avg_cutoff\": %.1f,\n\
    \  \"fallbacks\": %d,\n\
    \  \"code_ok\": %b,\n\
    \  \"expr_bit_identical\": %b,\n\
    \  \"distributed\": { \"machines\": %d, \"bytes_per_edit\": %.0f, \
     \"bytes_full_recompile\": %.0f, \"latency\": %.6f, \
     \"full_recompile_latency\": %.6f, \"boundary_changed\": %.1f, \
     \"boundary_total\": %.1f },\n\
    \  \"speedup_ge_5\": %b\n\
     }\n"
    e13_workload
    (Pag_core.Tree.size base_tree)
    live_rules reps scratch_avg incr_avg speedup
    (float_of_int !dirty /. float_of_int reps)
    (float_of_int !refired /. float_of_int reps)
    (float_of_int !cutoff /. float_of_int reps)
    !fallbacks !code_ok expr_ok m bytes_incr bytes_full latency
    full.Runner.r_time boundary_changed boundary_total (speedup >= 5.0);
  close_out oc;
  Printf.printf "wrote BENCH_5.json\n";
  if not all_ok then failwith "E13: incremental re-evaluation gate failed"

(* ------------------------------------------------------------------ *)
(* E14: work-stealing instance scheduler (BENCH_6)                     *)
(* ------------------------------------------------------------------ *)

let e14_steal () =
  sep "[E14] Work-stealing scheduler vs static fragment schedule (BENCH_6)";
  let chain = if quick then 200 else 400 in
  let skewed_prog = Progen.skewed_program ~chain () in
  let skewed_name = Printf.sprintf "Progen.skewed_program chain=%d" chain in
  let balanced_prog = Lazy.force workload in
  let machine_counts =
    if quick then [ 1; 2; 4; 8 ] else [ 1; 2; 4; 8; 16; 32; 64 ]
  in
  let opts_s ~schedule m =
    Session.options
      (Session.spec ~schedule ~phase_label:Driver.phase_label m)
  in
  (* One sweep: combined static fragments vs work stealing, same workload,
     same machine counts. The equivalence gate compares every run's masked
     assembly against the 1-machine combined run (label numbers depend on
     uid striping, the instruction stream must not). *)
  let sweep name prog =
    Printf.printf "\n%s:\n" name;
    Printf.printf "%-9s %-12s %-12s %-10s %-6s\n" "machines" "combined"
      "steal" "ratio" "code";
    let reference = ref "" in
    List.map
      (fun m ->
        let rc, cc =
          Driver.compile_parallel_sim (opts_s ~schedule:`Static m) prog
        in
        let rs, cs =
          Driver.compile_parallel_sim (opts_s ~schedule:`Steal m) prog
        in
        if m = 1 then reference := mask_asm cc.Driver.c_asm;
        let code_ok =
          String.equal !reference (mask_asm cc.Driver.c_asm)
          && String.equal !reference (mask_asm cs.Driver.c_asm)
        in
        let ratio = rc.Runner.r_time /. rs.Runner.r_time in
        Printf.printf "%-9d %10.2fs %10.2fs   x%-8.2f %s\n" m
          rc.Runner.r_time rs.Runner.r_time ratio
          (if code_ok then "ok" else "MISMATCH");
        (m, rc.Runner.r_time, rs.Runner.r_time, ratio, code_ok))
      machine_counts
  in
  let skew_rows = sweep skewed_name skewed_prog in
  let bal_rows = sweep workload_name balanced_prog in
  let ratio_at rows m =
    List.fold_left
      (fun acc (m', _, _, r, _) -> if m' = m then r else acc)
      nan rows
  in
  let skew_ratio = ratio_at skew_rows 8 in
  let bal_ratio = ratio_at bal_rows 8 in
  (* steal-traffic counters on the headline configuration *)
  let r8, _ =
    Driver.compile_parallel_sim
      { (opts_s ~schedule:`Steal 8) with Runner.telemetry = true }
      skewed_prog
  in
  let reg8 = r8.Runner.r_report.Pag_obs.Obs.Report.rp_metrics in
  let cv n = Pag_obs.Obs.Metrics.counter_value reg8 n in
  Printf.printf
    "\nsteal traffic (skewed, 8 machines): %d fires, %d probe attempts, %d \
     hits, %d instances stolen\n"
    (cv "steal.fires") (cv "steal.attempts") (cv "steal.successes")
    (cv "steal.stolen");
  (* real-domains runs: Engine.run_steal on min(machines, cores) domains;
     only the equivalence result is gated, the wall-clock time is
     recorded. *)
  let dm = if quick then 2 else 4 in
  let domains_rows =
    List.map
      (fun (name, prog) ->
        let rd, cd =
          Driver.compile_parallel_domains (opts_s ~schedule:`Steal dm) prog
        in
        let seq = Driver.compile ~evaluator:`Static prog in
        let ok =
          String.equal (mask_asm cd.Driver.c_asm) (mask_asm seq.Driver.c_asm)
        in
        Printf.printf "domains (-m %d, %d domains): %-38s %8.3fs wall  code %s\n"
          dm rd.Runner.r_report.Pag_obs.Obs.Report.rp_domains name
          rd.Runner.r_time
          (if ok then "ok" else "MISMATCH");
        (name, rd.Runner.r_time, ok))
      [ (workload_name, balanced_prog); (skewed_name, skewed_prog) ]
  in
  let all_code_ok =
    List.for_all (fun (_, _, _, _, ok) -> ok) (skew_rows @ bal_rows)
    && List.for_all (fun (_, _, ok) -> ok) domains_rows
  in
  let skew_gate = skew_ratio >= 1.2 in
  let bal_gate = bal_ratio >= 0.95 in
  Printf.printf
    "\ntargets: steal >= 1.2x combined on the skewed workload at 8 machines\n\
     (got x%.2f), >= 0.95x on the balanced workload (got x%.2f), masked\n\
     code identical on every swept configuration (%b).\n"
    skew_ratio bal_ratio all_code_ok;
  let row_json (m, tc, ts, r, ok) =
    Printf.sprintf
      "    { \"machines\": %d, \"combined\": %.4f, \"steal\": %.4f, \
       \"ratio\": %.3f, \"code_ok\": %b }"
      m tc ts r ok
  in
  let rows_json rows = String.concat ",\n" (List.map row_json rows) in
  let oc = open_out "BENCH_6.json" in
  Printf.fprintf oc
    "{\n\
    \  \"id\": \"BENCH_6\",\n\
    \  \"bench\": \"work-stealing instance scheduler vs static fragment \
     schedule (sim)\",\n\
    \  \"balanced_workload\": %S,\n\
    \  \"skewed_workload\": %S,\n\
    \  \"skewed\": [\n%s\n  ],\n\
    \  \"balanced\": [\n%s\n  ],\n\
    \  \"steal_at_8_skewed\": { \"fires\": %d, \"attempts\": %d, \
     \"successes\": %d, \"stolen\": %d },\n\
    \  \"domains\": [\n%s\n  ],\n\
    \  \"skewed_ratio_at_8\": %.3f,\n\
    \  \"balanced_ratio_at_8\": %.3f,\n\
    \  \"gates\": { \"skewed_ge_1_2\": %b, \"balanced_ge_0_95\": %b, \
     \"all_code_ok\": %b }\n\
     }\n"
    workload_name skewed_name (rows_json skew_rows) (rows_json bal_rows)
    (cv "steal.fires") (cv "steal.attempts") (cv "steal.successes")
    (cv "steal.stolen")
    (String.concat ",\n"
       (List.map
          (fun (n, t, ok) ->
            Printf.sprintf
              "    { \"workload\": %S, \"machines\": %d, \"wall_seconds\": \
               %.4f, \"code_ok\": %b }"
              n dm t ok)
          domains_rows))
    skew_ratio bal_ratio skew_gate bal_gate all_code_ok;
  close_out oc;
  Printf.printf "wrote BENCH_6.json\n";
  if not (skew_gate && bal_gate && all_code_ok) then
    failwith "E14: work-stealing gate failed"

(* ------------------------------------------------------------------ *)
(* E15: multi-tenant compile service (BENCH_7)                         *)
(* ------------------------------------------------------------------ *)

(* Sustained edit throughput and latency percentiles of the resident
   compile service: N concurrent edit sessions multiplexed over a bounded
   worker set, on the netsim machine model (virtual time, shared
   Ethernet) and on real domains (wall time). Tenants draw from three
   small program families; every swept configuration is gated on each
   tenant's final masked code equalling an isolated single-session replay
   of the same edit stream. *)
let e15_service () =
  sep "[E15] Multi-tenant compile service: resident session pool (BENCH_7)";
  let g = Pascal_ag.grammar in
  let src family rhs =
    Printf.sprintf
      "program p;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
      \  repeat\n    i := i * %d;\n    s := %s\n  until i > 100;\n\
      \  write(s)\nend.\n"
      (family + 2) rhs
  in
  let tree family rhs =
    Pascal_ag.tree_of_program g (Parser.parse_program (src family rhs))
  in
  let families = 3 in
  (* each tenant's stream: base -> structural edit -> back to base *)
  let base = "s + i" and alt = "s + i * 2" in
  let stream edits = if edits >= 2 then [ alt; base ] else [ alt ] in
  (* one isolated reference session per family: the masked code every
     tenant of that family must end on *)
  let reference ~edits family =
    let es =
      Session.open_session
        (Session.spec ~granularity:0.1 ~librarian:false 2)
        g (tree family base)
    in
    List.iter (fun rhs -> ignore (Session.edit es (tree family rhs))) (stream edits);
    masked_code (Pag_eval.Store.root_attrs (Session.store es))
  in
  let run ~net ~transport ~sessions ~workers ~policy ~edits =
    let sv = Service.create (Service.config ~policy ~transport ~net workers) g in
    for i = 0 to sessions - 1 do
      Service.open_tenant sv (Printf.sprintf "t%06d" i) (tree (i mod families) base)
    done;
    List.iter
      (fun rhs ->
        for i = 0 to sessions - 1 do
          ignore
            (Service.submit sv (Printf.sprintf "t%06d" i) (tree (i mod families) rhs))
        done;
        Service.run_round sv)
      (stream edits);
    Service.drain sv;
    let refs = Array.init families (fun f -> reference ~edits f) in
    let finals_ok = ref true in
    for i = 0 to sessions - 1 do
      let code =
        masked_code
          (Pag_eval.Store.root_attrs
             (Service.tenant_store sv (Printf.sprintf "t%06d" i)))
      in
      if not (String.equal code refs.(i mod families)) then finals_ok := false
    done;
    (Service.stats sv, !finals_ok)
  in
  let policy_name = function
    | Service.Round_robin -> "round-robin"
    | Service.Shortest_queue -> "shortest-queue"
  in
  let transport_name = function `Sim -> "sim" | `Domains -> "domains" in
  Printf.printf "%-9s %-9s %-9s %-8s %-15s %-12s %-10s %-10s %-5s\n"
    "transport" "net" "sessions" "workers" "policy" "edits/sec" "p50 ms"
    "p99 ms" "code";
  let row ?(net = Netsim.Ethernet.default_params) ~transport ~sessions ~workers
      ~policy ~edits () =
    let netname = if net.Netsim.Ethernet.switched then "switched" else "shared" in
    let st, finals_ok = run ~net ~transport ~sessions ~workers ~policy ~edits in
    Printf.printf "%-9s %-9s %-9d %-8d %-15s %12.1f %10.3f %10.3f %s\n"
      (transport_name transport) netname sessions workers (policy_name policy)
      st.Service.st_edits_per_sec
      (st.Service.st_p50 *. 1e3)
      (st.Service.st_p99 *. 1e3)
      (if finals_ok then "ok" else "MISMATCH");
    (transport, netname, sessions, workers, policy, st, finals_ok)
  in
  (* netsim sweep: both policies at each session count, plus a single
     large row (10k sessions, one edit each) in full mode *)
  let session_counts = [ 100; 1000 ] in
  let sim_workers = 8 in
  let small_rows =
    List.concat_map
      (fun sessions ->
        List.map
          (fun policy ->
            row ~transport:`Sim ~sessions ~workers:sim_workers ~policy
              ~edits:2 ())
          [ Service.Round_robin; Service.Shortest_queue ])
      session_counts
  in
  (* The shared medium is the only bottleneck above, so both admission
     policies price alike (the rows are bit-identical). The switched
     fabric gives every worker its own full-bandwidth port, which makes
     the assignment observable — and a skewed queue-depth mix (every
     tenth tenant queues an 8-edit stream, the rest one edit) gives the
     policies something to disagree about: shortest-queue must now beat
     round-robin. *)
  let switched_row policy =
    let sessions = 1000 in
    let heavy = [ alt; base; alt; base; alt; base; alt; base ] in
    let light = [ alt ] in
    let sv =
      Service.create
        (Service.config ~policy ~net:Netsim.Ethernet.switched_params
           sim_workers)
        g
    in
    for i = 0 to sessions - 1 do
      Service.open_tenant sv (Printf.sprintf "t%06d" i) (tree (i mod families) base)
    done;
    for i = 0 to sessions - 1 do
      List.iter
        (fun rhs ->
          ignore (Service.submit sv (Printf.sprintf "t%06d" i) (tree (i mod families) rhs)))
        (if i mod 10 = 0 then heavy else light)
    done;
    Service.drain sv;
    let replay family rhss =
      let es =
        Session.open_session
          (Session.spec ~granularity:0.1 ~librarian:false 2)
          g (tree family base)
      in
      List.iter (fun rhs -> ignore (Session.edit es (tree family rhs))) rhss;
      masked_code (Pag_eval.Store.root_attrs (Session.store es))
    in
    let ref_heavy = Array.init families (fun f -> replay f heavy) in
    let ref_light = Array.init families (fun f -> replay f light) in
    let finals_ok = ref true in
    for i = 0 to sessions - 1 do
      let code =
        masked_code
          (Pag_eval.Store.root_attrs
             (Service.tenant_store sv (Printf.sprintf "t%06d" i)))
      in
      let want =
        (if i mod 10 = 0 then ref_heavy else ref_light).(i mod families)
      in
      if not (String.equal code want) then finals_ok := false
    done;
    let st = Service.stats sv in
    Printf.printf "%-9s %-9s %-9d %-8d %-15s %12.1f %10.3f %10.3f %s\n"
      "sim" "switched" sessions sim_workers (policy_name policy)
      st.Service.st_edits_per_sec
      (st.Service.st_p50 *. 1e3)
      (st.Service.st_p99 *. 1e3)
      (if !finals_ok then "ok" else "MISMATCH");
    (`Sim, "switched", sessions, sim_workers, policy, st, !finals_ok)
  in
  let switched_rows =
    List.map switched_row [ Service.Round_robin; Service.Shortest_queue ]
  in
  let big_rows =
    if quick then []
    else
      [
        row ~transport:`Sim ~sessions:10_000 ~workers:sim_workers
          ~policy:Service.Round_robin ~edits:1 ();
      ]
  in
  let sim_rows = small_rows @ switched_rows @ big_rows in
  (* real domains: wall-clock rows up to the core count *)
  let cores = Domain.recommended_domain_count () in
  let domain_workers =
    List.filter (fun w -> w <= cores) [ 1; 2; 4; 8 ]
    |> fun ws -> if ws = [] then [ 1 ] else ws
  in
  let dom_sessions = if quick then 16 else 64 in
  let dom_rows =
    List.map
      (fun workers ->
        row ~transport:`Domains ~sessions:dom_sessions ~workers
          ~policy:Service.Round_robin ~edits:2 ())
      domain_workers
  in
  let all_rows = sim_rows @ dom_rows in
  let all_finals_ok =
    List.for_all (fun (_, _, _, _, _, _, ok) -> ok) all_rows
  in
  let big_row_ok =
    List.exists
      (fun (tr, _, sessions, _, _, _, _) -> tr = `Sim && sessions >= 1000)
      all_rows
  in
  let switched_p50 policy =
    List.find_map
      (fun (_, net, _, _, p, st, _) ->
        if net = "switched" && p = policy then Some st.Service.st_p50 else None)
      all_rows
  in
  let policy_sensitive =
    match
      (switched_p50 Service.Shortest_queue, switched_p50 Service.Round_robin)
    with
    | Some sq, Some rr -> sq < rr
    | _ -> false
  in
  Printf.printf
    "\ntargets: every swept config's per-tenant finals masked-equal to an\n\
     isolated session replay (%b); a netsim row at >= 1000 concurrent\n\
     sessions (%b); the switched fabric separates shortest-queue from\n\
     round-robin (%b).\n"
    all_finals_ok big_row_ok policy_sensitive;
  let row_json (tr, net, sessions, workers, policy, st, ok) =
    Printf.sprintf
      "    { \"transport\": %S, \"net\": %S, \"sessions\": %d, \
       \"workers\": %d, \"policy\": %S, \"edits\": %d, \
       \"rounds\": %d, \"edits_per_sec\": %.2f, \"p50_ms\": %.4f, \
       \"p99_ms\": %.4f, \"rejected\": %d, \"evictions\": %d, \
       \"retransmits\": %d, \"finals_ok\": %b }"
      (transport_name tr) net sessions workers (policy_name policy)
      st.Service.st_edits st.Service.st_rounds st.Service.st_edits_per_sec
      (st.Service.st_p50 *. 1e3)
      (st.Service.st_p99 *. 1e3)
      st.Service.st_rejected st.Service.st_evictions st.Service.st_retransmits
      ok
  in
  let oc = open_out "BENCH_7.json" in
  Printf.fprintf oc
    "{\n\
    \  \"id\": \"BENCH_7\",\n\
    \  \"bench\": \"multi-tenant compile service: resident session pool \
     under admission scheduling\",\n\
    \  \"program_families\": %d,\n\
    \  \"rows\": [\n%s\n  ],\n\
    \  \"gates\": { \"all_finals_ok\": %b, \"netsim_ge_1000_sessions\": %b, \
     \"switched_policy_sensitive\": %b }\n\
     }\n"
    families
    (String.concat ",\n" (List.map row_json all_rows))
    all_finals_ok big_row_ok policy_sensitive;
  close_out oc;
  Printf.printf "wrote BENCH_7.json\n";
  if not (all_finals_ok && big_row_ok && policy_sensitive) then
    failwith "E15: multi-tenant service gate failed"

(* ------------------------------------------------------------------ *)
(* E16: provenance recording overhead (BENCH_8)                        *)
(* ------------------------------------------------------------------ *)

type e16_row = {
  p_name : string;
  p_vt : float;
  p_vt_ok : bool;
  p_code_ok : bool;
  p_off : float;
  p_trace : float;
  p_prov : float;
  p_trace_ratio : float;
  p_prov_ratio : float;
  p_noise : float;
  p_firings : int;
  p_dropped : int;
  p_gate : bool;
}

(* CPU cost of the per-firing provenance ring against trace-only
   telemetry and the all-off baseline, on the paper workload and the
   skewed generator at 8 netsim machines under the stealing scheduler
   (the BENCH_6 headline configuration). Simulated virtual time is
   deterministic, so "the disabled path is within noise of the PR-6
   numbers" is asserted in its exact form: all three configurations must
   report bit-identical virtual times and masked assembly — recording
   must never perturb the schedule. Real cost is measured as process CPU
   time ([Sys.time]) over batches of compiles, with the configurations
   interleaved inside every round and compared as per-round ratios; the
   median ratio cancels the slow drift a shared container superimposes on
   back-to-back timings, which wall-clock medians of isolated samples do
   not (their round-to-round spread exceeds the recording cost itself).
   The gate is median prov/off ratio < 1.05 plus a noise allowance
   measured the same way: the spread of off/off ratios across rounds —
   the apparatus's own disagreement when comparing a configuration
   against itself. *)
let e16_provenance () =
  sep "[E16] Provenance recording overhead at 8 machines (BENCH_8)";
  let machines = 8 in
  let rounds = if quick then 5 else 7 in
  let batch = if quick then 4 else 6 in
  let chain = if quick then 200 else 400 in
  let skewed_prog = Progen.skewed_program ~chain () in
  let skewed_name = Printf.sprintf "Progen.skewed_program chain=%d" chain in
  let base_opts =
    Session.options
      (Session.spec ~schedule:`Steal ~phase_label:Driver.phase_label machines)
  in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let measure name prog =
    Printf.printf "\n%s:\n" name;
    let opt_trace = { base_opts with Runner.telemetry = true } in
    let opt_prov = { base_opts with Runner.provenance = true } in
    let r_off, c_off = Driver.compile_parallel_sim base_opts prog in
    let r_trace, c_trace = Driver.compile_parallel_sim opt_trace prog in
    let r_prov, c_prov = Driver.compile_parallel_sim opt_prov prog in
    let p_vt_ok =
      r_off.Runner.r_time = r_trace.Runner.r_time
      && r_off.Runner.r_time = r_prov.Runner.r_time
    in
    let p_code_ok =
      let reference = mask_asm c_off.Driver.c_asm in
      String.equal reference (mask_asm c_trace.Driver.c_asm)
      && String.equal reference (mask_asm c_prov.Driver.c_asm)
    in
    let sum f =
      List.fold_left (fun n (p, _) -> n + f p) 0 r_prov.Runner.r_prov
    in
    let p_firings = sum Pag_obs.Prov.total in
    let p_dropped = sum Pag_obs.Prov.dropped in
    (* One sample = CPU seconds per compile over a batch; one round =
       off / off / trace / prov back to back, the second off batch
       pricing the apparatus itself. *)
    let cpu o =
      let t0 = Sys.time () in
      for _ = 1 to batch do
        ignore (Driver.compile_parallel_sim o prog)
      done;
      (Sys.time () -. t0) /. float_of_int batch
    in
    ignore (cpu base_opts);
    ignore (cpu opt_prov);
    (* warmup *)
    let round () =
      let off = cpu base_opts in
      let off' = cpu base_opts in
      let trace = cpu opt_trace in
      let prov = cpu opt_prov in
      (off, off' /. off, trace /. off, prov /. off)
    in
    let rs = List.init rounds (fun _ -> round ()) in
    let p_off = median (List.map (fun (o, _, _, _) -> o) rs) in
    let self = List.map (fun (_, s, _, _) -> s) rs in
    let p_trace_ratio = median (List.map (fun (_, _, t, _) -> t) rs) in
    let p_prov_ratio = median (List.map (fun (_, _, _, p) -> p) rs) in
    let p_noise =
      List.fold_left (fun m s -> max m (abs_float (s -. 1.0))) 0.0 self
    in
    let p_trace = p_off *. p_trace_ratio in
    let p_prov = p_off *. p_prov_ratio in
    let pct r = 100.0 *. (r -. 1.0) in
    let p_gate = p_prov_ratio <= 1.05 +. p_noise in
    Printf.printf "%-24s %10.4fs cpu/run\n" "all off" p_off;
    Printf.printf "%-24s %10.4fs cpu/run  (%+.2f%%)\n" "trace only" p_trace
      (pct p_trace_ratio);
    Printf.printf "%-24s %10.4fs cpu/run  (%+.2f%%)  %d firings, %d dropped\n"
      "provenance ring" p_prov (pct p_prov_ratio) p_firings p_dropped;
    Printf.printf "%-24s %9.2f%%   virtual %s, code %s\n"
      "off-vs-off noise" (100.0 *. p_noise)
      (if p_vt_ok then "identical" else "PERTURBED")
      (if p_code_ok then "ok" else "MISMATCH");
    {
      p_name = name;
      p_vt = r_off.Runner.r_time;
      p_vt_ok;
      p_code_ok;
      p_off;
      p_trace;
      p_prov;
      p_trace_ratio;
      p_prov_ratio;
      p_noise;
      p_firings;
      p_dropped;
      p_gate;
    }
  in
  let rows =
    [
      measure workload_name (Lazy.force workload); measure skewed_name skewed_prog;
    ]
  in
  let vt_gate = List.for_all (fun r -> r.p_vt_ok) rows in
  let code_gate = List.for_all (fun r -> r.p_code_ok) rows in
  let drop_gate = List.for_all (fun r -> r.p_dropped = 0) rows in
  let overhead_gate = List.for_all (fun r -> r.p_gate) rows in
  Printf.printf
    "\ntargets: virtual time and masked code identical across all-off /\n\
     trace-only / provenance (%b, %b — the disabled path cannot regress a\n\
     schedule it never observes), no ring overflow (%b), provenance CPU\n\
     overhead < 5%% of baseline plus the off-vs-off noise allowance (%b).\n"
    vt_gate code_gate drop_gate overhead_gate;
  let row_json r =
    Printf.sprintf
      "    { \"workload\": %S, \"virtual_seconds\": %.4f, \
       \"virtual_identical\": %b, \"code_ok\": %b, \"off_cpu_s\": %.6f, \
       \"trace_cpu_s\": %.6f, \"prov_cpu_s\": %.6f, \
       \"trace_cpu_ratio\": %.4f, \"prov_cpu_ratio\": %.4f, \
       \"noise_ratio\": %.4f, \"firings\": %d, \"dropped\": %d, \
       \"overhead_gate_ok\": %b }"
      r.p_name r.p_vt r.p_vt_ok r.p_code_ok r.p_off r.p_trace r.p_prov
      r.p_trace_ratio r.p_prov_ratio r.p_noise r.p_firings r.p_dropped r.p_gate
  in
  let oc = open_out "BENCH_8.json" in
  Printf.fprintf oc
    "{\n\
    \  \"id\": \"BENCH_8\",\n\
    \  \"bench\": \"provenance ring recording overhead: all-off vs \
     trace-only vs provenance (steal schedule, sim transport)\",\n\
    \  \"machines\": %d,\n\
    \  \"rounds\": %d,\n\
    \  \"compiles_per_batch\": %d,\n\
    \  \"rows\": [\n%s\n  ],\n\
    \  \"gates\": { \"virtual_time_identical\": %b, \"code_identical\": %b, \
     \"nothing_dropped\": %b, \"prov_overhead_lt_5pct\": %b }\n\
     }\n"
    machines rounds batch
    (String.concat ",\n" (List.map row_json rows))
    vt_gate code_gate drop_gate overhead_gate;
  close_out oc;
  Printf.printf "wrote BENCH_8.json\n";
  if not (vt_gate && code_gate && drop_gate && overhead_gate) then
    failwith "E16: provenance overhead gate failed"

(* ------------------------------------------------------------------ *)
(* E17: parallel batched self-adjusting re-evaluation (BENCH_9)        *)
(* ------------------------------------------------------------------ *)

(* Merged dirty cones vs one-at-a-time incremental edits. The workload is
   a Pascal program with K independent edit sites (K assignment statements
   whose constants change); applying all K edits as one batch merges K
   disjoint dirty cones into a single co-scheduled refire wave — one
   dispatch, steal-shared rounds, one result — where serial application
   pays K full round trips. Gates: batched throughput >= 3x serial at 8
   netsim machines, finals masked-equal to the serial session AND a
   from-scratch compile on every swept config, a real-domains wave with
   equal finals, the batched service sweep at 1k sessions halving the
   re-measured serial p50, and provenance blame accounting for exactly the
   wave's fired work. *)
let e17_batched () =
  sep "[E17] Batched edit waves: merged cones vs one-at-a-time (BENCH_9)";
  let g = Pascal_ag.grammar in
  let sites = if quick then 6 else 12 in
  let src cs =
    let stmts = List.map (fun c -> Printf.sprintf "    s := s + i * %d" c) cs in
    Printf.sprintf
      "program p;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
      \  repeat\n    i := i * 2;\n%s\n  until i > 100;\n  write(s)\nend.\n"
      (String.concat ";\n" stmts)
  in
  let tree cs = Pascal_ag.tree_of_program g (Parser.parse_program (src cs)) in
  let base = List.init sites (fun k -> k + 2) in
  (* step j: sites 0..j-1 already edited (constant bumped by 100) — so the
     batch [step 1; ...; step K] is K single-site edits, each independent
     of every other's dirty cone *)
  let step j = List.init sites (fun k -> if k < j then k + 102 else k + 2) in
  let steps = List.init sites (fun j -> step (j + 1)) in
  let final_ref =
    let scratch, _ = Pag_eval.Dynamic.eval g (tree (step sites)) in
    masked_code (Pag_eval.Store.root_attrs scratch)
  in
  let session machines =
    Session.open_session ~frontier:1.0
      (Session.spec ~granularity:0.05 ~librarian:false ~schedule:`Steal
         machines)
      g (tree base)
  in
  let masked es = masked_code (Pag_eval.Store.root_attrs (Session.store es)) in
  Printf.printf "%-9s %-12s %-12s %-9s %-7s %-7s %-9s %-5s\n" "machines"
    "serial e/s" "batched e/s" "speedup" "waves" "rounds" "messages" "code";
  let sweep machines =
    let es = session machines in
    let serial_lat, serial_msgs =
      List.fold_left
        (fun (lat, msgs) cs ->
          let r = Session.edit es (tree cs) in
          (lat +. r.Session.er_latency, msgs + r.Session.er_messages))
        (0.0, 0) steps
    in
    let eb = session machines in
    let r = Session.edit_batch eb (List.map tree steps) in
    let serial_eps = float_of_int sites /. serial_lat in
    let batched_eps = float_of_int sites /. r.Session.br_latency in
    let speedup = batched_eps /. serial_eps in
    let code_ok =
      String.equal (masked eb) (masked es) && String.equal (masked eb) final_ref
    in
    Printf.printf "%-9d %12.1f %12.1f %8.2fx %-7d %-7d %-9d %s\n" machines
      serial_eps batched_eps speedup r.Session.br_waves r.Session.br_rounds
      r.Session.br_messages
      (if code_ok then "ok" else "MISMATCH");
    (machines, serial_eps, batched_eps, speedup, serial_msgs, r, code_ok)
  in
  let machine_counts = if quick then [ 2; 4; 8 ] else [ 1; 2; 4; 8 ] in
  let rows = List.map sweep machine_counts in
  let all_code_ok = List.for_all (fun (_, _, _, _, _, _, ok) -> ok) rows in
  let headline =
    List.find_opt (fun (m, _, _, _, _, _, _) -> m = 8) rows
  in
  let speedup_ok =
    match headline with Some (_, _, _, s, _, _, _) -> s >= 3.0 | None -> false
  in
  (* batched service sweep: 1k resident tenants of the K-site program,
     each queueing its full stream of independent single-site edits, then
     drained with batch=8 vs the re-measured batch=1 baseline. The edits
     are token-level (tiny cones), so per-edit fixed costs — dispatch and
     result messages on the one shared wire, each result carrying the full
     changed code attribute — dominate; merging a tenant's queue into one
     wave ships one dispatch and one result per chunk instead of per edit,
     which is exactly the BENCH_7 queue-bound ceiling this PR attacks. *)
  let svc_sessions = if quick then 200 else 1000 in
  let svc_ref = final_ref in
  let svc_run batch =
    let sv = Service.create (Service.config ~batch 8) g in
    for i = 0 to svc_sessions - 1 do
      Service.open_tenant sv (Printf.sprintf "t%04d" i) (tree base)
    done;
    List.iter
      (fun cs ->
        for i = 0 to svc_sessions - 1 do
          ignore (Service.submit sv (Printf.sprintf "t%04d" i) (tree cs))
        done)
      steps;
    Service.drain sv;
    let ok = ref true in
    for i = 0 to svc_sessions - 1 do
      let code =
        masked_code
          (Pag_eval.Store.root_attrs
             (Service.tenant_store sv (Printf.sprintf "t%04d" i)))
      in
      if not (String.equal code svc_ref) then ok := false
    done;
    (Service.stats sv, !ok)
  in
  let st1, svc1_ok = svc_run 1 in
  let st8, svc8_ok = svc_run 8 in
  let svc_gain = st1.Service.st_p50 /. st8.Service.st_p50 in
  let svc_ok = svc1_ok && svc8_ok in
  Printf.printf
    "service sweep (%d sessions, 8 workers, %d-edit streams): p50 %.3f ms \
     serial -> %.3f ms batched (%.2fx), finals %s\n"
    svc_sessions sites
    (st1.Service.st_p50 *. 1e3)
    (st8.Service.st_p50 *. 1e3)
    svc_gain
    (if svc_ok then "ok" else "MISMATCH");
  let svc_gain_ok = svc_gain >= 2.0 in
  (* provenance rider: a batched wave recorded in the ring must blame
     exactly its fired work — the firing count grows by the wave's refires
     and the critical path stays within the makespan *)
  let ps =
    Session.open_session ~frontier:1.0
      (Session.spec ~granularity:0.05 ~librarian:false ~schedule:`Steal
         ~provenance:true 8)
      g (tree base)
  in
  let firings_now () =
    Pag_eval.Causal.firings
      (Pag_eval.Causal.build [ (Session.prov ps, Session.engine ps) ])
  in
  let f0 = firings_now () in
  let pr = Session.edit_batch ps (List.map tree steps) in
  let f1 = firings_now () in
  let profile =
    Pag_eval.Causal.profile
      (Pag_eval.Causal.build [ (Session.prov ps, Session.engine ps) ])
  in
  let prov_ok =
    f1 - f0 = pr.Session.br_refired
    && profile.Pag_eval.Causal.pr_work > 0.0
    && profile.Pag_eval.Causal.pr_critical
       <= profile.Pag_eval.Causal.pr_makespan +. 1e-9
    && String.length (Pag_eval.Causal.profile_json profile) > 2
  in
  Printf.printf
    "provenance rider: wave fired %d rules, ring grew by %d firings, \
     critical %.4fs <= makespan %.4fs: %s\n"
    pr.Session.br_refired (f1 - f0) profile.Pag_eval.Causal.pr_critical
    profile.Pag_eval.Causal.pr_makespan
    (if prov_ok then "ok" else "MISMATCH");
  Printf.printf
    "\ntargets: batched >= 3x serial edits/sec at 8 machines (%b), finals\n\
     masked-equal to serial and from-scratch on every config (%b), service\n\
     p50 at %d sessions improved >= 2x (%b), wave blame sums to fired work\n\
     (%b).\n"
    speedup_ok all_code_ok svc_sessions svc_gain_ok prov_ok;
  let row_json (m, ser, bat, sp, smsgs, r, ok) =
    Printf.sprintf
      "    { \"machines\": %d, \"serial_edits_per_sec\": %.2f, \
       \"batched_edits_per_sec\": %.2f, \"speedup\": %.3f, \
       \"serial_messages\": %d, \"batched_messages\": %d, \"waves\": %d, \
       \"conflicts\": %d, \"rounds\": %d, \"refired\": %d, \"cutoff\": %d, \
       \"bytes\": %d, \"finals_ok\": %b }"
      m ser bat sp smsgs r.Session.br_messages r.Session.br_waves
      r.Session.br_conflicts r.Session.br_rounds r.Session.br_refired
      r.Session.br_cutoff r.Session.br_bytes ok
  in
  let oc = open_out "BENCH_9.json" in
  Printf.fprintf oc
    "{\n\
    \  \"id\": \"BENCH_9\",\n\
    \  \"bench\": \"parallel batched self-adjusting re-evaluation: merged \
     dirty cones, steal-scheduled refire waves\",\n\
    \  \"edit_sites\": %d,\n\
    \  \"schedule\": \"steal\",\n\
    \  \"rows\": [\n%s\n  ],\n\
    \  \"service\": { \"sessions\": %d, \"workers\": 8, \"stream_edits\": \
     %d, \"serial_p50_ms\": %.4f, \"batched_p50_ms\": %.4f, \
     \"p50_improvement\": %.3f, \"finals_ok\": %b },\n\
    \  \"provenance\": { \"wave_refired\": %d, \"ring_delta\": %d, \
     \"critical_s\": %.6f, \"makespan_s\": %.6f, \"blame_ok\": %b },\n\
    \  \"gates\": { \"batched_ge_3x_serial_at_8\": %b, \"all_finals_ok\": \
     %b, \"service_p50_ge_2x\": %b, \"prov_blame_ok\": %b }\n\
     }\n"
    sites
    (String.concat ",\n" (List.map row_json rows))
    svc_sessions sites
    (st1.Service.st_p50 *. 1e3)
    (st8.Service.st_p50 *. 1e3)
    svc_gain svc_ok pr.Session.br_refired (f1 - f0)
    profile.Pag_eval.Causal.pr_critical profile.Pag_eval.Causal.pr_makespan
    prov_ok speedup_ok all_code_ok svc_gain_ok prov_ok;
  close_out oc;
  Printf.printf "wrote BENCH_9.json\n";
  if
    not
      (speedup_ok && all_code_ok && svc_ok && svc_gain_ok && prov_ok)
  then failwith "E17: batched re-evaluation gate failed"

(* ------------------------------------------------------------------ *)
(* E18: first-class DAG evaluation (BENCH_10)                          *)
(* ------------------------------------------------------------------ *)

let e18_dag () =
  sep "[E18] First-class DAG evaluation: instances, wire, time (BENCH_10)";
  let routines = if quick then 4 else 6 in
  let reps = if quick then 120 else 300 in
  let workload_name =
    Printf.sprintf "Progen.repetitive routines=%d reps=%d" routines reps
  in
  let prog = Progen.repetitive ~routines ~reps () in
  let m = 8 in
  Printf.printf "workload: %s; %d netsim machines\n\n" workload_name m;
  let run o = Driver.compile_parallel_sim o prog in
  let instances (r : Runner.result) =
    Array.fold_left
      (fun a (s : Pag_parallel.Worker.stats) ->
        a + s.Pag_parallel.Worker.ws_graph_nodes)
      0 r.Runner.r_worker_stats
  in
  let r_static, c_static = run (opts m) in
  let r_steal, c_steal =
    run { (opts m) with Runner.schedule = `Steal }
  in
  let r_dag, c_dag =
    run { (opts m) with Runner.schedule = `Steal; use_dag = true }
  in
  let row name (r : Runner.result) inst =
    Printf.printf "%-26s %10.3fs %12s %12d bytes %8d msgs\n" name
      r.Runner.r_time
      (match inst with
      | Some i -> Printf.sprintf "%d inst" i
      | None -> "-")
      r.Runner.r_bytes r.Runner.r_messages
  in
  Printf.printf "%-26s %11s %12s %18s %13s\n" "" "time" "instances" "wire"
    "messages";
  row "static, plain" r_static None;
  row "steal, plain" r_steal (Some (instances r_steal));
  row "steal, --dag" r_dag (Some (instances r_dag));
  (* sequential DAG statistics: regions / projections / materializations *)
  let g = Pascal_ag.grammar in
  let tree = Pascal_ag.tree_of_program g prog in
  let rt = ref None in
  ignore (Pag_eval.Dynamic.eval ~dag:true ~dag_out:(fun r -> rt := Some r) g tree);
  let ds = Pag_eval.Dag.stats (Option.get !rt) in
  Printf.printf
    "\ndag: %d regions, %d slots projected, %d instances materialized, %d \
     tainted classes\n"
    ds.Pag_eval.Dag.dg_regions ds.Pag_eval.Dag.dg_projected_slots
    ds.Pag_eval.Dag.dg_materialized_rids ds.Pag_eval.Dag.dg_tainted_classes;
  let speedup = r_static.Runner.r_time /. r_dag.Runner.r_time in
  let inst_cut =
    1.0
    -. float_of_int (instances r_dag) /. float_of_int (instances r_steal)
  in
  let bytes_cut =
    1.0 -. (float_of_int r_dag.Runner.r_bytes /. float_of_int r_steal.Runner.r_bytes)
  in
  Printf.printf
    "\nspeedup over plain static: x%.1f; instance cut %.1f%%; wire cut \
     %.1f%% (vs plain steal)\n"
    speedup (100.0 *. inst_cut) (100.0 *. bytes_cut);
  let code_ok =
    String.equal (mask_asm c_static.Driver.c_asm) (mask_asm c_dag.Driver.c_asm)
    && String.equal (mask_asm c_steal.Driver.c_asm) (mask_asm c_dag.Driver.c_asm)
  in
  let interp_ok =
    match (Driver.run_compiled ~input:[] c_dag, Interp.run prog) with
    | Ok a, Ok b -> String.equal a b
    | _ -> false
  in
  Printf.printf "equivalence: masked code %b, interpreter %b\n" code_ok
    interp_ok;
  Printf.printf
    "\ntargets: >= 10x over plain static, instance cut > 50%%, wire never \
     inflated,\nall equivalence gates true.\n";
  let ok =
    speedup >= 10.0 && inst_cut > 0.5
    && r_dag.Runner.r_bytes <= r_steal.Runner.r_bytes
    && code_ok && interp_ok
  in
  let oc = open_out "BENCH_10.json" in
  Printf.fprintf oc
    "{\n\
    \  \"id\": \"BENCH_10\",\n\
    \  \"bench\": \"first-class DAG evaluation: one rule-instance set per \
     unique subtree\",\n\
    \  \"workload\": %S,\n\
    \  \"machines\": %d,\n\
    \  \"static_plain_seconds\": %.6f,\n\
    \  \"steal_plain\": { \"seconds\": %.6f, \"instances\": %d, \"bytes\": \
     %d, \"messages\": %d },\n\
    \  \"steal_dag\": { \"seconds\": %.6f, \"instances\": %d, \"bytes\": \
     %d, \"messages\": %d },\n\
    \  \"dag_stats\": { \"regions\": %d, \"projected_slots\": %d, \
     \"materialized_rids\": %d, \"tainted_classes\": %d },\n\
    \  \"speedup_over_plain_static\": %.3f,\n\
    \  \"instance_cut\": %.4f,\n\
    \  \"bytes_cut\": %.4f,\n\
    \  \"code_agrees\": %b,\n\
    \  \"interpreter_agrees\": %b\n\
     }\n"
    workload_name m r_static.Runner.r_time r_steal.Runner.r_time
    (instances r_steal) r_steal.Runner.r_bytes r_steal.Runner.r_messages
    r_dag.Runner.r_time (instances r_dag) r_dag.Runner.r_bytes
    r_dag.Runner.r_messages ds.Pag_eval.Dag.dg_regions
    ds.Pag_eval.Dag.dg_projected_slots ds.Pag_eval.Dag.dg_materialized_rids
    ds.Pag_eval.Dag.dg_tainted_classes speedup inst_cut bytes_cut code_ok
    interp_ok;
  close_out oc;
  Printf.printf "wrote BENCH_10.json\n";
  if not ok then failwith "E18: DAG evaluation gate failed"

(* ------------------------------------------------------------------ *)
(* Smoke: fast evaluator equivalence, nonzero exit on mismatch         *)
(* ------------------------------------------------------------------ *)

let stores_agree a b =
  let ok = ref true in
  Pag_eval.Store.iter_instances a (fun node attr ->
      match
        ( Pag_eval.Store.get_opt a node attr.Pag_core.Grammar.a_name,
          Pag_eval.Store.get_opt b node attr.Pag_core.Grammar.a_name )
      with
      | Some x, Some y -> if not (Pag_core.Value.equal x y) then ok := false
      | None, None -> ()
      | _ -> ok := false);
  !ok

let smoke_check () =
  sep "[smoke] evaluator equivalence (quick workload)";
  let fails = ref 0 in
  let check name ok =
    Printf.printf "%-58s %s\n" name (if ok then "ok" else "MISMATCH");
    if not ok then incr fails
  in
  (* 1. Expression grammar: oracle = dynamic = static on a random tree. *)
  let etree =
    Pag_grammars.Expr_ag.random_program (Random.State.make [| 11 |]) ~depth:8
  in
  let eg = Pag_grammars.Expr_ag.grammar in
  let oracle = Pag_eval.Oracle.eval eg etree in
  let dyn, _ = Pag_eval.Dynamic.eval eg etree in
  check "expr: oracle = dynamic" (stores_agree oracle dyn);
  (match Pag_analysis.Kastens.analyze eg with
  | Error _ -> check "expr: grammar is ordered" false
  | Ok plan ->
      let st, _ = Pag_eval.Static_eval.eval plan etree in
      check "expr: oracle = static (Kastens)" (stores_agree oracle st));
  (* 2. Pascal compiler: static / dynamic / oracle produce identical code
     (modulo label numbering, which depends on rule firing order). *)
  let prog = fst (Progen.gen (Random.State.make [| 7 |]) Progen.small) in
  let asm ev = mask_asm (Driver.compile ~evaluator:ev prog).Driver.c_asm in
  let s = asm `Static and d = asm `Dynamic and o = asm `Oracle in
  check "pascal: static = dynamic code" (String.equal s d);
  check "pascal: static = oracle code" (String.equal s o);
  (* 3. Flat store vs the seed hashtbl store on the same tree. *)
  let tree = Pascal_ag.tree_of_program Pascal_ag.grammar prog in
  let legacy, _ = Legacy.Dynamic.eval Pascal_ag.grammar tree in
  let flat, _ = Pag_eval.Dynamic.eval Pascal_ag.grammar tree in
  check "pascal: flat store = seed hashtbl store"
    (pascal_roots_agree
       (Pag_eval.Store.root_attrs flat)
       (Legacy.Store.root_attrs legacy));
  (* 4. DAG-shared evaluation is semantics-preserving: identical assembly
     (same uid consumption order, so byte-identical, no masking) and
     identical VAX output on a repetition-heavy program. *)
  let rprog = Progen.repetitive ~routines:3 ~reps:40 () in
  let dag_on = Driver.compile ~dag:true ~evaluator:`Static rprog in
  let dag_off = Driver.compile ~evaluator:`Static rprog in
  check "pascal: dag on = off (assembly bytes)"
    (String.equal dag_on.Driver.c_asm dag_off.Driver.c_asm);
  check "pascal: dag on = off (VAX output)"
    (match
       ( Driver.run_compiled ~input:[] dag_on,
         Driver.run_compiled ~input:[] dag_off )
     with
    | Ok a, Ok b -> String.equal a b
    | _ -> false);
  let dyn_on = Driver.compile ~dag:true ~evaluator:`Dynamic rprog in
  check "pascal: dag dynamic = static code"
    (String.equal (mask_asm dyn_on.Driver.c_asm) (mask_asm dag_off.Driver.c_asm));
  if !fails = 0 then Printf.printf "\nsmoke ok\n"
  else Printf.printf "\n%d smoke check(s) FAILED\n" !fails;
  !fails

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "Parallel Attribute Grammar Evaluation — benchmark harness%s\n"
    (if quick then " (quick mode)" else "");
  if smoke then exit (if smoke_check () = 0 then 0 else 1);
  if micro then begin
    store_micro ();
    microbenchmarks ()
  end
  else begin
    if runs "e1" then e1_figure5 ();
    if runs "e2" then e2_figure6 ();
    if runs "e3" then e3_figure7 ();
    if runs "e4" then e4_dynamic_fraction ();
    if runs "e5" then e5_librarian ();
    if runs "e6" then e6_priority ();
    if runs "e7" then e7_unique_ids ();
    if runs "e8" then e8_sequential_and_granularity ();
    if runs "e9" then e9_assembly_integration ();
    if runs "e10" then e10_faults ();
    if runs "e11" then e11_observability ();
    if runs "e12" then e12_dag ();
    if runs "e13" then e13_incremental ();
    if runs "e14" then e14_steal ();
    if runs "e15" then e15_service ();
    if runs "e16" then e16_provenance ();
    if runs "e17" then e17_batched ();
    if runs "e18" then e18_dag ()
  end;
  Printf.printf "\ndone. see EXPERIMENTS.md for paper-vs-measured records.\n"

(* pagbench: the standing wall-clock benchmark of the compiler, the edit
   session and the service on 2 domains. README.md describes the
   workloads, the metrics and how to run and compare.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
         one workload in this process; the last stdout line is its result
     main.exe [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
         every workload, each in its own child process
     main.exe --smoke
         every workload on tiny inputs, 2 ops each, all checks
     main.exe --compare A B
         medians, quartiles and verdicts of two directories of results *)

(* {1 Metrics} *)

type metric = {
  name : string;
  unit : string;
  lower : bool;  (** lower is better *)
  bound : float;  (** share of the baseline median a change may lose *)
}

(* The bounds are wide: on the 2-vCPU machine they were sized on, run
   medians of one unchanged input spread up to 11% (p50 of serve_tenants)
   and 13% (tail of edit_paper) even in reference seconds, and peak RSS up
   to 12% (compile_repetitive). README.md, "Bounds". *)
let end_to_end =
  [
    { name = "latency_s.p50"; unit = "s"; lower = true; bound = 0.25 };
    { name = "latency_s.tail"; unit = "s"; lower = true; bound = 0.25 };
    { name = "throughput_ops_s"; unit = "1/s"; lower = false; bound = 0.25 };
    { name = "peak_rss_mb"; unit = "MB"; lower = true; bound = 0.20 };
    { name = "setup_s"; unit = "s"; lower = true; bound = 0.25 };
  ]

let per_layer =
  [
    ("parser.s", "s");
    ("parser.alloc_mb", "MB");
    ("pascal_ag.build_s", "s");
    ("tree.diff_s", "s");
    ("session.edit_s", "s");
    ("incr.prop_s", "s");
    ("session.other_s", "s");
    ("incr.dirty", "count");
    ("incr.refired", "count");
    ("incr.cutoff", "count");
    ("incr.fallbacks", "count");
    ("session.sim_latency_s", "s");
    ("split.decompose_s", "s");
    ("split.encode_s", "s");
    ("split.decode_s", "s");
    ("split.fragments", "count");
    ("split.bytes", "bytes");
    ("split.dag_bytes", "bytes");
    ("runner.s", "s");
    ("runner.busy_s", "s");
    ("runner.idle_s", "s");
    ("runner.util", "ratio");
    ("runner.dynamic_frac", "ratio");
    ("runner.speedup_vs_seq", "ratio");
    ("engine.create_s", "s");
    ("engine.rules", "count");
    ("store.slots", "count");
    ("static_eval.s", "s");
    ("static_eval.evals", "count");
    ("gc.minor_mb", "MB");
    ("steal.s", "s");
    ("steal.stolen", "count");
    ("tree.sharing_s", "s");
    ("tree.classes", "count");
    ("dynamic.dag_s", "s");
    ("service.ingest_s", "s");
    ("service.round_s", "s");
    ("service.rejected", "count");
    ("service.evictions", "count");
    ("service.queue_hwm", "count");
    ("service.live_slots", "count");
    ("seq.compile_s", "s");
    ("sim.makespan_s", "s");
    ("sim.messages", "count");
    ("sim.bytes", "bytes");
    ("trace.overhead", "ratio");
    ("machine.kernel_s", "s");
  ]

(* {1 One workload} *)

let now = Unix.gettimeofday

let percentile = Pag_parallel.Service.percentile

let median xs = percentile xs 0.5

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    else find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let result_line ~correct ~attempted ~failed metrics =
  Json.obj
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        Json.obj
          (List.map
             (fun (name, unit, v) ->
               ( name,
                 Json.obj [ ("value", Json.num v); ("unit", Json.str unit) ] ))
             metrics) );
    ]

(* Set-up repeats at least 3 times and until 0.25 s of it was measured (at
   most 25 times), so a set-up of a few milliseconds still has a steady
   median. *)
let setup_times speed (inst : Workload.instance) =
  let rec go acc k total =
    if k >= 25 || (k >= 3 && total >= 0.25) then acc
    else begin
      Gc.full_major ();
      Speed.sample speed;
      let timed = inst.setup () in
      let t0 = now () in
      timed ();
      let dt = now () -. t0 in
      go (dt :: acc) (k + 1) (total +. dt)
    end
  in
  go [] 0 0.0

let warmup_ops = 2

(* Runs one workload in this process and prints its result as the last
   stdout line; progress goes to stderr. The loop is closed: the next op is
   issued when the previous one returns. Untraced, it times ops until
   [seconds] have passed. Traced, it alternates an op timed as untraced
   with a traced one: the op's own layer calls under spans, then the probes
   of the layers off its path. Smoke runs one op of each kind. End-to-end
   timings are scaled to reference seconds by the machine-speed index. *)
let run_workload (w : Workload.t) ~seed ~seconds ~trace ~smoke =
  let inst = w.make ~seed ~smoke in
  let speed = Speed.create () in
  let setups = setup_times speed inst in
  let attempted = ref 0 and failed = ref 0 in
  let fail what e =
    incr failed;
    Printf.eprintf "%s: %s %d failed: %s\n%!" w.name what !attempted e
  in
  (* One op, its check, and its latency when it succeeded. *)
  let run_op op =
    inst.step ();
    let i = !attempted in
    incr attempted;
    if w.fresh_heap then Gc.full_major ();
    Speed.sample speed;
    let t0 = now () in
    match op () with
    | exception e ->
        fail "op" (Printexc.to_string e);
        None
    | () -> (
        let dt = now () -. t0 in
        match inst.check i with
        | exception e ->
            fail "check of op" (Printexc.to_string e);
            None
        | Some false ->
            fail "check of op" "output differs from the reference";
            None
        | Some true | None -> Some dt)
  in
  let l = Layers.create () in
  let plain = ref [] and traced = ref 0 in
  let run_plain () =
    Option.iter
      (fun dt -> plain := dt :: !plain)
      (run_op (fun () -> inst.op Layers.null))
  in
  let minor_mb () = (Gc.quick_stat ()).Gc.minor_words *. 8.0 /. 1e6 in
  let run_traced () =
    let ok =
      run_op (fun () ->
          let m0 = minor_mb () in
          Layers.span l "op" (fun () -> inst.op l);
          Layers.set l "gc.minor_mb" (minor_mb () -. m0))
      <> None
    in
    (match inst.probe l with
    | () -> if ok then incr traced
    | exception e -> fail "probe after op" (Printexc.to_string e));
    Layers.end_op l
  in
  if smoke then begin
    run_plain ();
    run_traced ()
  end
  else begin
    for _ = 1 to warmup_ops do
      ignore (run_op (fun () -> inst.op Layers.null))
    done;
    let start = now () in
    while now () -. start < seconds || (trace && !traced = 0) do
      run_plain ();
      if trace then run_traced ()
    done
  end;
  (match inst.final () with
  | true -> ()
  | false ->
      fail "final check after op" "resident state differs from the reference"
  | exception e -> fail "final check after op" (Printexc.to_string e));
  if not inst.refs_ok then
    Printf.eprintf "%s: a reference program ran differently on the VAX\n%!"
      w.name;
  let lat = !plain in
  let n = List.length lat in
  let scale = Speed.scale speed in
  Printf.eprintf
    "%s: seed %d, %d timed ops, %d traced, %d failed of %d; measured p50 %.4f \
     s, kernel %.5f s, %.3f reference s per s\n%!"
    w.name seed n !traced !failed !attempted (median lat)
    (Speed.median_kernel speed) scale;
  let layer name = median (Layers.values l name) in
  let missing =
    List.filter
      (fun (name, _) ->
        name <> "trace.overhead"
        && name <> "machine.kernel_s"
        && Layers.values l name = [])
      per_layer
  in
  if !traced > 0 && missing <> [] then
    fail "traced op"
      ("no value for " ^ String.concat ", " (List.map fst missing));
  let metrics =
    if trace && not smoke then begin
      let path = Printf.sprintf "_perf/trace-%s-%d.json" w.name seed in
      mkdir_p "_perf";
      Layers.write_chrome l path;
      Printf.eprintf "%s: Chrome trace in %s\n%!" w.name path;
      List.map
        (fun (name, unit) ->
          let v =
            match name with
            | "trace.overhead" -> layer "op" /. median lat
            | "machine.kernel_s" -> Speed.median_kernel speed
            | name -> layer name
          in
          (name, unit, v))
        per_layer
    end
    else
      let v = function
        | "latency_s.p50" -> median lat *. scale
        | "latency_s.tail" -> percentile lat w.tail *. scale
        | "throughput_ops_s" ->
            float_of_int n /. (List.fold_left ( +. ) 0.0 lat *. scale)
        | "peak_rss_mb" -> peak_rss_mb ()
        | "setup_s" -> median setups *. scale
        | name -> invalid_arg name
      in
      List.map (fun m -> (m.name, m.unit, v m.name)) end_to_end
  in
  print_endline
    (result_line
       ~correct:(!failed = 0 && inst.refs_ok && n > 0)
       ~attempted:!attempted ~failed:!failed metrics)

(* {1 Every workload, each in a child process} *)

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

let run_child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (last_line out, status = Unix.WEXITED 0)

let harness ~seed ~seconds ~trace ~smoke ~out =
  Option.iter mkdir_p out;
  let ok = ref true in
  let results =
    List.map
      (fun (w : Workload.t) ->
        let args =
          [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
            Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
          @ if smoke then [ "--smoke" ] else []
        in
        let line, exited_ok = run_child args in
        let result = try Some (Json.parse line) with Json.Error _ -> None in
        (match Option.bind result (Json.member "metrics") with
        | Some (Json.Obj ms)
          when exited_ok
               && Option.bind result (Json.member "correct") = Some (Json.Bool true)
               && Option.bind result (Json.member "failed") = Some (Json.Num 0.0) ->
            List.iter
              (fun (name, m) ->
                match (Json.member "value" m, Json.member "unit" m) with
                | Some (Json.Num v), Some (Json.Str u) ->
                    Printf.printf "%-20s %-24s %14.6g %s\n%!" w.name name v u
                | _ -> ())
              ms
        | _ ->
            ok := false;
            Printf.printf "%-20s FAILED %s\n%!" w.name line);
        Option.iter
          (fun d ->
            let file = Printf.sprintf "%s.%d.json" w.name seed in
            let oc = open_out (Filename.concat d file) in
            output_string oc (line ^ "\n");
            close_out oc)
          out;
        (w.name, if result = None then "null" else line))
      Workload.all
  in
  print_endline (Json.obj results);
  !ok

(* {1 --compare} *)

(* Quartiles as Python's statistics.quantiles(xs, n=4) gives them. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let load_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f ->
         let ic = open_in (Filename.concat dir f) in
         let line = last_line (In_channel.input_all ic) in
         close_in ic;
         (f, String.sub f 0 (String.index f '.'), Json.parse line))

let metric_value r name =
  Option.bind (Json.member "metrics" r) (Json.member name)
  |> Option.map (fun m -> Json.to_num (Option.get (Json.member "value" m)))

(* Verdict of B against A for one metric, by the rules of the
   choosing-metrics guide: worse when B's median loses more than the bound;
   better when it gains more than A's own quartile spread and, with pairs,
   B wins at least 9 in 10 of them; unresolved when either side's spread is
   wider than the bound, unless every B run beats every A run. *)
let verdict m ~pair_win xs ys =
  let q1a, ma, q3a = quartiles xs and q1b, mb, q3b = quartiles ys in
  let spread = Float.max ((q3a -. q1a) /. ma) ((q3b -. q1b) /. mb) in
  let loss = (if m.lower then mb -. ma else ma -. mb) /. ma in
  let beats y x = if m.lower then y < x else y > x in
  if spread > m.bound then
    if List.for_all (fun y -> List.for_all (beats y) xs) ys then "better"
    else "unresolved"
  else if loss > m.bound then "worse"
  else if
    -.loss > (q3a -. q1a) /. ma
    && Option.fold ~none:true ~some:(fun f -> f >= 0.9) pair_win
  then "better"
  else "same"

(* Compares every end-to-end metric of every workload between two
   directories of result lines; runs of one file name in both directories
   (same workload and seed) are an interleaved pair. False on a regression:
   a worse verdict, or any failed op in B. *)
let compare_dirs a b =
  let ra = load_dir a and rb = load_dir b in
  let failed rs =
    List.fold_left
      (fun acc (_, _, r) ->
        acc
        +
        match Json.member "failed" r with
        | Some (Json.Num f) -> int_of_float f
        | _ -> 1)
      0 rs
  in
  let regress = ref (failed rb > 0) in
  Printf.printf "failed ops: A %d, B %d\n" (failed ra) (failed rb);
  Printf.printf "%-20s %-18s %-38s %-38s %-9s %s\n" "workload" "metric"
    "A median [q1, q3] (n)" "B median [q1, q3] (n)" "pair-win" "verdict";
  List.iter
    (fun (w : Workload.t) ->
      let of_w rs = List.filter (fun (_, name, _) -> name = w.name) rs in
      let wa = of_w ra and wb = of_w rb in
      List.iter
        (fun m ->
          let vals rs =
            List.filter_map (fun (_, _, r) -> metric_value r m.name) rs
          in
          let xs = vals wa and ys = vals wb in
          let pairs =
            List.filter_map
              (fun (f, _, r) ->
                match List.find_opt (fun (g, _, _) -> g = f) wb with
                | Some (_, _, r') -> (
                    match (metric_value r m.name, metric_value r' m.name) with
                    | Some x, Some y -> Some (x, y)
                    | _ -> None)
                | None -> None)
              wa
          in
          let pair_win =
            if pairs = [] then None
            else
              let wins =
                List.filter (fun (x, y) -> if m.lower then y < x else y > x) pairs
              in
              Some
                (float_of_int (List.length wins)
                /. float_of_int (List.length pairs))
          in
          if xs <> [] && ys <> [] then begin
            let side vs =
              let q1, md, q3 = quartiles vs in
              Printf.sprintf "%.6g [%.6g, %.6g] (%d)" md q1 q3 (List.length vs)
            in
            let v = verdict m ~pair_win xs ys in
            if v = "worse" then regress := true;
            Printf.printf "%-20s %-18s %-38s %-38s %-9s %s\n" w.name m.name
              (side xs) (side ys)
              (Option.fold ~none:"-" ~some:(Printf.sprintf "%.2f") pair_win)
              v
          end)
        end_to_end)
    Workload.all;
  not !regress

(* {1 Command line} *)

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--out DIR] [--smoke] | --compare A B";
  exit 2

let () =
  let workload = ref None and seed = ref 1987 and seconds = ref 20.0 in
  let trace = ref false and smoke = ref false and out = ref None in
  let compare = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: r -> workload := Some v; parse r
    | "--seed" :: v :: r -> (
        match int_of_string_opt v with
        | Some s -> seed := s; parse r
        | None -> usage ())
    | "--seconds" :: v :: r -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s; parse r
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: r -> trace := v = "1"; parse r
    | "--out" :: v :: r -> out := Some v; parse r
    | "--smoke" :: r -> smoke := true; parse r
    | "--compare" :: a :: b :: r -> compare := Some (a, b); parse r
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let ok =
    match (!compare, !workload) with
    | Some (a, b), _ -> compare_dirs a b
    | None, Some name -> (
        match
          List.find_opt (fun (w : Workload.t) -> w.name = name) Workload.all
        with
        | Some w ->
            run_workload w ~seed:!seed ~seconds:!seconds ~trace:!trace
              ~smoke:!smoke;
            true
        | None ->
            Printf.eprintf "unknown workload %s\n" name;
            exit 2)
    | None, None ->
        harness ~seed:!seed ~seconds:!seconds ~trace:!trace ~smoke:!smoke
          ~out:!out
  in
  exit (if ok then 0 else 1)

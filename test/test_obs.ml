(* Telemetry layer tests: recorder/metrics semantics, the Gantt golden
   render, exporter output shape (validated with a small JSON parser
   written here), and qcheck properties tying the metrics registry to the
   legacy stats records it mirrors. *)

open Pag_obs
open Pag_parallel
open Pag_grammars
open Netsim

let qc ?(count = 25) name gen prop = Qc_seed.qc ~count name gen prop

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --------------- recorder --------------- *)

let test_disabled_recorder () =
  let r = Obs.disabled in
  Obs.span r ~pid:0 ~t0:0.0 ~t1:1.0 "x";
  Obs.instant r ~pid:0 ~t:0.5 "y";
  Obs.flow r ~src:0 ~dst:1 ~send:0.0 ~recv:0.1 "z";
  check_bool "disabled" false (Obs.enabled r);
  check_int "no events" 0 (Obs.length r);
  check_bool "null ctx disabled" false (Obs.ctx_enabled Obs.null_ctx)

let test_recording_order () =
  let r = Obs.create () in
  Obs.span r ~pid:3 ~t0:1.0 ~t1:2.0 "a";
  Obs.instant r ~pid:4 ~t:1.5 "b";
  Obs.flow r ~src:1 ~dst:2 ~send:0.25 ~recv:0.75 "c";
  check_int "three events" 3 (Obs.length r);
  let seen = ref [] in
  Obs.iter r (fun e -> seen := e :: !seen);
  match List.rev !seen with
  | [ a; b; c ] ->
      check_bool "span kind" true (a.Obs.e_kind = Obs.Span);
      check_int "span pid" 3 a.Obs.e_pid;
      check_string "span name" "a" a.Obs.e_name;
      check_bool "instant kind" true (b.Obs.e_kind = Obs.Instant);
      check_bool "instant t0 = t1" true (b.Obs.e_t0 = b.Obs.e_t1);
      check_bool "flow kind" true (c.Obs.e_kind = Obs.Flow);
      check_int "flow src" 1 c.Obs.e_pid;
      check_int "flow dst" 2 c.Obs.e_dst
  | _ -> Alcotest.fail "expected exactly three events"

let test_recorder_growth () =
  let r = Obs.create () in
  for i = 0 to 4999 do
    Obs.instant r ~pid:(i mod 7) ~t:(float_of_int i) "tick"
  done;
  check_int "all retained" 5000 (Obs.length r);
  let n = ref 0 and last = ref (-1.0) in
  Obs.iter r (fun e ->
      check_bool "in order" true (e.Obs.e_t0 > !last);
      last := e.Obs.e_t0;
      incr n);
  check_int "iterated all" 5000 !n

let test_merge_sorts () =
  let a = Obs.create () and b = Obs.create () in
  Obs.span a ~pid:0 ~t0:2.0 ~t1:3.0 "late";
  Obs.span a ~pid:0 ~t0:0.0 ~t1:1.0 "early";
  Obs.instant b ~pid:1 ~t:1.5 "mid";
  let m = Obs.merge [ a; b ] in
  check_int "merged length" 3 (Obs.length m);
  let names = ref [] in
  Obs.iter m (fun e -> names := e.Obs.e_name :: !names);
  Alcotest.(check (list string))
    "sorted by start" [ "early"; "mid"; "late" ] (List.rev !names)

let test_with_span_passthrough () =
  let x = Obs.make_ctx ~pid:7 ~clock:(fun () -> 42.0) in
  check_int "with_span returns" 9 (Obs.with_span x "work" (fun () -> 9));
  check_int "span recorded" 1 (Obs.length x.Obs.x_rec);
  check_int "null passthrough" 9
    (Obs.with_span Obs.null_ctx "work" (fun () -> 9))

(* --------------- metrics --------------- *)

let test_metrics_basics () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "a.count" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  check_int "counter" 5 (Obs.Metrics.value c);
  check_int "by name" 5 (Obs.Metrics.counter_value m "a.count");
  check_int "absent is 0" 0 (Obs.Metrics.counter_value m "nope");
  Obs.Metrics.set_gauge m "g" 2.5;
  Obs.Metrics.add_gauge m "g" 1.5;
  check_bool "gauge" true (Obs.Metrics.gauge_value m "g" = Some 4.0);
  let h = Obs.Metrics.histogram m "h" in
  Obs.Metrics.observe h 10.0;
  Obs.Metrics.observe h 300.0;
  let names = List.map fst (Obs.Metrics.rows m) in
  Alcotest.(check (list string))
    "rows sorted" [ "a.count"; "g"; "h" ] names

let test_metrics_null_is_dead () =
  let m = Obs.Metrics.null in
  let c = Obs.Metrics.counter m "x" in
  Obs.Metrics.incr c;
  check_int "dead counter drops" 0 (Obs.Metrics.value c);
  Obs.Metrics.set_gauge m "g" 9.0;
  check_bool "dead gauge drops" true (Obs.Metrics.gauge_value m "g" = None);
  check_bool "no rows" true (Obs.Metrics.rows m = [])

let test_metrics_merge () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter a "n") 3;
  Obs.Metrics.add (Obs.Metrics.counter b "n") 4;
  Obs.Metrics.add_gauge a "g" 1.0;
  Obs.Metrics.add_gauge b "g" 2.0;
  Obs.Metrics.observe (Obs.Metrics.histogram a "h") 8.0;
  Obs.Metrics.observe (Obs.Metrics.histogram b "h") 16.0;
  let m = Obs.Metrics.create () in
  Obs.Metrics.merge ~into:m a;
  Obs.Metrics.merge ~into:m b;
  check_int "counters sum" 7 (Obs.Metrics.counter_value m "n");
  check_bool "gauges sum" true (Obs.Metrics.gauge_value m "g" = Some 3.0);
  check_bool "histogram merged" true
    (List.mem_assoc "h" (Obs.Metrics.rows m))

(* --------------- json fragments --------------- *)

let test_json_escape () =
  check_string "quotes and controls" "a\\\"b\\\\c\\n\\u0001"
    (Obs.Json.escape "a\"b\\c\n\001");
  check_string "nan" "0" (Obs.Json.num Float.nan);
  check_string "inf" "0" (Obs.Json.num Float.infinity);
  check_string "integral" "3" (Obs.Json.num 3.0);
  check_string "fractional" "0.250000" (Obs.Json.num 0.25)

(* --------------- Gantt golden --------------- *)

(* A simulator-shaped log: "active"/"idle" spans, a mark, a message. *)
let golden_log () =
  let r = Obs.create () in
  Obs.span r ~pid:0 ~t0:0.0 ~t1:0.4 "active";
  Obs.span r ~pid:0 ~t0:0.4 ~t1:1.0 "idle";
  Obs.span r ~pid:1 ~t0:0.0 ~t1:0.2 "idle";
  Obs.span r ~pid:1 ~t0:0.2 ~t1:1.0 "active";
  Obs.instant r ~pid:0 ~t:0.4 "handoff";
  Obs.flow r ~src:0 ~dst:1 ~send:0.4 ~recv:0.5 "msg";
  r

let golden_names = function 0 -> "parser" | _ -> "worker"

let test_gantt_golden () =
  let rendered = Gantt.render ~width:40 ~names:golden_names (golden_log ()) in
  let expected =
    "       0                                 1.000s\n\
     parser ################|.......................\n\
     worker ........################################\n\
     messages: 1\n\
    \    0.4000s  parser -> worker  (msg)\n\
    \  mark   0.4000s parser: handoff\n"
  in
  check_string "golden chart" expected rendered

(* --------------- a small JSON parser for exporter validation ----------- *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done;
              Buffer.add_char b '?'
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
              Buffer.add_char b (Option.get (peek ()));
              advance ()
          | _ -> fail "bad escape");
          go ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          J_obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          J_obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          J_arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          J_arr (elems [])
        end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> J_num (parse_number ())
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field name = function
  | J_obj kvs -> List.assoc_opt name kvs
  | _ -> None

(* --------------- exporter shape --------------- *)

let sample_recorder () =
  let r = Obs.create () in
  Obs.span r ~pid:0 ~t0:0.0 ~t1:0.5 "parse";
  Obs.span r ~pid:1 ~t0:0.1 ~t1:0.9 "evaluate";
  Obs.instant r ~pid:1 ~t:0.3 "dyn-rule env";
  Obs.flow r ~src:0 ~dst:1 ~send:0.05 ~recv:0.1 "subtree 0";
  Obs.flow r ~src:1 ~dst:0 ~send:0.9 ~recv:0.95 "code";
  r

let sample_names = function 0 -> "parser" | 1 -> "eval-a" | _ -> "?"

let test_chrome_export_shape () =
  let out = Export.chrome ~names:sample_names (sample_recorder ()) in
  let events =
    match obj_field "traceEvents" (parse_json out) with
    | Some (J_arr es) -> es
    | _ -> Alcotest.fail "no traceEvents array"
  in
  check_bool "has events" true (List.length events > 0);
  let ph e =
    match obj_field "ph" e with Some (J_str p) -> p | _ -> "?"
  in
  let metas = List.filter (fun e -> ph e = "M") events in
  check_int "one track per machine" 2 (List.length metas);
  List.iter
    (fun e ->
      match obj_field "args" e with
      | Some (J_obj [ ("name", J_str nm) ]) ->
          check_bool "track named" true (nm = "parser" || nm = "eval-a")
      | _ -> Alcotest.fail "metadata without args.name")
    metas;
  (* every flow start has a matching finish with the same id *)
  let ids phase =
    List.filter_map
      (fun e ->
        if ph e = phase then
          match obj_field "id" e with Some (J_num v) -> Some v | _ -> None
        else None)
      events
  in
  let starts = ids "s" and finishes = ids "f" in
  check_int "two flows" 2 (List.length starts);
  check_bool "paired flow ids" true
    (List.sort compare starts = List.sort compare finishes);
  check_bool "spans present" true
    (List.exists (fun e -> ph e = "X") events);
  check_bool "instants present" true
    (List.exists (fun e -> ph e = "i") events)

let test_jsonl_export_lines () =
  let out = Export.jsonl ~names:sample_names (sample_recorder ()) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  check_int "one line per event" 5 (List.length lines);
  List.iter
    (fun l ->
      match obj_field "kind" (parse_json l) with
      | Some (J_str ("span" | "event" | "flow")) -> ()
      | _ -> Alcotest.fail ("bad jsonl line: " ^ l))
    lines

(* The JSONL export round-trips: parsing every line back reconstructs the
   recorder's events exactly — kind, pid/machine, name, and for flows the
   src/dst/send/recv quadruple — over a real recorded run. *)
let test_jsonl_roundtrip () =
  let t =
    Stackcode_ag.random_program (Random.State.make [| 11 |]) ~depth:6 ~blocks:4
  in
  let plan =
    match Pag_analysis.Kastens.analyze Stackcode_ag.grammar with
    | Ok p -> p
    | Error _ -> Alcotest.fail "analysis failed"
  in
  let opts =
    { Runner.default_options with Runner.machines = 3; telemetry = true }
  in
  let r = Runner.run_sim opts Stackcode_ag.grammar (Some plan) t in
  let rec_ = Option.get r.Runner.r_obs in
  let names = Runner.machine_name ~fragments:r.Runner.r_fragments in
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Export.jsonl ~names rec_))
  in
  check_int "one line per event" (Obs.length rec_) (List.length lines);
  let num j k =
    match obj_field k j with
    | Some (J_num v) -> v
    | _ -> Alcotest.fail ("missing number " ^ k)
  in
  let str j k =
    match obj_field k j with
    | Some (J_str v) -> v
    | _ -> Alcotest.fail ("missing string " ^ k)
  in
  let originals = ref [] in
  Obs.iter rec_ (fun e -> originals := e :: !originals);
  List.iter2
    (fun e line ->
      let j = parse_json line in
      match e.Obs.e_kind with
      | Obs.Span ->
          check_string "kind" "span" (str j "kind");
          check_int "pid" e.Obs.e_pid (int_of_float (num j "pid"));
          check_string "machine" (names e.Obs.e_pid) (str j "machine");
          check_string "name" e.Obs.e_name (str j "name");
          check_bool "t0" true (abs_float (num j "t0" -. e.Obs.e_t0) < 1e-6);
          check_bool "t1" true (abs_float (num j "t1" -. e.Obs.e_t1) < 1e-6)
      | Obs.Instant ->
          check_string "kind" "event" (str j "kind");
          check_int "pid" e.Obs.e_pid (int_of_float (num j "pid"));
          check_bool "t" true (abs_float (num j "t" -. e.Obs.e_t0) < 1e-6)
      | Obs.Flow ->
          check_string "kind" "flow" (str j "kind");
          check_int "src" e.Obs.e_pid (int_of_float (num j "src"));
          check_int "dst" e.Obs.e_dst (int_of_float (num j "dst"));
          check_string "name" e.Obs.e_name (str j "name");
          check_bool "send" true
            (abs_float (num j "send" -. e.Obs.e_t0) < 1e-6);
          check_bool "recv" true
            (abs_float (num j "recv" -. e.Obs.e_t1) < 1e-6))
    (List.rev !originals) lines

(* Labeled series sort under their base name: "x.y" never interleaves
   between "x{...}" rows. Golden two-tenant rendering of the service's
   per-tenant families. *)
let test_labeled_rows_golden () =
  let m = Obs.Metrics.create () in
  let bump name tenant v =
    Obs.Metrics.add
      (Obs.Metrics.counter m
         (Obs.Metrics.labeled name [ ("tenant", tenant) ]))
      v
  in
  bump "service.edits" "bob" 2;
  bump "service.edits" "alice" 3;
  Obs.Metrics.set_gauge m "service.edits.rejected" 1.0;
  Obs.Metrics.set_gauge m
    (Obs.Metrics.labeled "service.critical_path_ms" [ ("tenant", "bob") ])
    0.5;
  Obs.Metrics.set_gauge m
    (Obs.Metrics.labeled "service.critical_path_ms" [ ("tenant", "alice") ])
    2.0;
  Obs.Metrics.set_gauge m "service.rounds" 4.0;
  let expected =
    [
      ("service.critical_path_ms{tenant=alice}", "2");
      ("service.critical_path_ms{tenant=bob}", "0.5000");
      ("service.edits{tenant=alice}", "3");
      ("service.edits{tenant=bob}", "2");
      ("service.edits.rejected", "1");
      ("service.rounds", "4");
    ]
  in
  Alcotest.(check (list (pair string string)))
    "grouped rows" expected (Obs.Metrics.rows m)

(* A real parallel run exports valid JSON with one track per machine. *)
let test_chrome_export_real_run () =
  let t =
    Stackcode_ag.random_program (Random.State.make [| 42 |]) ~depth:7 ~blocks:5
  in
  let plan =
    match Pag_analysis.Kastens.analyze Stackcode_ag.grammar with
    | Ok p -> p
    | Error _ -> Alcotest.fail "analysis failed"
  in
  let opts =
    { Runner.default_options with Runner.machines = 3; telemetry = true }
  in
  let r = Runner.run_sim opts Stackcode_ag.grammar (Some plan) t in
  let rec_ = Option.get r.Runner.r_obs in
  check_bool "events recorded" true (Obs.length rec_ > 0);
  let out =
    Export.chrome
      ~names:(Runner.machine_name ~fragments:r.Runner.r_fragments)
      rec_
  in
  let events =
    match obj_field "traceEvents" (parse_json out) with
    | Some (J_arr es) -> es
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let metas =
    List.filter
      (fun e -> obj_field "ph" e = Some (J_str "M"))
      events
  in
  (* parser + one evaluator per fragment + librarian *)
  check_int "tracks" (r.Runner.r_fragments + 2) (List.length metas);
  check_bool "message flows exported" true
    (List.exists (fun e -> obj_field "ph" e = Some (J_str "s")) events)

(* --------------- report --------------- *)

let test_report_render () =
  let opts =
    { Runner.default_options with Runner.machines = 3; telemetry = true }
  in
  let t =
    Stackcode_ag.random_program (Random.State.make [| 43 |]) ~depth:7 ~blocks:5
  in
  let plan =
    match Pag_analysis.Kastens.analyze Stackcode_ag.grammar with
    | Ok p -> p
    | Error _ -> Alcotest.fail "analysis failed"
  in
  let r = Runner.run_sim opts Stackcode_ag.grammar (Some plan) t in
  let rep = r.Runner.r_report in
  check_int "machine rows" (r.Runner.r_fragments + 2)
    (List.length rep.Obs.Report.rp_machines);
  List.iter
    (fun m ->
      check_bool "util in [0,1]" true
        (m.Obs.Report.rm_util >= 0.0 && m.Obs.Report.rm_util <= 1.0))
    rep.Obs.Report.rp_machines;
  check_bool "fraction matches runner" true
    (Float.abs (Obs.Report.dynamic_fraction rep -. r.Runner.r_dynamic_fraction)
    < 1e-6);
  let text = Obs.Report.render rep in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "report names machines" true (contains text "eval-a");
  check_bool "report has network line" true (contains text "messages");
  check_bool "report has dynamic fraction" true (contains text "dynamic")

(* --------------- qcheck properties --------------- *)

(* The registry is incremented independently of the worker stats records
   at the same code points; any divergence is an instrumentation bug. *)
let registry_matches_stats (r : Runner.result) =
  let reg = r.Runner.r_report.Obs.Report.rp_metrics in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 r.Runner.r_worker_stats in
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

let prop_registry_equals_stats =
  qc ~count:5 "telemetry registry = legacy worker stats"
    QCheck.(int_bound 1000)
    (fun seed ->
      let t =
        Stackcode_ag.random_program
          (Random.State.make [| seed |])
          ~depth:6 ~blocks:4
      in
      let plan =
        match Pag_analysis.Kastens.analyze Stackcode_ag.grammar with
        | Ok p -> p
        | Error _ -> QCheck.Test.fail_report "analysis failed"
      in
      let opts =
        { Runner.default_options with Runner.machines = 3; telemetry = true }
      in
      registry_matches_stats
        (Runner.run_sim opts Stackcode_ag.grammar (Some plan) t))

(* E11's input (EXPERIMENTS.md): bench --quick's Pascal workload compiled
   by the combined evaluator at 4 machines. *)
let test_registry_pascal () =
  let prog =
    fst (Pascal.Progen.gen (Random.State.make [| 7 |]) Pascal.Progen.medium)
  in
  let opts =
    Session.options (Session.spec ~phase_label:Pascal.Driver.phase_label 4)
  in
  let r, _ =
    Pascal.Driver.compile_parallel_sim { opts with Runner.telemetry = true } prog
  in
  check_bool "registry = worker stats" true (registry_matches_stats r)

let prop_reliable_counters_match =
  qc ~count:3 "reliable.* counters mirror Reliable.stats under faults"
    QCheck.(int_bound 1000)
    (fun seed ->
      let t =
        Stackcode_ag.random_program
          (Random.State.make [| seed |])
          ~depth:6 ~blocks:4
      in
      let plan =
        match Pag_analysis.Kastens.analyze Stackcode_ag.grammar with
        | Ok p -> p
        | Error _ -> QCheck.Test.fail_report "analysis failed"
      in
      let spec = { Faults.none with Faults.fs_drop = 0.05; fs_seed = seed } in
      let opts =
        {
          Runner.default_options with
          Runner.machines = 3;
          telemetry = true;
          faults = Some spec;
        }
      in
      let r = Runner.run_sim opts Stackcode_ag.grammar (Some plan) t in
      let reg = r.Runner.r_report.Obs.Report.rp_metrics in
      Obs.Metrics.counter_value reg "reliable.retransmits"
      = r.Runner.r_retransmits)

(* --------------- suite --------------- *)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "disabled recorder" `Quick test_disabled_recorder;
        Alcotest.test_case "recording order" `Quick test_recording_order;
        Alcotest.test_case "buffer growth" `Quick test_recorder_growth;
        Alcotest.test_case "merge sorts" `Quick test_merge_sorts;
        Alcotest.test_case "with_span" `Quick test_with_span_passthrough;
        Alcotest.test_case "metrics basics" `Quick test_metrics_basics;
        Alcotest.test_case "null metrics" `Quick test_metrics_null_is_dead;
        Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
        Alcotest.test_case "json fragments" `Quick test_json_escape;
        Alcotest.test_case "gantt golden" `Quick test_gantt_golden;
        Alcotest.test_case "chrome export shape" `Quick
          test_chrome_export_shape;
        Alcotest.test_case "jsonl export" `Quick test_jsonl_export_lines;
        Alcotest.test_case "jsonl round-trip, real run" `Quick
          test_jsonl_roundtrip;
        Alcotest.test_case "labeled rows golden" `Quick
          test_labeled_rows_golden;
        Alcotest.test_case "chrome export, real run" `Quick
          test_chrome_export_real_run;
        Alcotest.test_case "report" `Quick test_report_render;
        prop_registry_equals_stats;
        Alcotest.test_case "E11 registry = worker stats" `Quick
          test_registry_pascal;
        prop_reliable_counters_match;
      ] );
  ]

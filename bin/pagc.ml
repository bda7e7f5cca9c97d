(* pagc — the parallel Pascal compiler.

   Compiles a Pascal-subset source file to VAX assembly by attribute-grammar
   evaluation, sequentially or in parallel on the simulated network
   multiprocessor (or on OCaml domains). Mirrors the paper's generated
   compiler, including the runtime granularity argument.

     pagc prog.pas                          sequential static evaluation
     pagc --machines 5 prog.pas             parallel combined evaluator
     pagc --machines 5 --schedule dynamic   parallel dynamic evaluator
     pagc --run prog.pas                    compile, assemble, execute
     pagc --gantt --machines 5 prog.pas     print the evaluator timeline
     pagc --machines 5 --trace out.json --report prog.pas
                                            record a Chrome trace + report
     pagc -m 5 --faults drop=0.05,dup=0.02 prog.pas
                                            compile over a faulty network
     pagc --serve workload.serve            multi-tenant compile service *)

open Cmdliner
open Pascal
module Obs = Pag_obs.Obs
module Export = Pag_obs.Export

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let gantt_unavailable () =
  Printf.eprintf
    "pagc: --gantt: timeline requires --machines >= 2 with the sim transport\n"

(* ------------------------------------------------------------------ *)
(* --explain / --profile: post-run provenance analysis.                *)

module Tree = Pag_core.Tree
module Grammar = Pag_core.Grammar
module Causal = Pag_eval.Causal
module Prov = Pag_obs.Prov

(* Address forms: "root.ATTR", "SYM.ATTR" (first preorder occurrence),
   "SYM#K.ATTR" (K-th occurrence, 0-based), "#ID.ATTR" (preorder id). *)
let resolve_instance g tree addr =
  match String.rindex_opt addr '.' with
  | None -> Error (Printf.sprintf "expected NODE.ATTR, got %S" addr)
  | Some i -> (
      let node_s = String.sub addr 0 i
      and attr = String.sub addr (i + 1) (String.length addr - i - 1) in
      let occurrence sym k =
        let found = ref None and seen = ref 0 in
        Tree.iter
          (fun n ->
            if n.Tree.sym = sym then begin
              if !seen = k && !found = None then found := Some n;
              incr seen
            end)
          tree;
        !found
      in
      let node =
        if node_s = "root" then Some tree
        else if node_s <> "" && node_s.[0] = '#' then
          Option.bind
            (int_of_string_opt (String.sub node_s 1 (String.length node_s - 1)))
            (Tree.find tree)
        else
          match String.index_opt node_s '#' with
          | Some j ->
              Option.bind
                (int_of_string_opt
                   (String.sub node_s (j + 1) (String.length node_s - j - 1)))
                (occurrence (String.sub node_s 0 j))
          | None -> occurrence node_s 0
      in
      match node with
      | None -> Error (Printf.sprintf "no node matches %S" node_s)
      | Some n when n.Tree.prod = None ->
          Error
            (Printf.sprintf "%s is a terminal leaf: its attributes are \
                             intrinsic, no rule fires for them"
               node_s)
      | Some n -> (
          match Grammar.find_attr (Grammar.symbol g n.Tree.sym) attr with
          | None ->
              Error
                (Printf.sprintf "symbol %s declares no attribute %S"
                   n.Tree.sym attr)
          | Some _ ->
              let attr_idx = Grammar.attr_pos g ~sym:n.Tree.sym ~attr in
              Ok (n, attr_idx, Printf.sprintf "%s#%d.%s" n.Tree.sym n.Tree.id attr)))

(* Build the causal DAG from whatever rings recorded anything. *)
let build_dag provs =
  match List.filter (fun (p, _) -> Prov.enabled p) provs with
  | [] -> None
  | provs -> Some (Causal.build provs)

(* Run the requested analyses over the recorded rings. Returns false when
   --explain failed or the explained slice disagrees with the engine's own
   dependency graph (the firing records must agree with the transitive
   producer closure whenever the ring kept everything). *)
let run_provenance ~g ~tree ~dag ~explain ~profile ~profile_json =
  match dag with
  | None ->
      if explain <> None || profile || profile_json <> None then
        Printf.eprintf "pagc: no provenance was recorded for this run\n";
      explain = None
  | Some d ->
    if Causal.dropped d > 0 then
      Printf.eprintf
        "pagc: provenance ring overflowed (%d records dropped): slices and \
         profiles are lower bounds\n"
        (Causal.dropped d);
    if Causal.arg_drops d > 0 then
      Printf.eprintf
        "pagc: %d argument slots exceeded the per-record arity: slices are \
         lower bounds\n"
        (Causal.arg_drops d);
    if profile || profile_json <> None then begin
      let p = Causal.profile d in
      if profile then prerr_string (Causal.render_profile p);
      Option.iter
        (fun path -> write_file path (Causal.profile_json p))
        profile_json
    end;
    match explain with
    | None -> true
    | Some addr -> (
        match resolve_instance g tree addr with
        | Error msg ->
            Printf.eprintf "pagc: --explain: %s\n" msg;
            false
        | Ok (node, attr_idx, name) ->
            let key = Causal.key_of node ~attr_idx in
            if not (Causal.has_key d key) then begin
              Printf.eprintf
                "pagc: --explain: no recorded firing defines %s (intrinsic, \
                 preset, or evicted from the ring)\n"
                name;
              false
            end
            else begin
              print_string (Causal.render_slice d key);
              if Causal.dropped d > 0 then true
              else begin
                (* create_shared keeps the run's node ids, so closure keys
                   line up with the recorded ones *)
                let st = Pag_eval.Store.create_shared g tree in
                let re = Pag_eval.Engine.create g st in
                let gr = Pag_eval.Engine.graph re in
                let missing, extra =
                  Causal.verify_slice d ~ref_engine:re ~ref_graph:gr key
                in
                if missing = [] && extra = [] then true
                else begin
                  Printf.eprintf
                    "pagc: --explain: slice disagrees with the dependency \
                     graph of %s\n"
                    name;
                  List.iter
                    (Printf.eprintf "  missing from slice: %s\n")
                    missing;
                  List.iter (Printf.eprintf "  extra in slice: %s\n") extra;
                  false
                end
              end
            end)

(* Sequential runs have no Runner to assemble the report; build one from
   the single compiler context. *)
let sequential_report obs ~horizon =
  let m = obs.Obs.x_metrics in
  {
    Obs.Report.rp_label = "sequential static, 1 machine";
    rp_clock = "wall clock";
    rp_horizon = horizon;
    rp_machines =
      [
        {
          Obs.Report.rm_pid = 0;
          rm_name = "compiler";
          rm_active = horizon;
          rm_idle = 0.0;
          rm_util = (if horizon > 0.0 then 1.0 else 0.0);
          rm_sends = 0;
          rm_max_queue = -1;
        };
      ];
    rp_dynamic_rules = Obs.Metrics.counter_value m "eval.dynamic_rules";
    rp_static_rules = Obs.Metrics.counter_value m "eval.static_rules";
    rp_messages = 0;
    rp_bytes = 0;
    rp_retransmits = 0;
    rp_metrics = m;
    rp_domains = 1;
  }

(* --edit-session: keep FILE resident and replay a script of edits against
   it. Each script line names a source file; the session re-parses it,
   re-evaluates only the dirty cone, and prices the distributed update
   wave. The final resident code must match a from-scratch compile of the
   last variant (modulo label numbering). *)
let run_edit_session ~file ~script ~machines ~granularity ~no_librarian
    ~no_priority ~dag ~faults ~out ~batch ~explain ~profile
    ~profile_json =
  let g = Pascal_ag.grammar in
  let parse_tree src = Pascal_ag.tree_of_program g (Parser.parse_program src) in
  let provenance = explain <> None || profile || profile_json <> None in
  let sp =
    Pag_parallel.Session.spec ~granularity ~librarian:(not no_librarian)
      ~priority:(not no_priority) ~dag ?faults
      ~phase_label:Driver.phase_label ~provenance machines
  in
  let base_src = read_file file in
  let es = Pag_parallel.Session.open_session sp g (parse_tree base_src) in
  let edits =
    read_file script |> String.split_on_char '\n' |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  if edits = [] then begin
    Printf.eprintf "pagc: --edit-session: %s lists no edits\n" script;
    exit 1
  end;
  Printf.eprintf "edit session: %s resident on %d machine(s)%s\n" file machines
    (if batch > 1 then Printf.sprintf ", batching %d edits per wave" batch
     else "");
  let last_src = ref base_src in
  if batch <= 1 then
    List.iter
      (fun path ->
        let src = read_file path in
        last_src := src;
        let r = Pag_parallel.Session.edit es (parse_tree src) in
        let open Pag_parallel.Session in
        Printf.eprintf
          "%-24s dirty %4d  refired %4d  cutoff %4d%s  %7d bytes (full \
           recompile %d)  %.4fs%s\n"
          (Filename.basename path) r.er_dirty r.er_refired r.er_cutoff
          (if r.er_fallback then "  [fallback rebuild]" else "")
          r.er_bytes_incr r.er_bytes_full r.er_latency
          (if r.er_retransmits > 0 then
             Printf.sprintf "  (%d retransmits)" r.er_retransmits
           else ""))
      edits
  else begin
    (* batched replay: successive script lines become one merged wave.
       Each line is still a whole-program snapshot, so a chunk's edit set
       is the per-line diff sequence — independent cones merge, edits
       whose cones interfere flush into follow-up waves. *)
    let rec chunks = function
      | [] -> []
      | l ->
          let rec take n = function
            | x :: tl when n > 0 ->
                let h, rest = take (n - 1) tl in
                (x :: h, rest)
            | rest -> ([], rest)
          in
          let h, rest = take batch l in
          h :: chunks rest
    in
    List.iter
      (fun paths ->
        let trees =
          List.map
            (fun path ->
              let src = read_file path in
              last_src := src;
              parse_tree src)
            paths
        in
        let r = Pag_parallel.Session.edit_batch es trees in
        let open Pag_parallel.Session in
        Printf.eprintf
          "%-24s %d edits  waves %d  conflicts %d  dirty %4d  refired %4d  \
           cutoff %4d%s  %7d bytes  %.4fs%s\n"
          (String.concat "," (List.map Filename.basename paths)
          |> fun s ->
          if String.length s > 24 then String.sub s 0 21 ^ "..." else s)
          r.br_edits r.br_waves r.br_conflicts r.br_dirty r.br_refired
          r.br_cutoff
          (if r.br_fallbacks > 0 then
             Printf.sprintf "  [%d fallback rebuilds]" r.br_fallbacks
           else "")
          r.br_bytes r.br_latency
          (if r.br_retransmits > 0 then
             Printf.sprintf "  (%d retransmits)" r.br_retransmits
           else ""))
      (chunks edits)
  end;
  (* --explain / --profile against the live session: the ring holds the
     initial evaluation plus every refire since the last rebuild. *)
  let prov_ok =
    if provenance then
      run_provenance ~g
        ~tree:(Pag_parallel.Session.tree es)
        ~dag:
          (build_dag
             [ (Pag_parallel.Session.prov es, Pag_parallel.Session.engine es) ])
        ~explain ~profile ~profile_json
    else true
  in
  let resident =
    Pascal_ag.code_of_attrs
      (Pag_eval.Store.root_attrs (Pag_parallel.Session.store es))
  in
  let scratch = Driver.compile_source !last_src in
  if
    String.equal
      (Driver.mask_labels resident)
      (Driver.mask_labels scratch.Driver.c_asm)
  then begin
    Printf.eprintf "resident code = from-scratch compile (labels masked): ok\n";
    (match out with
    | Some path -> write_file path resident
    | None -> if explain = None then print_string resident);
    exit (if prov_ok then 0 else 1)
  end
  else begin
    Printf.eprintf "pagc: edit session diverged from a from-scratch compile\n";
    exit 1
  end

(* --serve: drive the multi-tenant compile service from a workload script.
   The script generalizes --edit-session to many resident programs:

     service workers=3 policy=shortest-queue queue-cap=8 mem-cap=0 idle-rounds=0
     tenant alice examples/primes.pas
     edit alice examples/primes_edit1.pas
     round

   `tenant` admits a resident program, `edit` submits a replacement source
   into the tenant's queue (a full queue rejects — backpressure), `round`
   runs one scheduling round; the implicit final drain flushes the rest.
   Afterwards every tenant's resident code must equal a from-scratch
   compile of its last source, modulo label numbering. *)
let run_serve ~script ~machines ~dag ~faults ~transport ~report
    ~batch =
  let module Service = Pag_parallel.Service in
  let g = Pascal_ag.grammar in
  let parse_tree src = Pascal_ag.tree_of_program g (Parser.parse_program src) in
  let fail line msg =
    Printf.eprintf "pagc: --serve: line %d: %s\n" line msg;
    exit 1
  in
  let obs =
    if report then
      let t0 = Unix.gettimeofday () in
      Obs.make_ctx ~pid:0 ~clock:(fun () -> Unix.gettimeofday () -. t0)
    else Obs.null_ctx
  in
  let workers = ref machines
  and policy = ref Service.Round_robin
  and queue_cap = ref 0
  and mem_cap = ref 0
  and idle_rounds = ref 0
  and batch = ref batch
  and net = ref Netsim.Ethernet.default_params in
  let service = ref None in
  let the_service line =
    match !service with
    | Some sv -> sv
    | None ->
        let sv =
          try
            Service.create
              (Service.config ~policy:!policy
                 ~transport:(if transport = "domains" then `Domains else `Sim)
                 ~queue_cap:!queue_cap ~mem_cap:!mem_cap
                 ~idle_rounds:!idle_rounds ~dag ?faults ~net:!net
                 ~obs
                 ~provenance:report ~batch:!batch !workers)
              g
          with Invalid_argument msg -> fail line msg
        in
        service := Some sv;
        sv
  in
  (* last source submitted per tenant, admission order preserved *)
  let last_src : (string, string ref) Hashtbl.t = Hashtbl.create 16 in
  let tenant_order = ref [] in
  let set_kv line kv =
    match String.index_opt kv '=' with
    | None -> fail line (Printf.sprintf "expected key=value, got %S" kv)
    | Some i -> (
        let k = String.sub kv 0 i
        and v = String.sub kv (i + 1) (String.length kv - i - 1) in
        let int_v () =
          match int_of_string_opt v with
          | Some n -> n
          | None -> fail line (Printf.sprintf "%s: not an integer: %S" k v)
        in
        match k with
        | "workers" -> workers := int_v ()
        | "queue-cap" -> queue_cap := int_v ()
        | "mem-cap" -> mem_cap := int_v ()
        | "idle-rounds" -> idle_rounds := int_v ()
        | "batch-edits" -> batch := int_v ()
        | "policy" -> (
            match v with
            | "rr" | "round-robin" -> policy := Service.Round_robin
            | "sq" | "shortest-queue" -> policy := Service.Shortest_queue
            | _ -> fail line (Printf.sprintf "unknown policy %S" v))
        | "net" -> (
            match v with
            | "shared" -> net := Netsim.Ethernet.default_params
            | "switched" -> net := Netsim.Ethernet.switched_params
            | _ -> fail line (Printf.sprintf "unknown net %S" v))
        | _ -> fail line (Printf.sprintf "unknown service key %S" k))
  in
  let lines =
    read_file script |> String.split_on_char '\n' |> List.map String.trim
  in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      if raw <> "" && raw.[0] <> '#' then
        match String.split_on_char ' ' raw |> List.filter (( <> ) "") with
        | "service" :: kvs ->
            if !service <> None then
              fail line "service line must precede the first tenant";
            List.iter (set_kv line) kvs
        | [ "tenant"; name; file ] ->
            let sv = the_service line in
            let src = read_file file in
            (try Service.open_tenant sv name (parse_tree src)
             with Invalid_argument msg -> fail line msg);
            Hashtbl.replace last_src name (ref src);
            tenant_order := name :: !tenant_order
        | [ "edit"; name; file ] -> (
            let sv = the_service line in
            let src = read_file file in
            match
              try Service.submit sv name (parse_tree src)
              with Invalid_argument msg -> fail line msg
            with
            | Service.Admitted -> (Hashtbl.find last_src name) := src
            | Service.Rejected_queue_full ->
                Printf.eprintf "%-12s edit rejected (queue full): %s\n" name
                  (Filename.basename file))
        | [ "round" ] -> Service.run_round (the_service line)
        | _ -> fail line (Printf.sprintf "unrecognized directive %S" raw))
    lines;
  match !service with
  | None ->
      Printf.eprintf "pagc: --serve: %s admits no tenants\n" script;
      exit 1
  | Some sv ->
      Service.drain sv;
      let ok = ref true in
      List.iter
        (fun name ->
          let resident =
            Pascal_ag.code_of_attrs
              (Pag_eval.Store.root_attrs (Service.tenant_store sv name))
          in
          let scratch = Driver.compile_source !(Hashtbl.find last_src name) in
          if
            String.equal
              (Driver.mask_labels resident)
              (Driver.mask_labels scratch.Driver.c_asm)
          then Printf.eprintf "%-12s resident = from-scratch: ok\n" name
          else begin
            Printf.eprintf "%-12s DIVERGED from a from-scratch compile\n" name;
            ok := false
          end)
        (List.rev !tenant_order);
      prerr_string (Service.render (Service.stats sv));
      if report then
        List.iter
          (fun (n, v) -> Printf.eprintf "%-44s %s\n" n v)
          (Obs.Metrics.rows obs.Obs.x_metrics);
      exit (if !ok then 0 else 1)

let run_compiler file machines schedule transport granularity
    no_librarian no_priority dag optimize run_it gantt trace_out
    events_out report out input faults fault_seed edit_session serve
    batch_edits explain profile profile_json =
  try
    let faults =
      match faults with
      | None -> None
      | Some plan -> (
          match Netsim.Faults.parse ?seed:fault_seed plan with
          | Ok spec -> Some spec
          | Error msg ->
              Printf.eprintf "pagc: bad --faults plan: %s\n" msg;
              exit 1)
    in
    (match serve with
    | Some script ->
        run_serve ~script ~machines ~dag ~faults ~transport ~report
          ~batch:batch_edits
    | None -> ());
    let file =
      match file with
      | Some f -> f
      | None ->
          Printf.eprintf "pagc: FILE argument required (except with --serve)\n";
          exit 1
    in
    (match edit_session with
    | Some script ->
        run_edit_session ~file ~script ~machines ~granularity ~no_librarian
          ~no_priority ~dag ~faults ~out ~batch:batch_edits ~explain
          ~profile ~profile_json
    | None -> ());
    let src = read_file file in
    let program = Parser.parse_program src in
    let telemetry = trace_out <> None || events_out <> None || report in
    let provenance = explain <> None || profile || profile_json <> None in
    let compiled, trace_info, obs_data, prov_data =
      if
        machines <= 1 && transport = "sim" && schedule = `Static
        && faults = None
      then begin
        let obs =
          if telemetry then begin
            let t0 = Unix.gettimeofday () in
            Obs.make_ctx ~pid:0 ~clock:(fun () -> Unix.gettimeofday () -. t0)
          end
          else Obs.null_ctx
        in
        let ring =
          if provenance then
            Prov.create ~arity:(Causal.arity_for Pascal_ag.grammar) ()
          else Prov.disabled
        in
        let eng = ref None and tree = ref None in
        let compiled =
          Driver.compile ~obs ~dag ~prov:ring
            ~engine_out:(fun e -> eng := Some e)
            ~tree_out:(fun t -> tree := Some t)
            ~evaluator:`Static program
        in
        let obs_data =
          if telemetry then
            let horizon = obs.Obs.x_clock () in
            Some
              ( obs.Obs.x_rec,
                sequential_report obs ~horizon,
                fun _ -> "compiler" )
          else None
        in
        let prov_data =
          match (!eng, !tree) with
          | Some e, Some t when provenance -> Some ([ (ring, e) ], t)
          | _ -> None
        in
        (compiled, None, obs_data, prov_data)
      end
      else begin
        let opts =
          Pag_parallel.Session.options
            (Pag_parallel.Session.spec ~schedule ~granularity
               ~librarian:(not no_librarian) ~priority:(not no_priority)
               ~dag ~telemetry ?faults
               ~phase_label:Driver.phase_label ~provenance machines)
        in
        let result, compiled =
          if transport = "domains" then
            Driver.compile_parallel_domains opts program
          else Driver.compile_parallel_sim opts program
        in
        let obs_data =
          match result.Pag_parallel.Runner.r_obs with
          | Some rec_ ->
              Some
                ( rec_,
                  result.Pag_parallel.Runner.r_report,
                  Pag_parallel.Runner.machine_name
                    ~fragments:result.Pag_parallel.Runner.r_fragments )
          | None -> None
        in
        let prov_data =
          if provenance then
            Some
              ( result.Pag_parallel.Runner.r_prov,
                result.Pag_parallel.Runner.r_tree )
          else None
        in
        (compiled, Some result, obs_data, prov_data)
      end
    in
    (* The causal DAG is shared by --explain/--profile and the critical-path
       flow arrows merged into --trace. *)
    let dag =
      match prov_data with
      | Some (provs, _) -> build_dag provs
      | None -> None
    in
    (match obs_data with
    | Some (recorder, rep, names) ->
        (* With provenance on, the top critical-path chains ride along as
           flow arrows so the trace viewer draws them across the Gantt
           rows. *)
        let traced =
          match dag with
          | Some d -> Obs.merge [ recorder; Causal.flows d ]
          | None -> recorder
        in
        Option.iter
          (fun path -> write_file path (Export.chrome ~names traced))
          trace_out;
        Option.iter
          (fun path -> write_file path (Export.jsonl ~names recorder))
          events_out;
        if report then prerr_string (Obs.Report.render rep)
    | None ->
        (* Domains transport with telemetry requested but r_obs absent
           cannot happen: telemetry => r_obs on both runners. *)
        ());
    (match trace_info with
    | Some r ->
        Printf.eprintf
          "evaluated on %d fragment(s) in %.3fs (%s), %d messages, %.2f%% \
           dynamic rules\n"
          r.Pag_parallel.Runner.r_fragments r.Pag_parallel.Runner.r_time
          (if transport = "domains" then "wall clock" else "simulated")
          r.Pag_parallel.Runner.r_messages
          (100.0 *. r.Pag_parallel.Runner.r_dynamic_fraction);
        (match r.Pag_parallel.Runner.r_fault_stats with
        | Some fs ->
            Printf.eprintf
              "faults: %d dropped, %d duplicated, %d delayed; %d \
               retransmissions%s\n"
              fs.Netsim.Faults.st_dropped fs.Netsim.Faults.st_duplicated
              fs.Netsim.Faults.st_delayed r.Pag_parallel.Runner.r_retransmits
              (if r.Pag_parallel.Runner.r_recovered then
                 "; coordinator recovered locally"
               else "")
        | None -> ());
        if gantt then (
          match r.Pag_parallel.Runner.r_trace with
          | Some tr ->
              let names =
                Pag_parallel.Runner.machine_name
                  ~fragments:r.Pag_parallel.Runner.r_fragments
              in
              (* With provenance on, star the critical-path firings so the
                 chart lines up with the --profile blame tables. *)
              let top_chain =
                match dag with
                | Some d -> (
                    match (Causal.profile ~top:1 d).Causal.pr_chains with
                    | c :: _ -> c.Causal.ch_steps
                    | [] -> [])
                | None -> []
              in
              let overlay =
                List.map
                  (fun s -> (s.Causal.st_pid, s.Causal.st_t0, s.Causal.st_t1))
                  top_chain
              in
              prerr_string (Netsim.Gantt.render ~overlay ~names tr);
              if top_chain <> [] then begin
                Printf.eprintf "critical path (top chain, * above):\n";
                List.iter
                  (fun s ->
                    Printf.eprintf "  %8.4fs  %-8s %-28s -> %s\n"
                      s.Causal.st_t0 (names s.Causal.st_pid) s.Causal.st_label
                      s.Causal.st_target)
                  top_chain
              end
          | None -> gantt_unavailable ())
    | None -> if gantt then gantt_unavailable ());
    let prov_ok =
      if provenance then
        match prov_data with
        | Some (_, tree) ->
            run_provenance ~g:Pascal_ag.grammar ~tree ~dag ~explain ~profile
              ~profile_json
        | None ->
            Printf.eprintf "pagc: no provenance was recorded for this run\n";
            explain = None
      else true
    in
    if compiled.Driver.c_errors <> [] then begin
      List.iter (Printf.eprintf "error: %s\n") compiled.Driver.c_errors;
      exit 1
    end;
    let compiled = if optimize then Driver.optimize compiled else compiled in
    (match out with
    | Some path ->
        let oc = open_out path in
        output_string oc compiled.Driver.c_asm;
        close_out oc
    | None ->
        (* --explain owns stdout (the slice was printed there). *)
        if not run_it && explain = None then
          print_string compiled.Driver.c_asm);
    if run_it then begin
      match Driver.run_compiled ~input compiled with
      | Ok output -> print_string output
      | Error e ->
          Printf.eprintf "runtime error: %s\n" e;
          exit 2
    end;
    exit (if prov_ok then 0 else 1)
  with
  | Lexer.Lex_error (line, msg) ->
      Printf.eprintf "%s:%d: lexical error: %s\n"
        (Option.value file ~default:"<input>")
        line msg;
      exit 1
  | Parser.Parse_error (line, msg) ->
      Printf.eprintf "%s:%d: syntax error: %s\n"
        (Option.value file ~default:"<input>")
        line msg;
      exit 1
  | Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1

let file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"Pascal source file (required except with --serve).")

let machines_arg =
  Arg.(
    value
    & opt Cli.positive_int 1
    & info [ "machines"; "m" ] ~docv:"N" ~doc:"Number of evaluator machines.")

let schedule_arg =
  Arg.(
    value
    & opt
        (enum [ ("static", `Static); ("dynamic", `Dynamic); ("steal", `Steal) ])
        `Static
    & info [ "schedule" ]
        ~doc:
          "Instance schedule: static = the paper's Split placement with \
           the combined evaluator, dynamic = the same protocol \
           all-dynamic, steal = work-stealing deques: on sim over every \
           rule instance with Split owner-affinity seeding, on domains \
           over the combined evaluator's tasks (spine rule instances and \
           static visits).")

let transport_arg =
  Arg.(
    value
    & opt (enum [ ("sim", "sim"); ("domains", "domains") ]) "sim"
    & info [ "transport" ] ~doc:"sim = network simulator, domains = OCaml multicore.")

let granularity_arg =
  Arg.(
    value
    & opt Cli.positive_float 1.0
    & info [ "granularity"; "g" ]
        ~doc:"Scale factor on the minimum split size (the paper's runtime argument).")

let no_librarian_arg =
  Arg.(value & flag & info [ "no-librarian" ] ~doc:"Disable the string librarian.")

let no_priority_arg =
  Arg.(value & flag & info [ "no-priority" ] ~doc:"Ignore priority attributes.")

let dag_arg =
  Arg.(
    value
    & vflag false
        [
          ( true,
            info [ "dag" ]
              ~doc:
                "Share repeated subtrees. What is shared depends on the \
                 schedule. The sequential compile (-m 1) and the static \
                 parallel schedule evaluate each static visit of a \
                 repeated subtree once per inherited context and replay it \
                 at the other occurrences (the subtree memo); the parallel \
                 static and dynamic schedules still build every owned rule \
                 instance, ship each class body once per machine, and on \
                 --transport sim send repeated boundary values as intern \
                 references. --schedule steal on sim builds one \
                 rule-instance set per (repeated-subtree class, inherited \
                 context); the other occurrences carry no instances and \
                 receive their attributes by projection. On domains the \
                 steal schedule ignores --dag and runs the same combined \
                 task graph as without it: rule instances on the spine, \
                 static visit tasks off it. --edit-session and --serve keep \
                 resident sessions on that projection runtime and split a \
                 class only where an edit diverges. Rules that allocate \
                 unique labels fall back to per-occurrence evaluation, so \
                 output is unchanged up to label numbering." );
          (false, info [ "no-dag" ] ~doc:"Disable subtree sharing (default).");
        ])

let optimize_arg =
  Arg.(value & flag & info [ "O"; "optimize" ] ~doc:"Apply the peephole optimizer.")

let run_arg =
  Arg.(value & flag & info [ "run" ] ~doc:"Assemble and run on the VAX simulator.")

let gantt_arg =
  Arg.(value & flag & info [ "gantt" ] ~doc:"Print the evaluator activity chart.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"OUT.json"
        ~doc:
          "Write a Chrome trace-event JSON file of the run (one track per \
           machine, message-flow arrows); open in Perfetto or \
           chrome://tracing.")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"OUT.jsonl"
        ~doc:"Write the raw telemetry event stream, one JSON object per line.")

let report_arg =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:
          "Print the end-of-run evaluation report (per-machine utilization, \
           dynamically evaluated fraction, librarian savings) to stderr.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT" ~doc:"Write assembly to OUT.")

let input_arg =
  Arg.(
    value & opt (list int) []
    & info [ "input" ] ~docv:"INTS" ~doc:"Input integers for read(), comma separated.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Inject network faults, e.g. \
           $(b,drop=0.05,dup=0.02,reorder=0.1,delay=0.01\\@0.25,crash=3\\@12.0). \
           Engages reliable delivery and coordinator crash recovery; forces \
           the parallel path even with -m 1.")

let edit_session_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "edit-session" ] ~docv:"SCRIPT"
        ~doc:
          "Keep FILE resident (evaluated and decomposed across the \
           machines) and replay the edits listed in $(docv) — one source \
           file per line, '#' comments allowed. Each edit re-evaluates \
           only its dirty cone and reports the distributed update wave \
           (dirty/refired/cutoff counts, wire bytes vs a full recompile, \
           simulated latency). Prints the final resident assembly after \
           verifying it against a from-scratch compile.")

let serve_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve" ] ~docv:"SCRIPT"
        ~doc:
          "Run the multi-tenant compile service on the workload in $(docv): \
           $(b,service) key=value lines configure workers/policy/queue-cap/\
           mem-cap/idle-rounds, $(b,tenant NAME FILE) admits a resident \
           program, $(b,edit NAME FILE) submits a replacement source, \
           $(b,round) runs one scheduling round (a final drain is \
           implicit). --faults injects network faults, --transport picks \
           netsim or domains. Exits 0 only if every tenant's resident code \
           matches a from-scratch compile of its last source (labels \
           masked).")

let batch_edits_arg =
  Arg.(
    value
    & opt Cli.positive_int 1
    & info [ "batch-edits" ] ~docv:"N"
        ~doc:
          "Apply up to $(docv) queued edits as one merged re-evaluation \
           wave: independent dirty cones merge and refire together \
           (conflicting edits serialize into follow-up waves), and the \
           distributed update ships one dispatch and one result per wave \
           instead of per edit. Applies to --edit-session (successive \
           script lines become one wave) and --serve (per-tenant chunks; \
           the workload script's $(b,service batch-edits=N) key overrides \
           this flag). Default 1 = one edit at a time.")

let fault_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:"PRNG seed for the fault plan (same seed = same fault pattern).")

let explain_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"NODE.ATTR"
        ~doc:
          "Record per-firing provenance and print the dependency slice of \
           one attribute instance: every rule firing its final value \
           transitively depends on, with argument values, owning machine \
           and timing. $(docv) addresses the instance as $(b,root.attr), \
           $(b,SYM.attr) (first preorder occurrence of the symbol), \
           $(b,SYM#K.attr) (K-th occurrence, 0-based) or $(b,#ID.attr) \
           (preorder node id). The slice is checked against the engine's \
           own dependency graph; disagreement exits nonzero. Suppresses \
           the assembly on stdout.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Record per-firing provenance and print the critical-path \
           profile to stderr: the longest chain of dependent rule firings \
           vs the achieved makespan, per-rule and per-machine blame \
           tables, and the ideal-parallel-time lower bound \
           max(critical, work/machines). With --trace, the top chains are \
           drawn as flow arrows across the per-machine tracks.")

let profile_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-json" ] ~docv:"OUT.json"
        ~doc:"Write the critical-path profile as a JSON object to $(docv).")

let cmd =
  let doc = "parallel Pascal-subset compiler by attribute-grammar evaluation" in
  Cmd.v
    (Cmd.info "pagc" ~doc)
    Term.(
      const run_compiler $ file_arg $ machines_arg $ schedule_arg
      $ transport_arg $ granularity_arg $ no_librarian_arg $ no_priority_arg
      $ dag_arg $ optimize_arg $ run_arg $ gantt_arg
      $ trace_arg
      $ events_arg $ report_arg $ out_arg $ input_arg $ faults_arg
      $ fault_seed_arg $ edit_session_arg $ serve_arg $ batch_edits_arg
      $ explain_arg $ profile_arg $ profile_json_arg)

let () = exit (Cmd.eval cmd)

(* Multi-tenant compile service: multiplexing is isolation. Interleaved
   edits from K tenants through the service must land, per tenant, on
   exactly the attribute values K isolated edit sessions compute — under
   both scheduling policies, with DAG sharing on or off, and on both
   transports (the domains runs keep two or three workers busy, on at
   most as many domains as there are cores). Admission
   backpressure, idle eviction/re-admission and the scheduling policies
   themselves are covered by deterministic cases. *)

open Pag_eval
open Pag_grammars
open Pag_parallel

let qc ?(count = 20) name gen prop = Qc_seed.qc ~count name gen prop

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let expr_of seed =
  Expr_ag.random_program (Random.State.make [| seed |]) ~depth:5

(* ---------------- the multiplexing-is-isolation oracle ---------------- *)

(* K tenants, each with a base program and an edit stream. The service
   interleaves them round by round (tenant i's j-th edit lands in round
   j); the isolated oracle replays each stream through its own
   {!Session.edit_session}. Trees are regenerated from seeds for every
   consumer — a session renumbers the nodes it grafts, so service and
   oracle must never share tree objects. *)
let tenants_arb ?(min_tenants = 2) ~min_edits () =
  QCheck.make
    ~print:(fun ts ->
      String.concat " | "
        (List.map
           (fun (s0, es) ->
             Printf.sprintf "base=%d edits=[%s]" s0
               (String.concat ";" (List.map string_of_int es)))
           ts))
    QCheck.Gen.(
      list_size (min_tenants -- 4)
        (pair (int_bound 100_000)
           (list_size (min_edits -- 4) (int_bound 100_000))))

let arb_tenants = tenants_arb ~min_edits:0 ()

(* Every tenant edits in the first round, so with at least two tenants
   both workers of a 2-worker service apply batches concurrently. *)
let arb_busy_tenants = tenants_arb ~min_edits:1 ()

let run_service_interleaved ?(workers = 2) ?obs ~transport ~policy ~dag
    tenants =
  let g = Expr_ag.grammar in
  let sv =
    Service.create (Service.config ?obs ~transport ~policy ~dag workers) g
  in
  let names = List.mapi (fun i _ -> Printf.sprintf "t%d" i) tenants in
  List.iter2
    (fun name (s0, _) -> Service.open_tenant sv name (expr_of s0))
    names tenants;
  let rounds =
    List.fold_left (fun m (_, es) -> max m (List.length es)) 0 tenants
  in
  for r = 0 to rounds - 1 do
    List.iter2
      (fun name (_, es) ->
        match List.nth_opt es r with
        | Some seed ->
            check_bool "unbounded queue admits" true
              (Service.submit sv name (expr_of seed) = Service.Admitted)
        | None -> ())
      names tenants;
    Service.run_round sv
  done;
  Service.drain sv;
  (sv, names)

(* On domains, every round runs its busy workers on min(busy, cores)
   domains. The first round keeps min(workers, tenants) workers busy and
   no later round more, so that is the [service.domains] high-water
   mark's input. *)
let prop_multiplexing_is_isolation ?(transport = `Sim) ?(arb = arb_tenants)
    ?(workers = 2) ~policy ~dag label =
  qc ~count:15
    (Printf.sprintf "service = K isolated sessions (%s)" label)
    arb
    (fun tenants ->
      let g = Expr_ag.grammar in
      let obs =
        if transport = `Domains then
          Some (Pag_obs.Obs.make_ctx ~pid:0 ~clock:(fun () -> 0.0))
        else None
      in
      let sv, names =
        run_service_interleaved ~workers ?obs ~transport ~policy ~dag tenants
      in
      Option.iter
        (fun o ->
          let busy = min workers (List.length tenants) in
          check_bool "service.domains = min(busy workers, cores)" true
            (Pag_obs.Obs.Metrics.gauge_value o.Pag_obs.Obs.x_metrics
               "service.domains"
            = Some (float_of_int (Pag_util.Placement.count busy))))
        obs;
      List.for_all2
        (fun name (s0, es) ->
          let spec = Session.spec ~granularity:0.05 ~librarian:false ~dag 2 in
          let iso = Session.open_session spec g (expr_of s0) in
          List.iter (fun seed -> ignore (Session.edit iso (expr_of seed))) es;
          Test_incr.values_agree g
            (Service.tenant_store sv name)
            (Service.tenant_tree sv name)
            (Session.store iso) (Session.tree iso))
        names tenants)

(* ---------------- admission backpressure ---------------- *)

let test_backpressure () =
  let g = Expr_ag.grammar in
  let sv = Service.create (Service.config ~queue_cap:2 1) g in
  Service.open_tenant sv "a" (expr_of 1);
  check_bool "first fits" true (Service.submit sv "a" (expr_of 2) = Service.Admitted);
  check_bool "second fits" true (Service.submit sv "a" (expr_of 3) = Service.Admitted);
  check_bool "third bounces" true
    (Service.submit sv "a" (expr_of 4) = Service.Rejected_queue_full);
  check_bool "fourth bounces" true
    (Service.submit sv "a" (expr_of 5) = Service.Rejected_queue_full);
  let st = Service.stats sv in
  check_int "rejections surface in the report" 2 st.Service.st_rejected;
  (match st.Service.st_per_tenant with
  | [ ts ] ->
      check_int "charged to the tenant" 2 ts.Service.ts_rejected;
      check_int "queue at its bound" 2 ts.Service.ts_queue_depth
  | _ -> Alcotest.fail "one tenant expected");
  (* draining empties the queue: admission resumes *)
  Service.drain sv;
  check_bool "admission resumes after drain" true
    (Service.submit sv "a" (expr_of 6) = Service.Admitted);
  Service.drain sv;
  check_int "rejected edits were never applied" 3
    (Service.stats sv).Service.st_edits

(* ---------------- lifecycle: idle eviction and re-admission ---------------- *)

let pascal_src k =
  Printf.sprintf
    "program p;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
    \  repeat\n    i := i * %d;\n    s := s + i\n  until i > 100;\n\
    \  write(s)\nend.\n"
    k

let pascal_tree g k =
  Pascal.Pascal_ag.tree_of_program g (Pascal.Parser.parse_program (pascal_src k))

let masked_code st =
  Pascal.Driver.mask_labels
    (Pascal.Pascal_ag.code_of_attrs (Store.root_attrs st))

let test_idle_eviction_and_readmission () =
  let g = Pascal.Pascal_ag.grammar in
  let sv = Service.create (Service.config ~idle_rounds:1 2) g in
  Service.open_tenant sv "a" (pascal_tree g 2);
  Service.open_tenant sv "b" (pascal_tree g 2);
  ignore (Service.submit sv "a" (pascal_tree g 3));
  Service.run_round sv;
  (* two rounds of b-only traffic leave a idle past the timeout *)
  ignore (Service.submit sv "b" (pascal_tree g 5));
  Service.run_round sv;
  ignore (Service.submit sv "b" (pascal_tree g 7));
  Service.run_round sv;
  check_bool "idle tenant evicted" false (Service.tenant_resident sv "a");
  check_bool "active tenant resident" true (Service.tenant_resident sv "b");
  (* re-admission: the next edit revives the resident tree and applies on
     top of it; the result must equal a from-scratch compile *)
  ignore (Service.submit sv "a" (pascal_tree g 11));
  Service.run_round sv;
  check_bool "revived on edit" true (Service.tenant_resident sv "a");
  let scratch = Pascal.Driver.compile_source (pascal_src 11) in
  Alcotest.(check string)
    "revived resident code = from-scratch"
    (Pascal.Driver.mask_labels scratch.Pascal.Driver.c_asm)
    (masked_code (Service.tenant_store sv "a"));
  check_bool "eviction counted" true
    ((Service.stats sv).Service.st_evictions >= 1)

let test_mem_cap_evicts_lru () =
  let g = Pascal.Pascal_ag.grammar in
  (* a cap below one session's footprint: opening b must push a out, and
     b itself stays (the tenant being revived is never its own victim) *)
  let sv = Service.create (Service.config ~mem_cap:1 2) g in
  Service.open_tenant sv "a" (pascal_tree g 2);
  Service.open_tenant sv "b" (pascal_tree g 3);
  check_bool "lru evicted under the cap" false (Service.tenant_resident sv "a");
  check_bool "newcomer resident" true (Service.tenant_resident sv "b");
  (* the evicted tenant still answers queries — by reviving *)
  let scratch = Pascal.Driver.compile_source (pascal_src 2) in
  Alcotest.(check string)
    "evicted tenant revives correctly"
    (Pascal.Driver.mask_labels scratch.Pascal.Driver.c_asm)
    (masked_code (Service.tenant_store sv "a"))

(* A memory cap below the round's working set on the domains transport:
   tenants scheduled this round are exempt from eviction while their
   sessions are live on worker domains (the pool overshoots the cap
   transiently), and the cap is re-enforced when the round ends. *)
let test_mem_cap_domains_round () =
  let g = Expr_ag.grammar in
  let sv = Service.create (Service.config ~transport:`Domains ~mem_cap:1 2) g in
  let names = [ "a"; "b"; "c" ] in
  List.iteri (fun i n -> Service.open_tenant sv n (expr_of i)) names;
  List.iteri (fun i n -> ignore (Service.submit sv n (expr_of (100 + i)))) names;
  Service.run_round sv;
  (* a 1-slot cap is below any single session's footprint, so once the
     round's exemptions clear every tenant is evicted *)
  List.iter
    (fun n ->
      check_bool ("post-round cap enforced on " ^ n) false
        (Service.tenant_resident sv n))
    names;
  check_bool "eviction counted" true
    ((Service.stats sv).Service.st_evictions >= 3);
  (* evicted tenants still answer queries — by reviving — and the finals
     match isolated sessions *)
  List.iteri
    (fun i n ->
      let spec = Session.spec ~granularity:0.05 ~librarian:false 2 in
      let iso = Session.open_session spec g (expr_of i) in
      ignore (Session.edit iso (expr_of (100 + i)));
      check_bool ("finals agree for " ^ n) true
        (Test_incr.values_agree g
           (Service.tenant_store sv n) (Service.tenant_tree sv n)
           (Session.store iso) (Session.tree iso)))
    names

(* ---------------- scheduling: shortest-queue beats round-robin ---------------- *)

(* One heavy tenant (8 queued edits) and three light ones (1 each) over
   two workers. Round-robin deals the heavy batch and a light batch onto
   worker 0 (9 edits); shortest-queue isolates the heavy batch (8 vs 3).
   Identical per-tenant edit streams make the virtual makespans directly
   comparable. *)
let skew_makespan policy =
  let g = Expr_ag.grammar in
  let sv = Service.create (Service.config ~policy 2) g in
  let heavy = "heavy" and lights = [ "l1"; "l2"; "l3" ] in
  Service.open_tenant sv heavy (expr_of 1);
  List.iter (fun n -> Service.open_tenant sv n (expr_of 1)) lights;
  for i = 1 to 8 do
    ignore (Service.submit sv heavy (expr_of (if i mod 2 = 0 then 1 else 2)))
  done;
  List.iter (fun n -> ignore (Service.submit sv n (expr_of 2))) lights;
  Service.run_round sv;
  (Service.stats sv).Service.st_makespan

let test_shortest_queue_beats_round_robin () =
  let rr = skew_makespan Service.Round_robin in
  let sq = skew_makespan Service.Shortest_queue in
  check_bool
    (Printf.sprintf "sq %.4fs < rr %.4fs on a skewed mix" sq rr)
    true (sq < rr)

(* ---------------- batched waves ---------------- *)

(* Batched application (c_batch > 1) must not change what any tenant
   computes — the isolation oracle holds against per-edit sessions — and
   the wave/conflict/fallback counters surface as labeled metrics. *)
let run_batched ?(dag = false) ~transport ~batch tenants =
  let g = Expr_ag.grammar in
  let obs =
    Pag_obs.Obs.make_ctx ~pid:0 ~clock:(fun () -> 0.0)
  in
  let sv = Service.create (Service.config ~transport ~batch ~dag ~obs 2) g in
  let names = List.mapi (fun i _ -> Printf.sprintf "t%d" i) tenants in
  List.iter2
    (fun name (s0, _) -> Service.open_tenant sv name (expr_of s0))
    names tenants;
  List.iter2
    (fun name (_, es) ->
      List.iter
        (fun seed -> ignore (Service.submit sv name (expr_of seed)))
        es)
    names tenants;
  Service.drain sv;
  (sv, names, obs)

let prop_batched_is_isolation ?(arb = arb_tenants) ?(dag = false) ~transport
    label =
  qc ~count:10
    (Printf.sprintf "batched service = K isolated sessions (%s)" label)
    arb
    (fun tenants ->
      let g = Expr_ag.grammar in
      let sv, names, _ = run_batched ~dag ~transport ~batch:3 tenants in
      List.for_all2
        (fun name (s0, es) ->
          let spec = Session.spec ~granularity:0.05 ~librarian:false ~dag 2 in
          let iso = Session.open_session spec g (expr_of s0) in
          List.iter (fun seed -> ignore (Session.edit iso (expr_of seed))) es;
          Test_incr.values_agree g
            (Service.tenant_store sv name)
            (Service.tenant_tree sv name)
            (Session.store iso) (Session.tree iso))
        names tenants)

let test_batched_metrics_surface () =
  let sv, _, obs =
    run_batched ~transport:`Sim ~batch:4
      [ (1, [ 2; 3; 4; 5 ]); (7, [ 8; 9 ]) ]
  in
  let st = Service.stats sv in
  check_int "all edits applied" 6 st.Service.st_edits;
  let rows = Pag_obs.Obs.Metrics.rows obs.Pag_obs.Obs.x_metrics in
  let has prefix =
    List.exists (fun (n, _) -> String.length n >= String.length prefix
                               && String.sub n 0 (String.length prefix) = prefix)
      rows
  in
  check_bool "service.waves{tenant=...} present" true (has "service.waves{");
  check_bool "service.conflicts{tenant=...} present" true
    (has "service.conflicts{");
  check_bool "service.fallbacks{tenant=...} present" true
    (has "service.fallbacks{")

let suite =
  [
    ( "service",
      [
        prop_multiplexing_is_isolation ~policy:Service.Round_robin ~dag:false
          "round-robin, dag off";
        prop_multiplexing_is_isolation ~policy:Service.Round_robin ~dag:true
          "round-robin, dag on";
        prop_multiplexing_is_isolation ~policy:Service.Shortest_queue
          ~dag:false "shortest-queue, dag off";
        prop_multiplexing_is_isolation ~policy:Service.Shortest_queue
          ~dag:true "shortest-queue, dag on";
        prop_multiplexing_is_isolation ~transport:`Domains
          ~arb:arb_busy_tenants ~policy:Service.Round_robin ~dag:true
          "domains, both workers busy, dag on";
        prop_multiplexing_is_isolation ~transport:`Domains
          ~arb:(tenants_arb ~min_tenants:3 ~min_edits:1 ())
          ~workers:3 ~policy:Service.Round_robin ~dag:true
          "domains, 3 workers busy, dag on";
        Alcotest.test_case "admission backpressure" `Quick test_backpressure;
        Alcotest.test_case "idle eviction + re-admission" `Quick
          test_idle_eviction_and_readmission;
        Alcotest.test_case "memory cap evicts LRU" `Quick
          test_mem_cap_evicts_lru;
        Alcotest.test_case "memory cap under a domains round" `Quick
          test_mem_cap_domains_round;
        Alcotest.test_case "shortest-queue beats round-robin" `Quick
          test_shortest_queue_beats_round_robin;
        prop_batched_is_isolation ~transport:`Sim "sim, batch 3";
        prop_batched_is_isolation ~transport:`Domains "domains, batch 3";
        prop_batched_is_isolation ~arb:arb_busy_tenants ~dag:true
          ~transport:`Domains "domains, batch 3, both workers busy, dag on";
        Alcotest.test_case "batched metrics surface" `Quick
          test_batched_metrics_surface;
      ] );
  ]

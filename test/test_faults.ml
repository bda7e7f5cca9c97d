(* Chaos testing: the parallel evaluators under an unreliable network.

   Property: for ANY fixture tree and ANY seeded fault plan (drop /
   duplicate / reorder — crashes are exercised separately), every run
   terminates and produces exactly the attributes the sequential oracle
   computes. Crash plans additionally force the coordinator's graceful
   degradation path, whose compiled output must still match the reference
   interpreter. *)

open Pag_core
open Pag_eval
open Pag_parallel
open Pag_grammars
open Netsim

let qc ?(count = 15) name gen prop = Qc_seed.qc ~count name gen prop

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sc_plan =
  lazy
    (match Pag_analysis.Kastens.analyze Stackcode_ag.grammar with
    | Ok p -> p
    | Error _ -> assert false)

let sc_tree seed =
  Stackcode_ag.random_program (Random.State.make [| seed |]) ~depth:7 ~blocks:5

let opts ?(machines = 3) faults =
  {
    Runner.default_options with
    Runner.machines;
    use_librarian = true;
    faults = Some faults;
  }

let oracle_value t =
  let store = Oracle.eval Stackcode_ag.grammar t in
  Value.as_int ~ctx:"oracle" (Store.get store (Store.root store) "value")

let int_attr attrs name = Value.as_int ~ctx:"test" (List.assoc name attrs)

let code_attr attrs =
  let c = Codestr.of_value ~ctx:"test" (List.assoc "code" attrs) in
  Stackcode_ag.mask_labels (Pag_util.Rope.to_string (Codestr.to_rope c))

let seq_code t =
  let store, _ = Static_eval.eval (Lazy.force sc_plan) t in
  Stackcode_ag.mask_labels
    (Pag_util.Rope.to_string
       (Codestr.to_rope
          (Codestr.of_value ~ctx:"seq" (Store.get store (Store.root store) "code"))))

(* --------------- chaos property --------------- *)

let arb_chaos =
  QCheck.make
    ~print:(fun (ts, m, drop, dup, reorder, fseed) ->
      Printf.sprintf
        "tree=%d machines=%d drop=%.2f dup=%.2f reorder=%.2f fault-seed=%d" ts
        m drop dup reorder fseed)
    QCheck.Gen.(
      int_bound 100_000 >>= fun ts ->
      int_range 2 4 >>= fun m ->
      float_bound_inclusive 0.15 >>= fun drop ->
      float_bound_inclusive 0.10 >>= fun dup ->
      float_bound_inclusive 0.15 >>= fun reorder ->
      int_bound 10_000 >>= fun fseed -> return (ts, m, drop, dup, reorder, fseed))

let chaos_spec drop dup reorder fseed =
  {
    Faults.none with
    Faults.fs_drop = drop;
    fs_dup = dup;
    fs_reorder = reorder;
    fs_seed = fseed;
  }

(* Every plan runs twice, the second time with [use_dag], which on the
   simulator interns boundary payloads: the Intern layer then sits over
   the reliable layer, and Need/Backfill must ride out the same drops,
   duplicates and reorderings. *)
let prop_sim_chaos =
  qc ~count:25 "sim: chaos run = oracle (any drop/dup/reorder plan)" arb_chaos
    (fun (ts, m, drop, dup, reorder, fseed) ->
      let t = sc_tree ts in
      List.for_all
        (fun dag ->
          let r =
            Runner.run_sim
              {
                (opts ~machines:m (chaos_spec drop dup reorder fseed)) with
                Runner.use_dag = dag;
              }
              Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t
          in
          (not r.Runner.r_recovered)
          && int_attr r.Runner.r_attrs "value" = oracle_value t
          && String.equal (code_attr r.Runner.r_attrs) (seq_code t))
        [ false; true ])

let prop_domains_chaos =
  (* Real time: retransmission timeouts make faulty domain runs ~100x
     slower than clean ones, so keep the count small and the rates low. *)
  qc ~count:4 "domains: chaos run = oracle" arb_chaos
    (fun (ts, m, drop, dup, reorder, fseed) ->
      let t = sc_tree ts in
      let spec = chaos_spec (drop /. 2.0) dup reorder fseed in
      let r =
        Runner.run_domains (opts ~machines:m spec) Stackcode_ag.grammar
          (Some (Lazy.force sc_plan)) t
      in
      int_attr r.Runner.r_attrs "value" = oracle_value t
      && String.equal (code_attr r.Runner.r_attrs) (seq_code t))

let test_sim_chaos_deterministic () =
  (* Same tree, same fault seed: bit-identical virtual outcome. *)
  let t = sc_tree 4242 in
  let run () =
    let r =
      Runner.run_sim
        (opts ~machines:4 (chaos_spec 0.1 0.05 0.1 77))
        Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t
    in
    ( r.Runner.r_time,
      r.Runner.r_messages,
      r.Runner.r_bytes,
      r.Runner.r_retransmits,
      r.Runner.r_attrs )
  in
  check_bool "two runs identical" true (run () = run ())

let test_zero_fault_spec_changes_nothing () =
  (* Engaging the reliable layer with an all-zero plan must not change the
     computed attributes (it does change timing: envelopes and acks). *)
  let t = sc_tree 99 in
  let bare =
    Runner.run_sim
      { (opts Faults.none) with Runner.faults = None }
      Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t
  in
  let wrapped =
    Runner.run_sim (opts Faults.none) Stackcode_ag.grammar
      (Some (Lazy.force sc_plan)) t
  in
  check_int "value unchanged" (int_attr bare.Runner.r_attrs "value")
    (int_attr wrapped.Runner.r_attrs "value");
  Alcotest.(check string)
    "code unchanged"
    (code_attr bare.Runner.r_attrs)
    (code_attr wrapped.Runner.r_attrs);
  check_int "no retransmissions on a clean network" 0 wrapped.Runner.r_retransmits;
  check_bool "no recovery" true (not wrapped.Runner.r_recovered)

(* --------------- crash recovery --------------- *)

let test_crash_recovery_matches_interp () =
  (* Kill an evaluator mid-run; the coordinator must degrade to local
     sequential evaluation and the compiled program must still behave
     exactly like the reference interpreter. *)
  let prog, reads =
    Pascal.Progen.gen (Random.State.make [| 7 |]) Pascal.Progen.medium
  in
  let input = List.init reads (fun i -> (i * 37 mod 90) + 1) in
  let spec = { Faults.none with Faults.fs_crashes = [ (1, 0.05) ] } in
  let o = { (opts ~machines:3 spec) with Runner.phase_label = Pascal.Driver.phase_label } in
  let result, compiled = Pascal.Driver.compile_parallel_sim o prog in
  check_bool "coordinator recovered locally" true result.Runner.r_recovered;
  check_bool "no compile errors" true (compiled.Pascal.Driver.c_errors = []);
  let compiled_out =
    match Pascal.Driver.run_compiled ~input compiled with
    | Ok out -> out
    | Error e -> Alcotest.failf "compiled program failed: %s" e
  in
  let interp_out =
    match Pascal.Interp.run ~input prog with
    | Ok out -> out
    | Error _ -> Alcotest.fail "interpreter failed"
  in
  Alcotest.(check string) "compiled = interpreted" interp_out compiled_out

let test_crash_with_drops_still_completes () =
  let t = sc_tree 17 in
  let spec =
    { Faults.none with Faults.fs_drop = 0.05; fs_crashes = [ (2, 0.02) ] }
  in
  let r =
    Runner.run_sim (opts ~machines:4 spec) Stackcode_ag.grammar
      (Some (Lazy.force sc_plan)) t
  in
  check_int "value still correct" (oracle_value t)
    (int_attr r.Runner.r_attrs "value")

let test_crash_before_start () =
  (* The evaluator dies before it even receives its subtree. *)
  let t = sc_tree 18 in
  let spec = { Faults.none with Faults.fs_crashes = [ (1, 0.0) ] } in
  let r =
    Runner.run_sim (opts ~machines:3 spec) Stackcode_ag.grammar
      (Some (Lazy.force sc_plan)) t
  in
  check_bool "recovered" true r.Runner.r_recovered;
  check_int "value" (oracle_value t) (int_attr r.Runner.r_attrs "value")

(* --------------- faults on domains --------------- *)

let test_domains_drop_dup () =
  (* Two fragments, one per core: the coordinator, the librarian and
     fragment 0 share the calling domain, and every cross-domain message
     may be dropped or duplicated — with and without DAG sharing. *)
  let t = sc_tree 41 in
  let spec = chaos_spec 0.1 0.1 0.0 9 in
  List.iter
    (fun dag ->
      let r =
        Runner.run_domains
          { (opts ~machines:2 spec) with Runner.use_dag = dag }
          Stackcode_ag.grammar (Some (Lazy.force sc_plan)) t
      in
      let tag = Printf.sprintf " (dag=%b)" dag in
      check_bool ("no recovery needed" ^ tag) false r.Runner.r_recovered;
      check_int ("value" ^ tag) (oracle_value t)
        (int_attr r.Runner.r_attrs "value");
      Alcotest.(check string) ("code" ^ tag) (seq_code t)
        (code_attr r.Runner.r_attrs))
    [ false; true ]

let test_domains_crash_fragment1 () =
  (* Fragment 1 (machine 2) never starts. The coordinator's watchdog runs on
     the domain fragment 0's evaluator keeps busy, so its timeouts only
     fire when that fiber yields; recovery must still happen, and the
     recovered program must behave like the interpreter's. *)
  let prog, reads =
    Pascal.Progen.gen (Random.State.make [| 7 |]) Pascal.Progen.medium
  in
  let input = List.init reads (fun i -> (i * 37 mod 90) + 1) in
  let spec = { Faults.none with Faults.fs_crashes = [ (2, 0.0) ] } in
  let o =
    { (opts ~machines:2 spec) with Runner.phase_label = Pascal.Driver.phase_label }
  in
  let result, compiled = Pascal.Driver.compile_parallel_domains o prog in
  check_int "two fragments" 2 result.Runner.r_fragments;
  check_int "crashed fragment's domain not spawned" 1
    result.Runner.r_report.Pag_obs.Obs.Report.rp_domains;
  check_bool "coordinator recovered locally" true result.Runner.r_recovered;
  let run_out =
    match Pascal.Driver.run_compiled ~input compiled with
    | Ok out -> out
    | Error e -> Alcotest.failf "compiled program failed: %s" e
  in
  match Pascal.Interp.run ~input prog with
  | Ok out -> Alcotest.(check string) "compiled = interpreted" out run_out
  | Error _ -> Alcotest.fail "interpreter failed"

(* --------------- edits under faults --------------- *)

(* An edit session over a lossy network: every edit wave must terminate
   (retransmission covers drops, dedup covers duplicates) and leave the
   resident store exactly where a from-scratch evaluation of the edited
   tree lands. *)
let arb_edit_chaos =
  QCheck.make
    ~print:(fun (s0, edits, m, drop, dup, fseed) ->
      Printf.sprintf
        "base=%d edits=[%s] machines=%d drop=%.2f dup=%.2f fault-seed=%d" s0
        (String.concat ";" (List.map string_of_int edits))
        m drop dup fseed)
    QCheck.Gen.(
      int_bound 100_000 >>= fun s0 ->
      list_size (1 -- 4) (int_bound 100_000) >>= fun edits ->
      int_range 2 4 >>= fun m ->
      float_bound_inclusive 0.2 >>= fun drop ->
      float_bound_inclusive 0.1 >>= fun dup ->
      int_bound 10_000 >>= fun fseed -> return (s0, edits, m, drop, dup, fseed))

let prop_edit_chaos =
  qc ~count:20 "sim: edit session under faults = from-scratch" arb_edit_chaos
    (fun (s0, edits, m, drop, dup, fseed) ->
      let g = Expr_ag.grammar in
      let expr_of seed =
        Expr_ag.random_program (Random.State.make [| seed |]) ~depth:6
      in
      let spec =
        Session.spec ~granularity:0.05 ~librarian:false
          ~faults:{ Faults.none with Faults.fs_drop = drop; fs_dup = dup; fs_seed = fseed }
          m
      in
      let es = Session.open_session spec g (expr_of s0) in
      List.for_all
        (fun seed ->
          ignore (Session.edit es (expr_of seed));
          let fresh = expr_of seed in
          let scratch, _ = Dynamic.eval g fresh in
          Test_incr.values_agree g (Session.store es) (Session.tree es)
            scratch fresh)
        edits)

let test_edit_wave_retransmits () =
  (* A heavy drop rate must show up as retransmissions, not as failure. *)
  let g = Expr_ag.grammar in
  let expr_of seed =
    Expr_ag.random_program (Random.State.make [| seed |]) ~depth:8
  in
  let spec =
    Session.spec ~granularity:0.05 ~librarian:false
      ~faults:{ Faults.none with Faults.fs_drop = 0.3; fs_seed = 5 }
      4
  in
  let es = Session.open_session spec g (expr_of 1) in
  let r = Session.edit es (expr_of 2) in
  check_bool "wave terminated with retransmissions" true
    (r.Session.er_retransmits > 0);
  let fresh = expr_of 2 in
  let scratch, _ = Dynamic.eval g fresh in
  check_bool "values = scratch" true
    (Test_incr.values_agree g (Session.store es) (Session.tree es) scratch
       fresh)

(* --------------- librarian idempotence --------------- *)

module S = Sim.Make (struct
  type msg = Message.t
end)

let env_of id =
  {
    Transport.e_id = id;
    e_delay = S.delay;
    e_send = (fun ~dst m -> S.send ~dst ~size:(Message.size m) m);
    e_recv = S.recv;
    e_recv_timeout = S.recv_timeout;
    e_time = S.time;
    e_mark = (fun _ -> ());
    e_flush = (fun () -> ());
  }

let test_librarian_duplicates () =
  (* Every fragment and the resolve request delivered twice: the code must
     still be assembled and sent exactly once. *)
  let sim = S.create () in
  let finals = ref 0 in
  let text = ref "" in
  let lib =
    S.spawn sim ~name:"lib" (fun () -> Librarian.run (env_of 0) ~coordinator:1)
  in
  let _coord =
    S.spawn sim ~name:"coord" (fun () ->
        let desc, frags =
          Codestr.extract_texts
            ~alloc:
              (let n = ref 0 in
               fun () ->
                 incr n;
                 !n)
            (Codestr.of_string "exactly once")
        in
        let send_frag (id, text) =
          S.send ~dst:lib ~size:32 (Message.Code_frag { id; text })
        in
        List.iter send_frag frags;
        List.iter send_frag frags;
        (* duplicated *)
        let resolve () =
          S.send ~dst:lib ~size:16 (Message.Resolve { value = Codestr.value desc })
        in
        resolve ();
        (match S.recv () with
        | Message.Final { text = t } ->
            incr finals;
            text := Pag_util.Rope.to_string t
        | _ -> ());
        (* replayed resolve after the answer: must NOT produce another Final *)
        resolve ();
        S.delay 1.0;
        (match S.try_recv () with
        | Some (Message.Final _) -> incr finals
        | _ -> ());
        S.send ~dst:lib ~size:8 Message.Stop)
  in
  S.run sim;
  Alcotest.(check string) "assembled text" "exactly once" !text;
  check_int "exactly one Final" 1 !finals

let test_reliable_dedup_and_ack () =
  (* Unit-level: with every transmission duplicated, the Data envelope is
     acked on both copies but surfaces to the application exactly once. *)
  let sim = S.create () in
  S.set_faults sim { Faults.none with Faults.fs_dup = 1.0; fs_seed = 3 };
  let delivered = ref [] in
  let dup_dropped = ref 0 in
  let _rx =
    S.spawn sim ~name:"rx" (fun () ->
        let link = Reliable.wrap (env_of 0) in
        let env = Reliable.env link in
        (match env.Transport.e_recv () with
        | Message.Attr { attr; _ } -> delivered := attr :: !delivered
        | _ -> ());
        (* nothing else may surface: duplicates are suppressed *)
        (match env.Transport.e_recv_timeout 2.0 with
        | Some (Message.Attr { attr; _ }) -> delivered := attr :: !delivered
        | _ -> ());
        dup_dropped := (Reliable.stats link).Reliable.rs_dup_dropped)
  in
  let _tx =
    S.spawn sim ~name:"tx" (fun () ->
        let link = Reliable.wrap (env_of 1) in
        let env = Reliable.env link in
        env.Transport.e_send ~dst:0
          (Message.Attr { node = 0; attr = "x"; value = Value.Int 1 });
        env.Transport.e_flush ())
  in
  S.run sim;
  check_bool "delivered exactly once" true (!delivered = [ "x" ]);
  check_bool "duplicate suppressed" true (!dup_dropped >= 1)

(* Multi-tenant service under faults: dropped dispatches are retransmitted
   and charged to the owning tenant (no cross-tenant bleed — per-tenant
   counters sum to the service totals and every tenant's edit count is
   exactly what it submitted), a worker crash mid-wave re-dispatches the
   rest of its batch to survivors, and every tenant's final attributes
   still match an isolated fault-free edit session. *)
let test_serve_under_faults () =
  let g = Expr_ag.grammar in
  let expr_of seed =
    Expr_ag.random_program (Random.State.make [| seed |]) ~depth:5
  in
  (* machine 2 = worker index 1 dies just after its first edit of round 1;
     under round-robin that worker holds tenant b's 5-edit batch *)
  let faults =
    { Faults.none with Faults.fs_drop = 0.25; fs_seed = 11; fs_crashes = [ (2, 1e-6) ] }
  in
  let sv = Service.create (Service.config ~faults 3) g in
  let plan = [ ("a", [ [ 60 ]; [ 70 ] ]); ("b", [ [ 10; 20; 30; 40; 50 ] ]); ("c", [ [ 80 ]; [ 90 ] ]) ] in
  List.iter (fun (n, _) -> Service.open_tenant sv n (expr_of (Hashtbl.hash n))) plan;
  let rounds = List.fold_left (fun m (_, rs) -> max m (List.length rs)) 0 plan in
  for r = 0 to rounds - 1 do
    List.iter
      (fun (n, rs) ->
        match List.nth_opt rs r with
        | Some seeds ->
            List.iter
              (fun s ->
                check_bool "admitted" true
                  (Service.submit sv n (expr_of s) = Service.Admitted))
              seeds
        | None -> ())
      plan;
    Service.run_round sv
  done;
  Service.drain sv;
  let st = Service.stats sv in
  check_int "one worker lost" 1 st.Service.st_workers_lost;
  check_bool "crashed worker's batch moved to survivors" true
    (st.Service.st_redispatches >= 1);
  check_bool "drops forced retransmissions" true (st.Service.st_retransmits > 0);
  check_int "retransmits all charged to a tenant"
    st.Service.st_retransmits
    (List.fold_left
       (fun acc ts -> acc + ts.Service.ts_retransmits)
       0 st.Service.st_per_tenant);
  List.iter
    (fun ts ->
      let submitted =
        List.concat (List.assoc ts.Service.ts_name plan) |> List.length
      in
      check_int
        ("edits accounted to " ^ ts.Service.ts_name)
        submitted ts.Service.ts_edits)
    st.Service.st_per_tenant;
  (* values survive drops, dups and the crash: each tenant's finals equal
     an isolated fault-free session replaying the same stream *)
  List.iter
    (fun (n, rs) ->
      let spec = Session.spec ~granularity:0.05 ~librarian:false 2 in
      let iso = Session.open_session spec g (expr_of (Hashtbl.hash n)) in
      List.iter
        (fun s -> ignore (Session.edit iso (expr_of s)))
        (List.concat rs);
      check_bool ("tenant " ^ n ^ " finals agree") true
        (Test_incr.values_agree g
           (Service.tenant_store sv n)
           (Service.tenant_tree sv n)
           (Session.store iso) (Session.tree iso)))
    plan

(* A plan that drops everything: the service's reliable transmit stops
   retrying after 64 attempts and force-delivers, but the absorption must
   be visible — counted in st_gave_up and charged as retransmits — rather
   than silently passing for a healthy network. *)
let test_retransmit_cap_gives_up () =
  let g = Expr_ag.grammar in
  let expr_of seed =
    Expr_ag.random_program (Random.State.make [| seed |]) ~depth:4
  in
  let faults = { Faults.none with Faults.fs_drop = 1.0; fs_seed = 3 } in
  let sv = Service.create (Service.config ~faults 2) g in
  Service.open_tenant sv "a" (expr_of 1);
  check_bool "admitted" true (Service.submit sv "a" (expr_of 2) = Service.Admitted);
  Service.drain sv;
  let st = Service.stats sv in
  check_int "edit still applied" 1 st.Service.st_edits;
  check_bool "capped retransmits surface as gave-ups" true
    (st.Service.st_gave_up > 0);
  check_int "64 retries per message before giving up"
    (64 * st.Service.st_gave_up) st.Service.st_retransmits

let suite =
  [
    ( "faults",
      [
        prop_sim_chaos;
        prop_domains_chaos;
        Alcotest.test_case "chaos is seed-deterministic" `Quick
          test_sim_chaos_deterministic;
        Alcotest.test_case "zero-fault plan changes nothing" `Quick
          test_zero_fault_spec_changes_nothing;
        Alcotest.test_case "crash recovery = interpreter" `Quick
          test_crash_recovery_matches_interp;
        Alcotest.test_case "crash + drops completes" `Quick
          test_crash_with_drops_still_completes;
        Alcotest.test_case "crash before start" `Quick test_crash_before_start;
        Alcotest.test_case "domains drop + dup" `Quick test_domains_drop_dup;
        Alcotest.test_case "domains crash of fragment 1" `Quick
          test_domains_crash_fragment1;
        prop_edit_chaos;
        Alcotest.test_case "edit wave retransmits" `Quick
          test_edit_wave_retransmits;
        Alcotest.test_case "multi-tenant serve under faults" `Quick
          test_serve_under_faults;
        Alcotest.test_case "retransmit cap surfaces as gave-ups" `Quick
          test_retransmit_cap_gives_up;
        Alcotest.test_case "librarian under duplicates" `Quick
          test_librarian_duplicates;
        Alcotest.test_case "reliable dedup" `Quick test_reliable_dedup_and_ack;
      ] );
  ]

(* The deterministic gates of the beyond-the-paper experiments E10-E18
   (EXPERIMENTS.md), each on its experiment's bench --quick input with the
   bound the experiment printed. Time is the simulator's virtual time, so
   every ratio here is exact for a given build. The two wall-clock bounds
   (E13's per-edit speedup, E16's recording overhead) stay in bench/. *)

open Pascal
open Pag_parallel

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let mask = Driver.mask_labels
let masked_code attrs = mask (Pascal_ag.code_of_attrs attrs)
let g = Pascal_ag.grammar
let tree_of src = Pascal_ag.tree_of_program g (Parser.parse_program src)

(* bench --quick's inputs *)
let medium = lazy (fst (Progen.gen (Random.State.make [| 7 |]) Progen.medium))
let skewed = lazy (Progen.skewed_program ~chain:200 ())
let repetitive = lazy (Progen.repetitive ~routines:4 ~reps:120 ())

let opts ?(schedule = `Static) m =
  Session.options (Session.spec ~schedule ~phase_label:Driver.phase_label m)

let sim o prog = Driver.compile_parallel_sim o prog

(* --------------- E10: faults --------------- *)

let test_e10_faults () =
  let prog = Lazy.force medium in
  let _, clean = sim (opts 4) prog in
  List.iter
    (fun drop ->
      let spec =
        { Netsim.Faults.none with fs_drop = drop; fs_dup = drop /. 2.0 }
      in
      let _, c = sim { (opts 4) with Runner.faults = Some spec } prog in
      check_string
        (Printf.sprintf "drop %.2f: code = fault-free" drop)
        (mask clean.Driver.c_asm) (mask c.Driver.c_asm))
    [ 0.0; 0.01; 0.02; 0.05; 0.10 ]

(* --------------- E13: incremental code --------------- *)

(* The code half of E13: each single-statement edit of primes.pas,
   applied to one resident session, yields a from-scratch compile's code. *)
let test_e13_incremental_code () =
  let base = Lazy.force Test_hashcons.primes in
  let needle = "i := i * 2" in
  let n = String.length needle in
  let rec site i =
    if i + n > String.length base then Alcotest.fail "no edit site in primes.pas"
    else if String.sub base i n = needle then i
    else site (i + 1)
  in
  let i = site 0 in
  let variant =
    String.sub base 0 i ^ "i := i * 3" ^ String.sub base (i + n) (String.length base - i - n)
  in
  let session = Pag_eval.Incr.start g (tree_of base) in
  for k = 1 to 12 do
    let src = if k land 1 = 1 then variant else base in
    ignore (Pag_eval.Incr.edit session (tree_of src));
    let scratch, _ = Pag_eval.Dynamic.eval g (tree_of src) in
    let ours = Pag_eval.Store.root_attrs (Pag_eval.Incr.store session) in
    let theirs = Pag_eval.Store.root_attrs scratch in
    check_string (Printf.sprintf "edit %d: code" k) (masked_code theirs)
      (masked_code ours);
    check_bool "errors" true
      (Pascal_ag.errors_of_attrs ours = Pascal_ag.errors_of_attrs theirs)
  done

(* --------------- E14: work stealing --------------- *)

(* Combined and steal runs at 1, 2, 4, 8 machines:
   (machines, combined time, steal time, combined code, steal code). *)
let sweep p =
  lazy
    (let prog = Lazy.force p in
     List.map
       (fun m ->
         let rc, cc = sim (opts m) prog in
         let rs, cs = sim (opts ~schedule:`Steal m) prog in
         ( m,
           rc.Runner.r_time,
           rs.Runner.r_time,
           mask cc.Driver.c_asm,
           mask cs.Driver.c_asm ))
       [ 1; 2; 4; 8 ])

let sweeps = [ (skewed, sweep skewed); (medium, sweep medium) ]

let ratio_at_8 p =
  let _, tc, ts, _, _ =
    List.find (fun (m, _, _, _, _) -> m = 8) (Lazy.force (List.assq p sweeps))
  in
  tc /. ts

let test_e14_skewed () =
  let r = ratio_at_8 skewed in
  check_bool (Printf.sprintf "steal/combined %.2f >= 1.2" r) true (r >= 1.2)

let test_e14_balanced () =
  let r = ratio_at_8 medium in
  check_bool (Printf.sprintf "steal/combined %.2f >= 0.95" r) true (r >= 0.95)

(* The 1-machine combined run's masked code. *)
let reference p =
  match Lazy.force (List.assq p sweeps) with
  | (_, _, _, code, _) :: _ -> code
  | [] -> assert false

let test_e14_code () =
  List.iter
    (fun (p, rows) ->
      List.iter
        (fun (m, _, _, cc, cs) ->
          check_string (Printf.sprintf "combined, %d machines" m) (reference p) cc;
          check_string (Printf.sprintf "steal, %d machines" m) (reference p) cs)
        (Lazy.force rows))
    sweeps

let test_e14_domains () =
  List.iter
    (fun (p, _) ->
      let _, c =
        Driver.compile_parallel_domains (opts ~schedule:`Steal 2) (Lazy.force p)
      in
      check_string "steal on 2 domains" (reference p) (mask c.Driver.c_asm))
    sweeps

(* --------------- E15: multi-tenant service --------------- *)

(* Three small program families; a tenant's edits rewrite one statement. *)
let family_src family rhs =
  Printf.sprintf
    "program p;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
    \  repeat\n    i := i * %d;\n    s := %s\n  until i > 100;\n\
    \  write(s)\nend.\n"
    (family + 2) rhs

let families = 3
let base_rhs = "s + i"
let alt_rhs = "s + i * 2"
let tenant i = Printf.sprintf "t%06d" i

(* The masked code an isolated session of [family] ends on after [rhss],
   memoized: every tenant of a family with the same stream shares it. *)
let replay =
  let memo = Hashtbl.create 8 in
  fun family rhss ->
    match Hashtbl.find_opt memo (family, rhss) with
    | Some code -> code
    | None ->
        let es =
          Session.open_session
            (Session.spec ~granularity:0.1 ~librarian:false 2)
            g
            (tree_of (family_src family base_rhs))
        in
        List.iter
          (fun rhs -> ignore (Session.edit es (tree_of (family_src family rhs))))
          rhss;
        let code = masked_code (Pag_eval.Store.root_attrs (Session.store es)) in
        Hashtbl.add memo (family, rhss) code;
        code

(* The tenants whose final masked code is not [want i]. *)
let off_tenants sv sessions want =
  List.init sessions Fun.id
  |> List.filter (fun i ->
         not
           (String.equal (want i)
              (masked_code
                 (Pag_eval.Store.root_attrs (Service.tenant_store sv (tenant i))))))
  |> List.map tenant

let check_finals name offs =
  Alcotest.(check (list string)) (name ^ ": tenants off their reference") [] offs

let open_tenants sv sessions =
  for i = 0 to sessions - 1 do
    Service.open_tenant sv (tenant i) (tree_of (family_src (i mod families) base_rhs))
  done

let policy_name = function
  | Service.Round_robin -> "round-robin"
  | Service.Shortest_queue -> "shortest-queue"

(* E15's sweep row: every tenant submits [alt; base], one round each. *)
let service_row ~transport ~sessions ~workers policy =
  let sv = Service.create (Service.config ~policy ~transport workers) g in
  open_tenants sv sessions;
  let stream = [ alt_rhs; base_rhs ] in
  List.iter
    (fun rhs ->
      for i = 0 to sessions - 1 do
        ignore (Service.submit sv (tenant i) (tree_of (family_src (i mod families) rhs)))
      done;
      Service.run_round sv)
    stream;
  Service.drain sv;
  check_finals
    (Printf.sprintf "%d sessions, %d workers, %s" sessions workers (policy_name policy))
    (off_tenants sv sessions (fun i -> replay (i mod families) stream))

let policies = [ Service.Round_robin; Service.Shortest_queue ]

let test_e15_sim () =
  List.iter
    (fun sessions ->
      List.iter (service_row ~transport:`Sim ~sessions ~workers:8) policies)
    [ 100; 1000 ]

(* The switched fabric with a skewed mix: every tenth tenant queues eight
   edits, the rest one. (policy, p50, tenants off their replay) *)
let heavy = List.concat (List.init 4 (fun _ -> [ alt_rhs; base_rhs ]))
let stream_of i = if i mod 10 = 0 then heavy else [ alt_rhs ]

let switched =
  lazy
    (List.map
       (fun policy ->
         let sv =
           Service.create
             (Service.config ~policy ~net:Netsim.Ethernet.switched_params 8)
             g
         in
         open_tenants sv 1000;
         for i = 0 to 999 do
           List.iter
             (fun rhs ->
               ignore
                 (Service.submit sv (tenant i)
                    (tree_of (family_src (i mod families) rhs))))
             (stream_of i)
         done;
         Service.drain sv;
         ( policy,
           (Service.stats sv).Service.st_p50,
           off_tenants sv 1000 (fun i -> replay (i mod families) (stream_of i)) ))
       policies)

let test_e15_switched () =
  List.iter
    (fun (policy, _, offs) -> check_finals (policy_name policy) offs)
    (Lazy.force switched)

let test_e15_policy () =
  let p50 policy =
    List.find_map
      (fun (p, p50, _) -> if p = policy then Some p50 else None)
      (Lazy.force switched)
    |> Option.get
  in
  let sq = p50 Service.Shortest_queue and rr = p50 Service.Round_robin in
  check_bool (Printf.sprintf "shortest-queue %.3f < round-robin %.3f" sq rr) true
    (sq < rr)

let test_e15_domains () =
  let cores = Domain.recommended_domain_count () in
  List.iter
    (fun workers ->
      service_row ~transport:`Domains ~sessions:16 ~workers Service.Round_robin)
    (1 :: List.filter (fun w -> w <= cores) [ 2; 4; 8 ])

(* --------------- E16: provenance leaves the schedule alone --------------- *)

let test_e16_identity () =
  let base = opts ~schedule:`Steal 8 in
  List.iter
    (fun p ->
      let prog = Lazy.force p in
      let r_off, c_off = sim base prog in
      List.iter
        (fun (name, o) ->
          let r, c = sim o prog in
          check_bool (name ^ ": virtual time") true
            (r.Runner.r_time = r_off.Runner.r_time);
          check_string (name ^ ": code") (mask c_off.Driver.c_asm)
            (mask c.Driver.c_asm);
          check_int (name ^ ": ring drops") 0
            (List.fold_left
               (fun n (ring, _) -> n + Pag_obs.Prov.dropped ring)
               0 r.Runner.r_prov))
        [
          ("trace only", { base with Runner.telemetry = true });
          ("provenance", { base with Runner.provenance = true });
        ])
    [ medium; skewed ]

(* --------------- E17: batched edit waves --------------- *)

(* Six independent edit sites; step j has sites 0..j-1 bumped by 100, so
   the batch [step 1; ...; step 6] is six single-site edits. *)
let sites = 6

let batch_src j =
  List.init sites (fun k ->
      Printf.sprintf "    s := s + i * %d" (if k < j then k + 102 else k + 2))
  |> String.concat ";\n"
  |> Printf.sprintf
       "program p;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
       \  repeat\n    i := i * 2;\n%s\n  until i > 100;\n  write(s)\nend.\n"

let steps () = List.init sites (fun j -> tree_of (batch_src (j + 1)))

let batch_final =
  lazy
    (let scratch, _ = Pag_eval.Dynamic.eval g (tree_of (batch_src sites)) in
     masked_code (Pag_eval.Store.root_attrs scratch))

let batch_session ?(provenance = false) machines =
  Session.open_session ~frontier:1.0
    (Session.spec ~granularity:0.05 ~librarian:false ~schedule:`Steal
       ~provenance machines)
    g
    (tree_of (batch_src 0))

let session_code es = masked_code (Pag_eval.Store.root_attrs (Session.store es))

(* (machines, batched/serial edits per second) at 2, 4 and 8 machines,
   checking both finals against a from-scratch compile. *)
let e17 =
  lazy
    (List.map
       (fun m ->
         let es = batch_session m in
         let serial =
           List.fold_left
             (fun lat t -> lat +. (Session.edit es t).Session.er_latency)
             0.0 (steps ())
         in
         let eb = batch_session m in
         let batched = (Session.edit_batch eb (steps ())).Session.br_latency in
         (m, session_code es, session_code eb, serial /. batched))
       [ 2; 4; 8 ])

let test_e17_finals () =
  List.iter
    (fun (m, serial, batched, _) ->
      let want = Lazy.force batch_final in
      check_string (Printf.sprintf "serial, %d machines" m) want serial;
      check_string (Printf.sprintf "batched, %d machines" m) want batched)
    (Lazy.force e17)

let test_e17_speedup () =
  let _, _, _, s = List.find (fun (m, _, _, _) -> m = 8) (Lazy.force e17) in
  check_bool (Printf.sprintf "batched/serial %.2f >= 3" s) true (s >= 3.0)

let test_e17_service () =
  let sessions = 200 in
  let p50 batch =
    let sv = Service.create (Service.config ~batch 8) g in
    for i = 0 to sessions - 1 do
      Service.open_tenant sv (tenant i) (tree_of (batch_src 0))
    done;
    List.iter
      (fun j ->
        for i = 0 to sessions - 1 do
          ignore (Service.submit sv (tenant i) (tree_of (batch_src j)))
        done)
      (List.init sites succ);
    Service.drain sv;
    check_finals
      (Printf.sprintf "batch %d" batch)
      (off_tenants sv sessions (fun _ -> Lazy.force batch_final));
    (Service.stats sv).Service.st_p50
  in
  let gain = p50 1 /. p50 8 in
  check_bool (Printf.sprintf "p50 gain %.2f >= 2" gain) true (gain >= 2.0)

(* A batched wave recorded in the ring blames exactly its fired work. *)
let test_e17_provenance () =
  let ps = batch_session ~provenance:true 8 in
  let causal () =
    Pag_eval.Causal.build [ (Session.prov ps, Session.engine ps) ]
  in
  let f0 = Pag_eval.Causal.firings (causal ()) in
  let r = Session.edit_batch ps (steps ()) in
  let c = causal () in
  check_int "ring grew by the wave's refires" r.Session.br_refired
    (Pag_eval.Causal.firings c - f0);
  let p = Pag_eval.Causal.profile c in
  check_bool "work recorded" true (p.Pag_eval.Causal.pr_work > 0.0);
  check_bool "critical path <= makespan" true
    (p.Pag_eval.Causal.pr_critical <= p.Pag_eval.Causal.pr_makespan +. 1e-9);
  check_bool "profile renders" true
    (String.length (Pag_eval.Causal.profile_json p) > 2)

(* --------------- E18: first-class DAG evaluation --------------- *)

let instances (r : Runner.result) =
  Array.fold_left (fun a s -> a + s.Worker.ws_graph_nodes) 0 r.Runner.r_worker_stats

type e18 = {
  speedup : float;  (** plain static / DAG steal, virtual time *)
  cut : float;  (** 1 - DAG steal instances / plain steal instances *)
  steal_bytes : int;
  dag_bytes : int;
  steal_code : bool;  (** plain steal's masked code = plain static's *)
  dag_code : bool;
  dag_output : bool;  (** DAG steal's VAX output = the interpreter's *)
}

(* Plain static, plain steal and DAG steal at 8 machines, kept as the
   figures the cases check so no compile outlives this lazy. *)
let e18 =
  lazy
    (let prog = Lazy.force repetitive in
     let steal = opts ~schedule:`Steal 8 in
     let r_static, c_static = sim (opts 8) prog in
     let r_steal, c_steal = sim steal prog in
     let r_dag, c_dag = sim { steal with Runner.use_dag = true } prog in
     let same c = String.equal (mask c_static.Driver.c_asm) (mask c.Driver.c_asm) in
     {
       speedup = r_static.Runner.r_time /. r_dag.Runner.r_time;
       cut = 1.0 -. (float (instances r_dag) /. float (instances r_steal));
       steal_bytes = r_steal.Runner.r_bytes;
       dag_bytes = r_dag.Runner.r_bytes;
       steal_code = same c_steal;
       dag_code = same c_dag;
       dag_output =
         String.equal (Test_dag.interp_out prog) (Test_dag.vax_out c_dag);
     })

let test_e18_speedup () =
  let s = (Lazy.force e18).speedup in
  check_bool (Printf.sprintf "dag steal / plain static %.1f >= 10" s) true (s >= 10.0)

let test_e18_instances () =
  let cut = (Lazy.force e18).cut in
  check_bool (Printf.sprintf "instance cut %.3f > 0.5" cut) true (cut > 0.5)

let test_e18_wire () =
  let e = Lazy.force e18 in
  check_bool
    (Printf.sprintf "dag wire %d <= plain steal's %d" e.dag_bytes e.steal_bytes)
    true (e.dag_bytes <= e.steal_bytes)

let test_e18_output () =
  let e = Lazy.force e18 in
  check_bool "steal code = static code" true e.steal_code;
  check_bool "dag code = static code" true e.dag_code;
  check_bool "dag VAX output = interpreter" true e.dag_output

let suite =
  [
    ( "gates",
      [
        Alcotest.test_case "E10 faults: code = fault-free" `Quick test_e10_faults;
        Alcotest.test_case "E13 incremental code = scratch" `Quick
          test_e13_incremental_code;
        Alcotest.test_case "E14 skewed: steal >= 1.2x" `Quick test_e14_skewed;
        Alcotest.test_case "E14 balanced: steal >= 0.95x" `Quick test_e14_balanced;
        Alcotest.test_case "E14 code, sim 1-8 machines" `Quick test_e14_code;
        Alcotest.test_case "E14 code, steal on 2 domains" `Quick test_e14_domains;
        Alcotest.test_case "E15 finals = replay, shared" `Quick test_e15_sim;
        Alcotest.test_case "E15 finals = replay, switched" `Quick test_e15_switched;
        Alcotest.test_case "E15 shortest-queue p50 < RR" `Quick test_e15_policy;
        Alcotest.test_case "E15 finals = replay, domains" `Quick test_e15_domains;
        Alcotest.test_case "E16 recording: same time, code" `Quick test_e16_identity;
        Alcotest.test_case "E17 finals = scratch" `Quick test_e17_finals;
        Alcotest.test_case "E17 batched >= 3x serial at 8" `Quick test_e17_speedup;
        Alcotest.test_case "E17 service p50 >= 2x" `Quick test_e17_service;
        Alcotest.test_case "E17 provenance rider" `Quick test_e17_provenance;
        Alcotest.test_case "E18 dag steal >= 10x static" `Quick test_e18_speedup;
        Alcotest.test_case "E18 instance cut > 50%" `Quick test_e18_instances;
        Alcotest.test_case "E18 dag wire <= plain steal" `Quick test_e18_wire;
        Alcotest.test_case "E18 code and VAX output" `Quick test_e18_output;
      ] );
  ]

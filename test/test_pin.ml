(* Pins the simulator's pricing. A fixed matrix of static-protocol runs and
   edit waves is reduced to text rows — every simulated number printed with
   %h, so a row matches only if the number is bit-identical — and compared
   with the rows recorded in sim_pin.expected. A refactor of the runner or
   of the session wave must leave every row unchanged; a failing run prints
   the first row that differs, how many rows moved, and each moved row's
   key with the fields that moved. A deliberate pricing change re-records
   the file from the sim_pin.actual the failing run writes next to it.

   Local propagation time ([er_prop_ms]) is measured CPU time, not
   simulated, so it is the one report field left out. *)

open Pag_parallel
open Pag_grammars
open Netsim
module Report = Pag_obs.Obs.Report

let h = Printf.sprintf "%h"

let masked_digest asm =
  Digest.to_hex (Digest.string (Pascal.Driver.mask_labels asm))

(* ------------------------- static protocol ------------------------- *)

let fault_plans =
  [
    ("no-faults", None);
    ("all-zero", Some Faults.none);
    ( "drop+dup",
      Some { Faults.none with Faults.fs_drop = 0.05; fs_dup = 0.03; fs_seed = 7 } );
    ("crash-2", Some { Faults.none with Faults.fs_crashes = [ (2, 0.01) ] });
  ]

let variants =
  [
    ("plain", fun o -> o);
    ("no-librarian", fun o -> { o with Runner.use_librarian = false });
    ("dag", fun o -> { o with Runner.use_dag = true });
  ]

let static_rows prog =
  List.concat_map
    (fun sched ->
      List.concat_map
        (fun m ->
          List.concat_map
            (fun (vname, variant) ->
              List.concat_map
                (fun (fname, faults) ->
                  let o =
                    variant
                      {
                        Runner.default_options with
                        Runner.machines = m;
                        schedule = sched;
                        faults;
                      }
                  in
                  let r, c = Pascal.Driver.compile_parallel_sim o prog in
                  let key =
                    Printf.sprintf "%s m=%d %s %s"
                      (match sched with
                      | `Static -> "static"
                      | `Dynamic -> "dynamic"
                      | `Steal -> "steal")
                      m vname fname
                  in
                  let fs =
                    match r.Runner.r_fault_stats with
                    | None -> "-"
                    | Some s ->
                        Printf.sprintf "%d/%d/%d" s.Faults.st_dropped
                          s.Faults.st_duplicated s.Faults.st_delayed
                  in
                  let rp = r.Runner.r_report in
                  let head =
                    Printf.sprintf
                      "%s: time=%s msgs=%d bytes=%d retx=%d recovered=%b \
                       faults=%s frags=%d dynfrac=%s code=%s errors=%d"
                      key (h r.Runner.r_time) r.Runner.r_messages
                      r.Runner.r_bytes r.Runner.r_retransmits
                      r.Runner.r_recovered fs r.Runner.r_fragments
                      (h r.Runner.r_dynamic_fraction)
                      (masked_digest c.Pascal.Driver.c_asm)
                      (List.length c.Pascal.Driver.c_errors)
                  in
                  let report =
                    Printf.sprintf
                      "%s report: horizon=%s dyn=%d static=%d msgs=%d \
                       bytes=%d retx=%d domains=%d label=%s"
                      key (h rp.Report.rp_horizon) rp.Report.rp_dynamic_rules
                      rp.Report.rp_static_rules rp.Report.rp_messages
                      rp.Report.rp_bytes rp.Report.rp_retransmits
                      rp.Report.rp_domains rp.Report.rp_label
                  in
                  let machines =
                    List.map
                      (fun (row : Report.machine) ->
                        Printf.sprintf
                          "%s machine %d %s: active=%s idle=%s util=%s \
                           sends=%d queue=%d"
                          key row.Report.rm_pid row.Report.rm_name
                          (h row.Report.rm_active) (h row.Report.rm_idle)
                          (h row.Report.rm_util) row.Report.rm_sends
                          row.Report.rm_max_queue)
                      rp.Report.rp_machines
                  in
                  let workers =
                    Array.to_list
                      (Array.mapi
                         (fun i (s : Worker.stats) ->
                           Printf.sprintf
                             "%s worker %d: dyn=%d static=%d visits=%d \
                              nodes=%d edges=%d sends=%d spine=%d idle=%s \
                              flat=%d"
                             key i s.Worker.ws_dynamic_rules
                             s.Worker.ws_static_rules s.Worker.ws_visits
                             s.Worker.ws_graph_nodes s.Worker.ws_graph_edges
                             s.Worker.ws_sends s.Worker.ws_spine_len
                             (h s.Worker.ws_idle_wait)
                             s.Worker.ws_bytes_flattened)
                         r.Runner.r_worker_stats)
                  in
                  (head :: report :: machines) @ workers)
                fault_plans)
            variants)
        [ 1; 3; 5 ])
    [ `Static; `Dynamic; `Steal ]

(* ------------------------- edit waves ------------------------- *)

let edit_row key (r : Session.edit_report) =
  Printf.sprintf
    "%s: dirty=%d refired=%d cutoff=%d fallback=%b owner=%d changed=%d \
     total=%d bytes=%d full=%d msgs=%d retx=%d latency=%s"
    key r.Session.er_dirty r.Session.er_refired r.Session.er_cutoff
    r.Session.er_fallback r.Session.er_owner r.Session.er_boundary_changed
    r.Session.er_boundary_total r.Session.er_bytes_incr r.Session.er_bytes_full
    r.Session.er_messages r.Session.er_retransmits (h r.Session.er_latency)

let batch_row key (r : Session.batch_report) =
  Printf.sprintf
    "%s: edits=%d waves=%d conflicts=%d dirty=%d refired=%d cutoff=%d \
     fallbacks=%d rounds=%d changed=%d total=%d bytes=%d msgs=%d retx=%d \
     latency=%s"
    key r.Session.br_edits r.Session.br_waves r.Session.br_conflicts
    r.Session.br_dirty r.Session.br_refired r.Session.br_cutoff
    r.Session.br_fallbacks r.Session.br_rounds r.Session.br_boundary_changed
    r.Session.br_boundary_total r.Session.br_bytes r.Session.br_messages
    r.Session.br_retransmits (h r.Session.br_latency)

let wave_faults =
  [
    ("no-faults", None);
    ( "lossy",
      Some { Faults.none with Faults.fs_drop = 0.3; fs_dup = 0.1; fs_seed = 5 } );
  ]

let expr_of seed =
  Expr_ag.random_program (Random.State.make [| seed |]) ~depth:8

(* Single edits on random expressions: root-level changes, which rebuild
   and re-decompose, and an identity edit that plays no wave. *)
let expr_edit_rows () =
  List.concat_map
    (fun m ->
      List.concat_map
        (fun (fname, faults) ->
          let spec =
            Session.spec ~granularity:0.05 ~librarian:false ?faults m
          in
          let es = Session.open_session spec Expr_ag.grammar (expr_of 3) in
          List.mapi
            (fun i seed ->
              edit_row
                (Printf.sprintf "expr edit m=%d %s #%d" m fname i)
                (Session.edit es (expr_of seed)))
            [ 4; 4; 5; 3 ])
        wave_faults)
    [ 1; 3; 4 ]

(* Batches over independent and interfering expression edits (the second
   batch serializes a conflict into a follow-up wave). *)
let expr_batch_rows () =
  let steps =
    [
      [ Test_incr.indep_base 9 2 3 4; Test_incr.indep_base 9 2 7 4 ];
      [
        Test_incr.indep_base 1 2 7 4;
        Test_incr.indep_base 1 5 7 4;
        Expr_ag.(main (add (mul (num 5) (num 6)) (mul (num 7) (num 4))));
      ];
    ]
  in
  List.concat_map
    (fun m ->
      List.concat_map
        (fun schedule ->
          let spec =
            Session.spec ~granularity:0.05 ~librarian:false ~schedule m
          in
          let es =
            Session.open_session ~frontier:1.1 spec Expr_ag.grammar
              (Test_incr.indep_base 1 2 3 4)
          in
          List.mapi
            (fun i batch ->
              batch_row
                (Printf.sprintf "expr batch m=%d %s #%d" m
                   (if schedule = `Static then "static" else "steal")
                   i)
                (Session.edit_batch es batch))
            steps)
        [ `Static; `Steal ])
    [ 1; 3; 4 ]

(* Batches of root-level changes: the wave rebuilds, has no round
   structure, and re-fires sequentially at the owner. *)
let expr_rebuild_rows () =
  List.concat_map
    (fun m ->
      List.map
        (fun (fname, faults) ->
          let spec =
            Session.spec ~granularity:0.05 ~librarian:false ?faults m
          in
          let es = Session.open_session spec Expr_ag.grammar (expr_of 3) in
          batch_row
            (Printf.sprintf "expr rebuild batch m=%d %s" m fname)
            (Session.edit_batch es [ expr_of 4; expr_of 5 ]))
        wave_faults)
    [ 1; 3; 4 ]

(* A Pascal program with [sites] independent edit sites: each batch edits
   every site at once, so the merged cone refires in level-synchronous
   rounds co-scheduled across the fragment machines; the same edits applied
   one at a time price the owner-sequential wave. *)
let pascal_rows () =
  let g = Pascal.Pascal_ag.grammar in
  let sites = 6 in
  let src cs =
    let stmts = List.map (fun c -> Printf.sprintf "    s := s + i * %d" c) cs in
    Printf.sprintf
      "program p;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
      \  repeat\n    i := i * 2;\n%s\n  until i > 100;\n  write(s)\nend.\n"
      (String.concat ";\n" stmts)
  in
  let tree cs =
    Pascal.Pascal_ag.tree_of_program g (Pascal.Parser.parse_program (src cs))
  in
  let round r = List.init sites (fun k -> k + 2 + (100 * r)) in
  let step r j =
    List.init sites (fun k -> if k < j then k + 2 + (100 * r) else k + 2 + (100 * (r - 1)))
  in
  List.concat_map
    (fun m ->
      List.concat_map
        (fun (fname, faults) ->
          let spec =
            Session.spec ~granularity:0.05 ~librarian:false ~schedule:`Steal
              ?faults m
          in
          let eb = Session.open_session ~frontier:1.0 spec g (tree (round 0)) in
          let batches =
            List.map
              (fun r ->
                batch_row
                  (Printf.sprintf "pascal batch m=%d %s #%d" m fname r)
                  (Session.edit_batch eb
                     (List.init sites (fun j -> tree (step r (j + 1))))))
              [ 1; 2 ]
          in
          let es = Session.open_session ~frontier:1.0 spec g (tree (round 0)) in
          let serial =
            List.init sites (fun j ->
                edit_row
                  (Printf.sprintf "pascal edit m=%d %s #%d" m fname j)
                  (Session.edit es (tree (step 1 (j + 1)))))
          in
          batches @ serial)
        wave_faults)
    [ 1; 3; 4 ]

(* ------------------------- service ------------------------- *)

(* The multi-tenant service on the simulator: three Pascal tenants over
   four rounds whose streams mix subtree edits, structural no-ops and
   root-level changes (the program name and its body both change), swept
   over workers, batch size, policy, a drop + crash-of-worker-2 plan and a
   memory cap that holds two of the three sessions, so tenants are
   evicted and revived. Every {!Service.stats} and per-tenant number is
   printed, then each tenant's masked code digest. *)
let service_rows () =
  let g = Pascal.Pascal_ag.grammar in
  let src (name, c1, c2) =
    Printf.sprintf
      "program %s;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
      \  repeat\n    i := i * 2;\n    s := s + i * %d;\n    s := s + i * %d\n\
      \  until i > 100;\n  write(s)\nend.\n"
      name c1 c2
  in
  let tree p =
    Pascal.Pascal_ag.tree_of_program g (Pascal.Parser.parse_program (src p))
  in
  let base = ("p", 1, 2) in
  (* per round, each tenant's submissions *)
  let rounds =
    [
      [
        [ ("p", 5, 2) ];
        [ ("p", 5, 2); ("p", 5, 7); ("p", 5, 7); ("p", 3, 7) ];
        [ ("q", 1, 9) ];
      ];
      [ [ ("p", 5, 2); ("r", 6, 3) ]; [ ("p", 8, 7) ]; [ ("q", 4, 9); ("q", 4, 6) ] ];
      [ [ ("r", 6, 4) ]; [ ("p", 8, 7); ("s", 8, 1); ("s", 2, 1) ]; [] ];
      [ [ ("r", 7, 5) ]; [ ("s", 3, 1) ]; [ ("q", 4, 6); ("p", 1, 2) ] ];
    ]
  in
  let slots = Pag_eval.Incr.live_slots (Pag_eval.Incr.start g (tree base)) in
  let faults =
    [
      ("no-faults", None);
      ( "drop+crash-2",
        Some
          {
            Faults.none with
            Faults.fs_drop = 0.2;
            fs_seed = 3;
            fs_crashes = [ (2, 0.05) ];
          } );
    ]
  in
  let caps = [ ("uncapped", 0); ("cap-2", (2 * slots) + (slots / 2)) ] in
  let names = [ "t0"; "t1"; "t2" ] in
  List.concat_map
    (fun workers ->
      List.concat_map
        (fun batch ->
          List.concat_map
            (fun (pname, policy) ->
              List.concat_map
                (fun (fname, faults) ->
                  List.concat_map
                    (fun (cname, mem_cap) ->
                      let key =
                        Printf.sprintf "service w=%d batch=%d %s %s %s" workers
                          batch pname fname cname
                      in
                      let sv =
                        Service.create
                          (Service.config ~policy ?faults ~mem_cap ~batch
                             workers)
                          g
                      in
                      List.iter (fun n -> Service.open_tenant sv n (tree base)) names;
                      List.iter
                        (fun round ->
                          List.iter2
                            (fun n ps ->
                              List.iter
                                (fun p -> ignore (Service.submit sv n (tree p)))
                                ps)
                            names round;
                          Service.run_round sv)
                        rounds;
                      let st = Service.stats sv in
                      let head =
                        Printf.sprintf
                          "%s: rounds=%d tenants=%d edits=%d rejected=%d \
                           evictions=%d retx=%d gave_up=%d redispatches=%d \
                           lost=%d slots=%d makespan=%s eps=%s p50=%s p99=%s"
                          key st.Service.st_rounds st.Service.st_tenants
                          st.Service.st_edits st.Service.st_rejected
                          st.Service.st_evictions st.Service.st_retransmits
                          st.Service.st_gave_up st.Service.st_redispatches
                          st.Service.st_workers_lost st.Service.st_live_slots
                          (h st.Service.st_makespan)
                          (h st.Service.st_edits_per_sec)
                          (h st.Service.st_p50) (h st.Service.st_p99)
                      in
                      let tenants =
                        List.map
                          (fun (ts : Service.tenant_stats) ->
                            Printf.sprintf
                              "%s tenant %s: resident=%b edits=%d rejected=%d \
                               evictions=%d retx=%d depth=%d hwm=%d slots=%d \
                               p50=%s p99=%s mean=%s firings=%d critical=%s"
                              key ts.Service.ts_name ts.Service.ts_resident
                              ts.Service.ts_edits ts.Service.ts_rejected
                              ts.Service.ts_evictions ts.Service.ts_retransmits
                              ts.Service.ts_queue_depth ts.Service.ts_queue_hwm
                              ts.Service.ts_live_slots (h ts.Service.ts_p50)
                              (h ts.Service.ts_p99) (h ts.Service.ts_mean)
                              ts.Service.ts_prov_firings
                              (h ts.Service.ts_critical))
                          st.Service.st_per_tenant
                      in
                      let codes =
                        List.map
                          (fun n ->
                            Printf.sprintf "%s tenant %s code=%s" key n
                              (masked_digest
                                 (Pascal.Pascal_ag.code_of_attrs
                                    (Pag_eval.Store.root_attrs
                                       (Service.tenant_store sv n)))))
                          names
                      in
                      (head :: tenants) @ codes)
                    caps)
                faults)
            [
              ("round-robin", Service.Round_robin);
              ("shortest-queue", Service.Shortest_queue);
            ])
        [ 1; 3 ])
    [ 1; 3 ]

(* ------------------------- comparison ------------------------- *)

(* The expected rows, found from wherever the runner was started: dune
   copies them next to the test binary's working directory, and from the
   repository root (or any directory below it) walking up reaches
   test/sim_pin.expected. The failing run's rows go next to the file read. *)
let expected_file =
  lazy
    (let rec find dir =
       let here = Filename.concat dir "sim_pin.expected" in
       let below = Filename.concat (Filename.concat dir "test") "sim_pin.expected" in
       if Sys.file_exists here then here
       else if Sys.file_exists below then below
       else
         let parent = Filename.dirname dir in
         if String.equal parent dir then Alcotest.fail "sim_pin.expected not found"
         else find parent
     in
     find (Sys.getcwd ()))

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* A row's key is the text before its first ':'; the [name=value] tokens
   after it are its fields. *)
let split_row row =
  match String.index_opt row ':' with
  | Some i -> (String.sub row 0 i, String.sub row (i + 1) (String.length row - i - 1))
  | None -> (row, "")

let fields body =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> None)
    (String.split_on_char ' ' body)

(* "key: the fields whose values differ", naming both keys when the rows
   are of different runs. *)
let describe_move e a =
  let ke, be = split_row e and ka, ba = split_row a in
  if not (String.equal ke ka) then Printf.sprintf "%s: now %s" ke ka
  else
    let fa = fields ba in
    let moved =
      List.filter_map
        (fun (n, v) ->
          match List.assoc_opt n fa with
          | Some v' when String.equal v v' -> None
          | _ -> Some n)
        (fields be)
    in
    Printf.sprintf "%s: %s" ke (String.concat " " moved)

let test_pin () =
  let prog = Pascal.Progen.repetitive ~routines:2 ~reps:4 () in
  let rows =
    static_rows prog @ expr_edit_rows () @ expr_batch_rows () @ expr_rebuild_rows ()
    @ pascal_rows () @ service_rows ()
  in
  let expected_file = Lazy.force expected_file in
  let expected = read_lines expected_file in
  let rec pairs i = function
    | [], [] -> []
    | e :: es, a :: as_ -> (i, e, a) :: pairs (i + 1) (es, as_)
    | e :: es, [] -> (i, e, "<missing>") :: pairs (i + 1) (es, [])
    | [], a :: as_ -> (i, "<missing>", a) :: pairs (i + 1) ([], as_)
  in
  match List.filter (fun (_, e, a) -> e <> a) (pairs 1 (expected, rows)) with
  | [] -> ()
  | (i, e, a) :: _ as moved ->
      let actual_file =
        Filename.concat (Filename.dirname expected_file) "sim_pin.actual"
      in
      let oc = open_out actual_file in
      List.iter (fun l -> output_string oc (l ^ "\n")) rows;
      close_out oc;
      Alcotest.failf
        "simulated numbers moved in %d of %d rows, first at row %d\n\
        \  expected: %s\n\
        \  actual:   %s\n\
         moved rows (key: fields):\n\
         %s\n\
         (all rows written to %s)"
        (List.length moved) (List.length rows) i e a
        (String.concat "\n" (List.map (fun (_, e, a) -> "  " ^ describe_move e a) moved))
        actual_file

let suite =
  [ ("pin", [ Alcotest.test_case "simulated numbers" `Quick test_pin ]) ]

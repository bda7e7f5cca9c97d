(* Work-stealing scheduler: the Chase-Lev deque against a list model, a
   two-domain owner-vs-thief race, engine-level equivalence of [run_steal]
   with [run_topo], and the simulated transport under a fault plan. *)

open Pag_core
open Pag_eval

let qc ?(count = 200) name gen prop = Qc_seed.qc ~count name gen prop

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- deque vs list model ---------------- *)

let test_empty () =
  let d = Steal.create () in
  check_bool "pop of empty" true (Steal.pop d = None);
  check_bool "steal of empty" true (Steal.steal d = None);
  check_int "size of empty" 0 (Steal.size d)

let test_single_element_steal () =
  (* The empty-vs-one boundary is where the owner/thief CAS race lives;
     sequentially both sides must see exactly the one element. *)
  let d = Steal.create () in
  Steal.push d 42;
  check_bool "steal gets it" true (Steal.steal d = Some 42);
  check_bool "then pop empty" true (Steal.pop d = None);
  Steal.push d 7;
  check_bool "pop gets it" true (Steal.pop d = Some 7);
  check_bool "then steal empty" true (Steal.steal d = None)

let test_steal_half () =
  let v = Steal.create () and mine = Steal.create () in
  for i = 0 to 9 do
    Steal.push v i
  done;
  let k = Steal.steal_half v ~into:mine in
  check_int "half of ten" 5 k;
  check_int "victim keeps the rest" 5 (Steal.size v);
  (* the oldest (FIFO) half moves *)
  let got = List.init k (fun _ -> Option.get (Steal.steal mine)) in
  Alcotest.(check (list int)) "oldest half in order" [ 0; 1; 2; 3; 4 ] got

(* The deque as a sequence, top first: push appends at the bottom, pop
   removes the bottom (LIFO), steal removes the top (FIFO). Ops are drawn
   as ints: 0-5 push (weighted so deques actually grow), 6 pop, 7 steal. *)
let prop_deque_model =
  qc "push/pop/steal match the list model"
    QCheck.(list (int_bound 7))
    (fun ops ->
      let d = Steal.create () in
      let model = ref [] in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          if op <= 5 then begin
            Steal.push d !next;
            model := !model @ [ !next ];
            incr next
          end
          else if op = 6 then begin
            let expect =
              match List.rev !model with
              | [] -> None
              | x :: rest ->
                  model := List.rev rest;
                  Some x
            in
            ok := !ok && Steal.pop d = expect
          end
          else begin
            let expect =
              match !model with
              | [] -> None
              | x :: rest ->
                  model := rest;
                  Some x
            in
            ok := !ok && Steal.steal d = expect
          end)
        ops;
      !ok && Steal.size d = List.length !model)

(* Past the minimum capacity the circular array grows mid-stream; contents
   must survive the copy. *)
let test_grow () =
  let d = Steal.create () in
  for i = 0 to 99 do
    Steal.push d i
  done;
  let stolen = List.init 50 (fun _ -> Option.get (Steal.steal d)) in
  Alcotest.(check (list int)) "fifo across grow" (List.init 50 Fun.id) stolen;
  let popped = List.init 50 (fun _ -> Option.get (Steal.pop d)) in
  Alcotest.(check (list int))
    "lifo across grow"
    (List.rev (List.init 50 (fun i -> 50 + i)))
    popped

(* ---------------- two domains: no loss, no duplication ---------------- *)

let test_owner_vs_thief () =
  let d = Steal.create () in
  let n = 20_000 in
  let stop = Atomic.make false in
  let thief =
    Domain.spawn (fun () ->
        let acc = ref [] in
        let note v = acc := v :: !acc in
        while not (Atomic.get stop) do
          match Steal.steal d with
          | Some v -> note v
          | None -> Domain.cpu_relax ()
        done;
        (* drain whatever the owner left behind *)
        let rec drain () =
          match Steal.steal d with
          | Some v ->
              note v;
              drain ()
          | None -> ()
        in
        drain ();
        !acc)
  in
  let popped = ref [] in
  for i = 0 to n - 1 do
    Steal.push d i;
    (* interleave owner pops so the last-element race is exercised *)
    if i land 3 = 0 then
      match Steal.pop d with Some v -> popped := v :: !popped | None -> ()
  done;
  let rec drain () =
    match Steal.pop d with
    | Some v ->
        popped := v :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  let stolen = Domain.join thief in
  let all = List.sort compare (!popped @ stolen) in
  check_bool "every pushed id claimed exactly once" true
    (all = List.init n Fun.id)

(* ---------------- engine: run_steal = run_topo ---------------- *)

let stores_bit_identical a b =
  let ok = ref true in
  Store.iter_instances a (fun node attr ->
      match
        ( Store.get_opt a node attr.Grammar.a_name,
          Store.get_opt b node attr.Grammar.a_name )
      with
      | Some x, Some y -> if not (Value.equal x y) then ok := false
      | None, None -> ()
      | _ -> ok := false);
  !ok

let prop_run_steal_matches_topo =
  qc ~count:25 "run_steal = run_topo on random expr trees"
    QCheck.(pair (int_bound 1000) (int_range 2 3))
    (fun (seed, domains) ->
      let g = Pag_grammars.Expr_ag.grammar in
      let tree () =
        Pag_grammars.Expr_ag.random_program (Random.State.make [| seed |]) ~depth:6
      in
      let store1 = Store.create g (tree ()) in
      let e1 = Engine.create g store1 in
      let fired1 = Engine.run_topo e1 (Engine.graph e1) in
      let store2 = Store.create g (tree ()) in
      let e2 = Engine.create g store2 in
      let fired2, stats = Engine.run_steal ~domains e2 (Engine.graph e2) in
      let per_domain = Array.fold_left (fun a s -> a + s.Steal.st_fired) 0 stats in
      fired1 = fired2 && per_domain = fired2
      && Store.missing store2 = 0
      && stores_bit_identical store1 store2)

(* A cyclic instance graph: r.out <- x.s <- x.i <- x.s. *)
let circ_grammar () =
  let open Grammar in
  make ~name:"circ" ~start:"r"
    [
      terminal "T" [];
      nonterminal "r" [ syn "out" ];
      nonterminal "x" [ syn "s"; inh "i" ];
    ]
    [
      production ~name:"root" ~lhs:"r" ~rhs:[ "x" ]
        [
          rule (lhs "out") ~deps:[ rhs 1 "s" ] (fun a -> a.(0));
          rule (rhs 1 "i") ~deps:[ rhs 1 "s" ] (fun a -> a.(0));
        ];
      production ~name:"leaf" ~lhs:"x" ~rhs:[ "T" ]
        [ rule (lhs "s") ~deps:[ lhs "i" ] (fun a -> a.(0)) ];
    ]

let circ_tree g =
  Tree.node g "root" [ Tree.node g "leaf" [ Tree.leaf g "T" [] ] ]

let test_run_steal_cycle () =
  (* a cyclic instance graph must raise, not deadlock, and the slots no
     task defined stay unset *)
  let g = circ_grammar () in
  let store = Store.create g (circ_tree g) in
  let e = Engine.create g store in
  check_bool "cycle detected" true
    (try
       ignore (Engine.run_steal ~domains:2 e (Engine.graph e));
       false
     with Engine.Cycle _ -> true);
  check_int "no slot committed" 3 (Store.missing store);
  let store = Store.create g (circ_tree g) in
  let e = Engine.create g store in
  check_bool "task graph: cycle detected" true
    (try
       ignore (Taskgraph.run_steal ~domains:2 (Taskgraph.of_store e None));
       false
     with Engine.Cycle _ -> true);
  check_int "task graph: no slot committed" 3 (Store.missing store)

(* A sum over a chain of leaves where the rule of one production raises:
   the loop's failure exit. *)
exception Boom

let boom_grammar =
  let open Grammar in
  make ~name:"boom" ~start:"r"
    [
      terminal "T" [];
      nonterminal "r" [ syn "out" ];
      nonterminal "x" [ syn "s" ];
    ]
    [
      production ~name:"root" ~lhs:"r" ~rhs:[ "x" ]
        [ rule (lhs "out") ~deps:[ rhs 1 "s" ] (fun a -> a.(0)) ];
      production ~name:"pair" ~lhs:"x" ~rhs:[ "x"; "x" ]
        [
          rule (lhs "s") ~deps:[ rhs 1 "s"; rhs 2 "s" ] (fun a ->
              let int v = Value.as_int ~ctx:"boom" v in
              Value.Int (int a.(0) + int a.(1)));
        ];
      production ~name:"one" ~lhs:"x" ~rhs:[ "T" ]
        [ rule (lhs "s") ~deps:[] (fun _ -> Value.Int 1) ];
      production ~name:"bad" ~lhs:"x" ~rhs:[ "T" ]
        [ rule (lhs "s") ~deps:[] (fun _ -> raise Boom) ];
    ]

(* Sixteen leaves, the eleventh of them bad. *)
let boom_tree () =
  let g = boom_grammar in
  let leaf i =
    Tree.node g (if i = 10 then "bad" else "one") [ Tree.leaf g "T" [] ]
  in
  let rec build lo hi =
    if hi - lo = 1 then leaf lo
    else
      let mid = (lo + hi) / 2 in
      Tree.node g "pair" [ build lo mid; build mid hi ]
  in
  Tree.node g "root" [ build 0 16 ]

let raises_boom f = try f (); false with Boom -> true

let test_run_steal_failure () =
  (* every instance seeded on domain 1: domain 0 only runs what it
     steals, and must still leave when domain 1's firing raises *)
  let g = boom_grammar in
  let e = Engine.create g (Store.create g (boom_tree ())) in
  check_bool "rule failure re-raised" true
    (raises_boom (fun () ->
         ignore
           (Engine.run_steal ~domains:2 ~owner:(fun _ -> 1) e (Engine.graph e))))

let steal_opts machines =
  {
    Pag_parallel.Runner.default_options with
    Pag_parallel.Runner.machines;
    schedule = `Steal;
  }

let test_sim_steal_failure () =
  check_bool "rule failure re-raised" true
    (raises_boom (fun () ->
         ignore
           (Pag_parallel.Runner.run_sim (steal_opts 2) boom_grammar None
              (boom_tree ()))))

let test_sim_steal_cycle () =
  let g = circ_grammar () in
  check_bool "cycle detected" true
    (try
       ignore (Pag_parallel.Runner.run_sim (steal_opts 2) g None (circ_tree g));
       false
     with Engine.Cycle _ -> true)

(* A run that ends with a slot no rule defines is stuck on every machine
   set: here the start symbol's inherited [ctx], which no rule reads and
   nothing presets. Every task runs, so only the store can tell. *)
let unread_grammar () =
  let open Grammar in
  make ~name:"unread" ~start:"r"
    [
      terminal "T" [];
      nonterminal "r" [ syn "out"; inh "ctx" ];
      nonterminal "x" [ syn "s" ];
    ]
    [
      production ~name:"root" ~lhs:"r" ~rhs:[ "x" ]
        [ rule (lhs "out") ~deps:[ rhs 1 "s" ] (fun a -> a.(0)) ];
      production ~name:"leaf" ~lhs:"x" ~rhs:[ "T" ]
        [ rule (lhs "s") ~deps:[] (fun _ -> Value.Int 1) ];
    ]

let unread_tree g =
  Tree.node g "root" [ Tree.node g "leaf" [ Tree.leaf g "T" [] ] ]

let test_stuck_every_set () =
  let g = unread_grammar () in
  let stuck name f =
    check_bool name true
      (try
         f ();
         false
       with Engine.Cycle _ -> true)
  in
  let engine () =
    let e = Engine.create g (Store.create g (unread_tree g)) in
    (e, Engine.graph e)
  in
  stuck "run_topo" (fun () ->
      let e, gr = engine () in
      ignore (Engine.run_topo e gr));
  stuck "Dynamic.eval" (fun () -> ignore (Dynamic.eval g (unread_tree g)));
  stuck "Dynamic.eval ~dag" (fun () ->
      ignore (Dynamic.eval ~dag:true g (unread_tree g)));
  stuck "run_steal on 2 domains" (fun () ->
      let e, gr = engine () in
      ignore (Engine.run_steal ~domains:2 e gr));
  stuck "Taskgraph.run_steal" (fun () ->
      let e, _ = engine () in
      ignore (Taskgraph.run_steal ~domains:2 (Taskgraph.of_store e None)));
  stuck "sim steal" (fun () ->
      ignore
        (Pag_parallel.Runner.run_sim (steal_opts 2) g None (unread_tree g)))

(* The loop's two shared counters are allocated once. An array of more
   than 256 words filled with a young value makes the runtime collect the
   minor heap first, so a counter array built around a fresh counter cost
   a minor collection on every run over 256 tasks. This run over about
   1,600 tasks allocates far less than the minor heap holds. *)
let test_loop_runs_no_minor_collection () =
  let open Pag_grammars in
  let g = Expr_ag.grammar in
  let rec chain k =
    if k = 0 then Expr_ag.num 1 else Expr_ag.add (chain (k - 1)) (Expr_ag.num 1)
  in
  let e = Engine.create g (Store.create g (Expr_ag.main (chain 400))) in
  let gr = Engine.graph e in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let fired = Engine.run_topo e gr in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  check_bool "over 256 tasks" true (fired > 1000);
  check_int "minor collections during the run" 0 (after - before)

(* Domains steal reports measured idle time: each evaluator's row splits
   the horizon into its idle wait and the rest, and the backoff gauge is
   in seconds. The serial set-up before the loop (store, rows, task
   graph) runs on domain 0 while the other domains do not exist yet, so
   it is busy time on domain 0's row and idle time on every other row:
   their idle waits exceed the measured backoffs by the same set-up. *)
let test_domains_steal_rows () =
  let prog =
    fst (Pascal.Progen.gen (Random.State.make [| 7 |]) Pascal.Progen.small)
  in
  let opts = { (steal_opts 4) with Pag_parallel.Runner.telemetry = true } in
  let r, _ = Pascal.Driver.compile_parallel_domains opts prog in
  let rp = r.Pag_parallel.Runner.r_report in
  let module R = Pag_obs.Obs.Report in
  let horizon = rp.R.rp_horizon in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
  List.iter
    (fun (row : R.machine) ->
      if row.R.rm_pid >= 1 then begin
        let name = row.R.rm_name in
        let st = r.Pag_parallel.Runner.r_worker_stats.(row.R.rm_pid - 1) in
        check_bool (name ^ ": active + idle = horizon") true
          (close (row.R.rm_active +. row.R.rm_idle) horizon);
        check_bool (name ^ ": util = active / horizon") true
          (close row.R.rm_util (row.R.rm_active /. horizon));
        check_bool (name ^ ": idle is the idle wait") true
          (row.R.rm_idle
          = Float.min horizon st.Pag_parallel.Worker.ws_idle_wait)
      end)
    rp.R.rp_machines;
  let d = min 4 (Domain.recommended_domain_count ()) in
  check_int "one row per evaluator plus the parser" (1 + d)
    (List.length rp.R.rp_machines);
  check_bool "telemetry keeps static visit tasks" true
    (r.Pag_parallel.Runner.r_dynamic_fraction < 1.0);
  let gauge name = Pag_obs.Obs.Metrics.gauge_value rp.R.rp_metrics name in
  let waited =
    Array.fold_left
      (fun a st -> a +. st.Pag_parallel.Worker.ws_idle_wait)
      0.0 r.Pag_parallel.Runner.r_worker_stats
  in
  match gauge "steal.idle_wait" with
  | None -> Alcotest.fail "no steal.idle_wait gauge"
  | Some backoff ->
      let setup = (waited -. backoff) /. float_of_int (max 1 (d - 1)) in
      if d = 1 then
        check_bool "one domain: the idle wait is the backoff" true
          (close waited backoff)
      else
        check_bool
          (Printf.sprintf "set-up %.6fs is idle on the other %d domains" setup
             (d - 1))
          true
          (setup > 0.0 && setup < horizon);
      check_bool "no spin-count gauge" true (gauge "steal.idle_spins" = None)

(* Domains steal runs min(m, cores) loop machines, one per domain: the
   report's domain count, the per-machine stats and the rows (one per
   loop machine plus the parser) agree, and the code is the sequential
   compile's up to label numbering. *)
let test_domains_steal_placement () =
  let prog =
    fst (Pascal.Progen.gen (Random.State.make [| 7 |]) Pascal.Progen.small)
  in
  let masked c = Pascal.Driver.mask_labels c.Pascal.Driver.c_asm in
  let seq = masked (Pascal.Driver.compile ~evaluator:`Static prog) in
  let cores = Domain.recommended_domain_count () in
  for m = 1 to 4 do
    let r, c = Pascal.Driver.compile_parallel_domains (steal_opts m) prog in
    let rp = r.Pag_parallel.Runner.r_report in
    let d = rp.Pag_obs.Obs.Report.rp_domains in
    let at what = Printf.sprintf "-m %d: %s" m what in
    check_int (at "min(m, cores) domains") (min m cores) d;
    check_int (at "one stats entry per domain") d
      (Array.length r.Pag_parallel.Runner.r_worker_stats);
    check_int (at "one row per domain plus the parser") (d + 1)
      (List.length rp.Pag_obs.Obs.Report.rp_machines);
    Alcotest.(check string) (at "masked code = sequential") seq (masked c)
  done

(* ---------------- simulated transport under faults ---------------- *)

let test_sim_steal_under_faults () =
  let prog = fst (Pascal.Progen.gen (Random.State.make [| 7 |]) Pascal.Progen.small) in
  let seq = Pascal.Driver.compile ~evaluator:`Static prog in
  let spec =
    {
      Netsim.Faults.none with
      Netsim.Faults.fs_drop = 0.05;
      fs_dup = 0.02;
      fs_delay = 0.01;
    }
  in
  let opts =
    {
      (Pag_parallel.Session.options
         (Pag_parallel.Session.spec ~schedule:`Steal
            ~phase_label:Pascal.Driver.phase_label 3))
      with
      Pag_parallel.Runner.faults = Some spec;
    }
  in
  let _, c = Pascal.Driver.compile_parallel_sim opts prog in
  check_bool "masked code equal under faults" true
    (String.equal
       (Pascal.Driver.mask_labels c.Pascal.Driver.c_asm)
       (Pascal.Driver.mask_labels seq.Pascal.Driver.c_asm))

(* ---------------- the combined task graph on domains ---------------- *)

let plan_of g =
  match Pag_analysis.Kastens.analyze g with
  | Ok p -> p
  | Error f ->
      Alcotest.failf "analysis failed: %a" Pag_analysis.Kastens.pp_failure f

(* The three spine shapes, as [rules_for] over a store: no spine (the
   root is one static task per visit), the nodes holding more than half
   of the tree's instances, and those holding more than 1/200 of them. *)
let shapes =
  [
    ("whole tree static", fun _ _ -> false);
    ("short spine", fun store -> Taskgraph.heavy store ~parts:2);
    ("long spine", fun store -> Taskgraph.heavy store ~parts:200);
  ]

(* Runs [tree]'s combined task graph on two domains with the given spine;
   returns the store and the spine rules fired. *)
let run_combined g plan tree spine =
  let store = Store.create g tree in
  let eng = Engine.create ~rules_for:(spine store) g store in
  let _, fired =
    Taskgraph.run_steal ~domains:2 ~uid_base:Uid.stride
      (Taskgraph.of_store eng (Some plan))
  in
  (store, Array.fold_left (fun a f -> a + f.Taskgraph.f_rules) 0 fired)

let pascal_case (skewed, seed, chain) =
  if skewed then Pascal.Progen.skewed_program ~seed ~chain ()
  else
    fst (Pascal.Progen.gen (Random.State.make [| seed |]) Pascal.Progen.small)

let prop_combined_pascal =
  qc ~count:12 "2-domain task graph = oracle (progen, skewed; 3 spine shapes)"
    QCheck.(triple bool (int_bound 10_000) (int_range 20 300))
    (fun case ->
      let prog = pascal_case case in
      let g = Pascal.Pascal_ag.grammar in
      let plan = Lazy.force Pascal.Driver.plan in
      let masked = Pascal.Driver.mask_labels in
      let oracle = Pascal.Driver.compile ~evaluator:`Oracle prog in
      let oracle = masked oracle.Pascal.Driver.c_asm in
      let rows =
        List.map
          (fun (_, spine) ->
            let tree = Pascal.Pascal_ag.tree_of_program g prog in
            let store, rows = run_combined g plan tree spine in
            let code =
              masked (Pascal.Pascal_ag.code_of_attrs (Store.root_attrs store))
            in
            if Store.missing store = 0 && String.equal code oracle then rows
            else -1)
          shapes
      in
      match rows with
      | [ whole; short; long ] -> whole = 0 && 0 < short && short < long
      | _ -> false)

(* Grammars without labels: every slot is bit-identical to the sequential
   static evaluator's. Repmin's nodes take two visits, so its static
   roots are two tasks chained by the visit edge. *)
let prop_combined_slots =
  qc ~count:30 "2-domain task graph: no slot missing, each = Static_eval's"
    QCheck.(pair bool (int_bound 10_000))
    (fun (repmin, seed) ->
      let g, tree =
        if repmin then
          ( Pag_grammars.Repmin_ag.grammar,
            fun () ->
              Pag_grammars.Repmin_ag.random_tree (Random.State.make [| seed |])
                ~depth:7 )
        else
          ( Pag_grammars.Expr_ag.grammar,
            fun () ->
              Pag_grammars.Expr_ag.random_program (Random.State.make [| seed |])
                ~depth:7 )
      in
      let plan = plan_of g in
      let reference, _ = Static_eval.eval plan (tree ()) in
      List.for_all
        (fun (_, spine) ->
          let store, _ = run_combined g plan (tree ()) spine in
          Store.missing store = 0 && stores_bit_identical reference store)
        shapes)

(* A rule raising inside a static visit: the bad leaf hangs below the
   spine, and its failure surfaces once both domains have returned. *)
let test_combined_failure () =
  let g = boom_grammar in
  let store = Store.create g (boom_tree ()) in
  let eng = Engine.create ~rules_for:(Taskgraph.heavy store ~parts:4) g store in
  let bad = ref None in
  Store.iter_nodes store (fun n ->
      match n.Tree.prod with
      | Some p when p.Grammar.p_name = "bad" -> bad := Some n
      | _ -> ());
  check_bool "the bad leaf is off the spine" false
    (Engine.has_rules eng (Option.get !bad));
  check_bool "rule failure re-raised" true
    (raises_boom (fun () ->
         ignore
           (Taskgraph.run_steal ~domains:2
              (Taskgraph.of_store eng (Some (plan_of g))))))

(* A two-visit symbol whose second visit's inherited attribute is, in the
   [free] context, a constant: only the visit edge keeps visit 2, which
   reads the child's [s] that visit 1 computes, behind visit 1. On one
   domain the deque pops visit 2 first when that edge is missing. *)
let two_visits =
  let open Grammar in
  let int v = Value.as_int ~ctx:"two visits" v in
  make ~name:"two-visits" ~start:"r"
    [
      terminal "T" [];
      terminal "C" [];
      nonterminal "r" [ syn "out" ];
      nonterminal "x" [ inh "i1"; syn "s1"; inh "i2"; syn "s2" ];
      nonterminal "y" [ inh "i"; syn "s" ];
    ]
    [
      production ~name:"fed" ~lhs:"r" ~rhs:[ "x" ]
        [
          rule (rhs 1 "i1") ~deps:[] (fun _ -> Value.Int 1);
          rule (rhs 1 "i2") ~deps:[ rhs 1 "s1" ] (fun a ->
              Value.Int (int a.(0) + 1));
          rule (lhs "out") ~deps:[ rhs 1 "s2" ] (fun a -> a.(0));
        ];
      production ~name:"free" ~lhs:"r" ~rhs:[ "C"; "x" ]
        [
          rule (rhs 2 "i1") ~deps:[] (fun _ -> Value.Int 1);
          rule (rhs 2 "i2") ~deps:[] (fun _ -> Value.Int 5);
          rule (lhs "out") ~deps:[ rhs 2 "s2" ] (fun a -> a.(0));
        ];
      production ~name:"x" ~lhs:"x" ~rhs:[ "y" ]
        [
          rule (rhs 1 "i") ~deps:[ lhs "i1" ] (fun a -> a.(0));
          rule (lhs "s1") ~deps:[ rhs 1 "s" ] (fun a -> a.(0));
          rule (lhs "s2") ~deps:[ lhs "i2"; rhs 1 "s" ] (fun a ->
              Value.Int (int a.(0) + int a.(1)));
        ];
      production ~name:"y" ~lhs:"y" ~rhs:[ "T" ]
        [
          rule (lhs "s") ~deps:[ lhs "i" ] (fun a -> Value.Int (2 * int a.(0)));
        ];
    ]

let test_combined_visit_order () =
  let g = two_visits in
  let plan = plan_of g in
  check_int "x takes two visits" 2 (Pag_analysis.Kastens.visit_count plan "x");
  List.iter
    (fun domains ->
      let tree =
        Tree.node g "free"
          [
            Tree.leaf g "C" [];
            Tree.node g "x" [ Tree.node g "y" [ Tree.leaf g "T" [] ] ];
          ]
      in
      let store = Store.create g tree in
      let eng = Engine.create ~rules_for:(fun n -> n == tree) g store in
      let tg = Taskgraph.of_store eng (Some plan) in
      ignore (Taskgraph.run_steal ~domains tg);
      check_int (Printf.sprintf "%d domains: nothing missing" domains) 0
        (Store.missing store);
      check_bool (Printf.sprintf "%d domains: out = 5 + 2" domains) true
        (Store.get store tree "out" = Value.Int 7))
    [ 1; 2 ]

(* On domains steal only the spine resolves rows: on the skewed program,
   fewer than a third of the instances; all of them once provenance,
   whose rings name firings by rule id, is attached. *)
let test_domains_steal_row_count () =
  let prog = Pascal.Progen.skewed_program ~chain:400 () in
  let sum f (r : Pag_parallel.Runner.result) =
    Array.fold_left (fun a s -> a + f s) 0 r.Pag_parallel.Runner.r_worker_stats
  in
  let dynamic = sum (fun s -> s.Pag_parallel.Worker.ws_dynamic_rules)
  and static = sum (fun s -> s.Pag_parallel.Worker.ws_static_rules) in
  let r, _ = Pascal.Driver.compile_parallel_domains (steal_opts 2) prog in
  let total = dynamic r + static r in
  check_bool
    (Printf.sprintf "%d of %d instances are rows" (dynamic r) total)
    true
    (3 * dynamic r < total);
  check_bool "dynamic fraction from the report" true
    (r.Pag_parallel.Runner.r_dynamic_fraction
    = float_of_int (dynamic r) /. float_of_int total);
  let opts = { (steal_opts 2) with Pag_parallel.Runner.provenance = true } in
  let r, _ = Pascal.Driver.compile_parallel_domains opts prog in
  let rows =
    match r.Pag_parallel.Runner.r_prov with
    | (_, e) :: _ -> Engine.rule_count e
    | [] -> -1
  in
  check_int "provenance: every instance a row" total rows;
  check_int "provenance: every instance fired on the spine" total (dynamic r);
  check_bool "provenance: dynamic fraction 1" true
    (r.Pag_parallel.Runner.r_dynamic_fraction = 1.0)

let suite =
  [
    ( "steal",
      [
        Alcotest.test_case "deque empty" `Quick test_empty;
        Alcotest.test_case "single-element steal" `Quick test_single_element_steal;
        Alcotest.test_case "steal_half" `Quick test_steal_half;
        Alcotest.test_case "grow" `Quick test_grow;
        prop_deque_model;
        Alcotest.test_case "owner vs thief (2 domains)" `Quick test_owner_vs_thief;
        prop_run_steal_matches_topo;
        Alcotest.test_case "run_steal detects cycles" `Quick test_run_steal_cycle;
        Alcotest.test_case "run_steal re-raises a rule failure" `Quick
          test_run_steal_failure;
        Alcotest.test_case "sim steal re-raises a rule failure" `Quick
          test_sim_steal_failure;
        Alcotest.test_case "sim steal detects cycles" `Quick test_sim_steal_cycle;
        Alcotest.test_case "the loop runs no minor collection" `Quick
          test_loop_runs_no_minor_collection;
        Alcotest.test_case "an unset slot is stuck on every machine set" `Quick
          test_stuck_every_set;
        Alcotest.test_case "domains steal rows are measured" `Quick
          test_domains_steal_rows;
        Alcotest.test_case "domains steal on min(m, cores) domains" `Quick
          test_domains_steal_placement;
        Alcotest.test_case "sim steal under faults" `Quick test_sim_steal_under_faults;
        prop_combined_pascal;
        prop_combined_slots;
        Alcotest.test_case "task graph re-raises a visit's failure" `Quick
          test_combined_failure;
        Alcotest.test_case "task graph: a visit waits for the one before" `Quick
          test_combined_visit_order;
        Alcotest.test_case "domains steal rows only on the spine" `Quick
          test_domains_steal_row_count;
      ] );
  ]

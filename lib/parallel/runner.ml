open Pag_core
open Pag_obs
open Netsim

type options = {
  machines : int;
  schedule : [ `Static | `Dynamic | `Steal ];
  granularity : float;
  use_priority : bool;
  use_librarian : bool;
  use_dag : bool;
  phase_label : int -> string option;
  faults : Faults.spec option;
  telemetry : bool;
  provenance : bool;
}

let default_options =
  {
    machines = 1;
    schedule = `Static;
    granularity = 1.0;
    use_priority = true;
    use_librarian = true;
    use_dag = false;
    phase_label = (fun _ -> None);
    faults = None;
    telemetry = false;
    provenance = false;
  }

type result = {
  r_attrs : (string * Value.t) list;
  r_time : float;
  r_worker_stats : Worker.stats array;
  r_trace : Obs.recorder option;
  r_messages : int;
  r_bytes : int;
  r_fragments : int;
  r_split : Split.plan;
  r_dynamic_fraction : float;
  r_retransmits : int;
  r_recovered : bool;
  r_fault_stats : Faults.stats option;
  r_obs : Obs.recorder option;
  r_report : Obs.Report.t;
  r_prov : (Prov.t * Pag_eval.Engine.t) list;
  r_tree : Tree.t;
}

let machine_name ~fragments id =
  if id = 0 then "parser"
  else if id <= fragments then
    Printf.sprintf "eval-%c" (Char.chr (Char.code 'a' + id - 1))
  else "librarian"

let make_task plan (f : Split.fragment) =
  let cuts =
    List.map
      (fun (cut : Tree.t) ->
        let frag =
          match Split.fragment_of_cut_node plan cut.Tree.id with
          | Some fr -> fr
          | None -> assert false
        in
        (cut, frag + 1))
      (Split.cut_nodes plan f.Split.fr_id)
  in
  {
    Worker.t_frag_id = f.Split.fr_id;
    t_root = f.Split.fr_root;
    t_cuts = cuts;
    t_parent_machine =
      (match f.Split.fr_parent with None -> 0 | Some p -> p + 1);
    t_root_is_tree_root = f.Split.fr_id = 0;
  }

let decompose opts g tree =
  Split.decompose g tree ~machines:opts.machines ~granularity:opts.granularity

(* ------------------------- telemetry ------------------------- *)

let run_label opts ~transport =
  let kind =
    match opts.schedule with
    | `Static -> "combined"
    | `Dynamic -> "dynamic"
    | `Steal -> "steal"
  in
  Printf.sprintf "%s, %d machine%s (%s)" kind opts.machines
    (if opts.machines = 1 then "" else "s")
    transport

(* Per-machine telemetry contexts. Each slot is written by exactly one
   machine (its own), so an array is race-free on the domains transport;
   the main thread reads it only after joining every domain. *)
let make_ctxs opts ~n ~clock =
  if opts.telemetry then
    Array.init n (fun pid -> Obs.make_ctx ~pid ~clock)
  else Array.make (max 1 n) Obs.null_ctx

(* Per-machine provenance rings and the engines that resolve them. Like
   [make_ctxs], each slot is written by exactly one machine and read only
   after the run joins. *)
let make_provs opts g ~tree ~n =
  if opts.provenance then begin
    (* Pre-size each machine's ring near its share of the tree's rule
       instances: a from-scratch run fires each rule once. The hint stays
       deliberately under the likely final count — doubling once from a
       near miss costs one small blit, while over-provisioning n machines
       pays for zeroing arrays nothing ever writes. *)
    let total =
      Tree.fold
        (fun acc nd ->
          match nd.Tree.prod with
          | None -> acc
          | Some p -> acc + Array.length p.Grammar.p_rules)
        0 tree
    in
    let hint = total / max 1 (n - 2) in
    let arity = Pag_eval.Causal.arity_for g in
    Array.init n (fun _ -> Prov.create ~hint ~arity ())
  end
  else Array.make (max 1 n) Prov.disabled

let merged_metrics ctxs =
  let reg = Obs.Metrics.create () in
  Array.iter (fun c -> Obs.Metrics.merge ~into:reg c.Obs.x_metrics) ctxs;
  reg

let merge_recorders ctxs extra =
  let rs = Array.to_list (Array.map (fun c -> c.Obs.x_rec) ctxs) in
  Obs.merge (extra @ rs)

let build_report ~label ~clock ~horizon ~machines ~worker_stats ~messages
    ~bytes ~retransmits ~metrics ~domains =
  let dyn =
    Array.fold_left (fun a s -> a + s.Worker.ws_dynamic_rules) 0 worker_stats
  in
  let st =
    Array.fold_left (fun a s -> a + s.Worker.ws_static_rules) 0 worker_stats
  in
  {
    Obs.Report.rp_label = label;
    rp_clock = clock;
    rp_horizon = horizon;
    rp_machines = machines;
    rp_dynamic_rules = dyn;
    rp_static_rules = st;
    rp_messages = messages;
    rp_bytes = bytes;
    rp_retransmits = retransmits;
    rp_metrics = metrics;
    rp_domains = domains;
  }

(* ------------------ the static protocol's machine set ------------------ *)

(* The static protocol's machines, built once for both transports: the
   coordinator (with crash recovery under a fault plan), one {!Worker} per
   fragment, the librarian, their telemetry and provenance slots, and each
   machine's env — {!Reliable} under a fault plan, then {!Intern} with
   [use_dag] on the simulator — layered over the transport's [raw] env.
   The transport supplies only what differs: [now] clocks telemetry,
   [rto], [max_tries] and [watchdog] time the reliable layer and the
   coordinator's liveness probes, and [sim] says [raw] is the network
   simulator. Its clock does not advance inside a firing, so provenance
   durations are priced from the cost model (see {!Worker.config}); and
   it alone has a priced wire, so only it gets interning — on domains,
   interning would only add CPU and cross-domain arena traffic.

   Returns every machine's body in machine-id order, for the transport to
   start its own way, and [collect], which assembles the result once every
   started body has returned. [row stats pid] is the transport's report
   row for machine [pid]. *)
let static_machines ?max_tries opts g plan tree split ~now ~raw ~rto ~watchdog
    ~sim =
  let nfrags = Split.count split in
  let n = nfrags + 2 in
  let librarian = if opts.use_librarian then Some (nfrags + 1) else None in
  (* Sharing classes are computed once on the numbered tree; the immutable
     arrays are read concurrently by every machine's memo. On the static
     protocol [use_dag] collapses on the whole subtree visit — the subtree
     memo keyed on these classes. *)
  let sharing = if opts.use_dag then Some (Tree.sharing tree) else None in
  let faulty = Option.is_some opts.faults in
  let ctxs = make_ctxs opts ~n ~clock:now in
  let provs = make_provs opts g ~tree ~n in
  let engs = Array.make n None in
  (* With a fault plan — even an all-zero one, for overhead measurement —
     every machine talks through its own reliable-delivery layer. Every env
     is built here, before the transport starts any machine, so the list
     needs no lock. *)
  let links = ref [] in
  let machine_env id =
    let obs = ctxs.(id) in
    let base, link =
      if faulty then begin
        let l = Reliable.wrap ~obs ~rto ?max_tries (raw id) in
        links := l :: !links;
        (Reliable.env l, Some l)
      end
      else (raw id, None)
    in
    (* Interning sits above reliable delivery: binds and references are
       retransmitted like any payload, backfills cover reordering. *)
    let env =
      if sim && opts.use_dag then Intern.env (Intern.wrap ~obs base) else base
    in
    (env, link, obs)
  in
  let attrs = ref [] and recovered = ref false in
  let coordinator =
    let env, link, obs = machine_env 0 in
    let recovery =
      Option.map
        (fun l ->
          { Coordinator.rc_link = l; rc_kplan = plan; rc_watchdog = watchdog })
        link
    in
    fun () ->
      let a, r =
        Coordinator.run ~obs ?recovery ?sharing env g ~tree ~plan:split
          ~librarian
      in
      attrs := a;
      recovered := r
  in
  let stats = Array.make nfrags None in
  let worker (f : Split.fragment) =
    let id = f.Split.fr_id + 1 in
    let env, _, obs = machine_env id in
    let cfg =
      {
        Worker.wc_grammar = g;
        wc_plan = plan;
        wc_mode =
          (match opts.schedule with
          | `Dynamic -> `Dynamic
          | `Static | `Steal -> `Combined);
        wc_use_priority = opts.use_priority;
        wc_librarian = librarian;
        wc_phase_label = opts.phase_label;
        wc_obs = obs;
        wc_sharing = sharing;
        wc_prov = provs.(id);
        wc_prov_dwell = sim;
        wc_engine_hook = (fun e -> engs.(id) <- Some e);
      }
    in
    ( id,
      fun () ->
        stats.(f.Split.fr_id) <- Some (Worker.run env cfg (make_task split f))
    )
  in
  let workers = Array.to_list (Array.map worker (Split.fragments split)) in
  let librarians =
    match librarian with
    | Some lid ->
        let env, _, obs = machine_env lid in
        [ (lid, fun () -> Librarian.run ~obs env ~coordinator:0) ]
    | None -> []
  in
  let bodies = ((0, coordinator) :: workers) @ librarians in
  let collect ~transport ~clock ~time ~horizon ~trace ~messages ~bytes
      ~fault_stats ~row ~domains =
    (* A worker that never reported under fault injection was crashed or
       called off; without faults it is a protocol bug. *)
    let worker_stats =
      Array.map
        (function
          | Some s -> s
          | None when faulty -> Worker.zero_stats
          | None -> failwith "worker did not finish")
        stats
    in
    let retransmits =
      List.fold_left
        (fun a l -> a + (Reliable.stats l).Reliable.rs_retransmits)
        0 !links
    in
    let report =
      build_report
        ~label:(run_label opts ~transport)
        ~clock ~horizon
        ~machines:(List.map (fun (pid, _) -> row worker_stats pid) bodies)
        ~worker_stats ~messages ~bytes ~retransmits
        ~metrics:(merged_metrics ctxs) ~domains
    in
    {
      r_attrs = !attrs;
      r_time = time;
      r_worker_stats = worker_stats;
      r_trace = trace;
      r_messages = messages;
      r_bytes = bytes;
      r_fragments = nfrags;
      r_split = split;
      r_dynamic_fraction = Obs.Report.dynamic_fraction report;
      r_retransmits = retransmits;
      r_recovered = !recovered;
      r_fault_stats = fault_stats;
      r_obs =
        (if opts.telemetry then
           Some (merge_recorders ctxs (Option.to_list trace))
         else None);
      r_report = report;
      r_prov =
        List.filter_map
          (fun i ->
            match engs.(i) with
            | Some e when Prov.enabled provs.(i) -> Some (provs.(i), e)
            | _ -> None)
          (List.init n Fun.id);
      r_tree = tree;
    }
  in
  (bodies, collect)

(* ------------------------- simulation ------------------------- *)

module S = Sim.Make (struct
  type msg = Message.t
end)

(* Floor retransmission timeout and liveness watchdog, in virtual seconds,
   sized for the test fixtures (sub-second compute phases). A peer is
   presumed dead only after the full backoff horizon
   rto * (2 + 4 + ... + 2^max_tries) ~ 51s of silence. A simulated machine
   acknowledges nothing while it burns CPU inside one static visit, so the
   horizon must exceed the longest compute phase — {!auto_timeouts} scales
   both to the workload from the cost model (a machine's share of the
   tree's rules), never below these floors. *)
let sim_rto = 0.1

let sim_max_tries = 8

let sim_watchdog = 0.5

(* Workload-scaled timeouts: a machine's longest silent phase is on the
   order of its share of the whole tree's semantic rules, all fired at
   static-rule cost between messages. Probing at a quarter of that phase
   keeps retransmissions sparse during compute; the watchdog then allows
   four silent probe intervals before declaring the peer dead. On the
   paper-scale Pascal workload this lands at the 5s / 20s that E10 used to
   hand-tune; on the test fixtures both floors win. *)
let auto_timeouts opts tree =
  let rules =
    Tree.fold
      (fun acc (n : Tree.t) ->
        match n.Tree.prod with
        | None -> acc
        | Some p -> acc + Array.length p.Grammar.p_rules)
      0 tree
  in
  let phase =
    float_of_int rules *. Cost.default.Cost.static_rule
    /. float_of_int (max 1 opts.machines)
  in
  let rto = Float.max sim_rto (phase /. 4.0) in
  (rto, Float.max sim_watchdog (4.0 *. rto))

let sim_env sim id =
  {
    Transport.e_id = id;
    e_delay = S.delay;
    e_send =
      (fun ~dst m ->
        S.send ~dst ~size:(Message.size m) ~label:(Message.label m) m);
    e_recv = S.recv;
    e_recv_timeout = S.recv_timeout;
    (* Direct scheduler read, not the [ETime] effect: the clock runs once
       per provenance-recorded firing, and fibers all share one OS thread,
       so the unsynchronized read is exact. *)
    e_time = (fun () -> S.now sim);
    e_mark = S.mark;
    e_flush = (fun () -> ());
  }

(* A simulated machine's report row, read off the simulator's log;
   [sends pid] is the machine's message count. *)
let sim_row sim ~fragments ~sends pid =
  let horizon = S.horizon sim and active = S.busy_time sim pid in
  {
    Obs.Report.rm_pid = pid;
    rm_name = machine_name ~fragments pid;
    rm_active = active;
    rm_idle = Float.max 0.0 (horizon -. active);
    rm_util = (if horizon <= 0.0 then 0.0 else active /. horizon);
    rm_sends = sends pid;
    rm_max_queue = S.max_queue_depth sim pid;
  }

let run_sim_static opts g plan tree =
  let split = decompose opts g tree in
  let nfrags = Split.count split in
  let sim = S.create () in
  Option.iter (S.set_faults sim) opts.faults;
  let rto, watchdog = auto_timeouts opts tree in
  let bodies, collect =
    static_machines ~max_tries:sim_max_tries opts g plan tree split
      ~now:(fun () -> S.time ())
      ~raw:(sim_env sim) ~rto ~watchdog ~sim:true
  in
  (* Every machine is spawned, crashed ones included: the simulator kills
     them at their crash time. The run's time is the coordinator's return. *)
  let finish = ref 0.0 in
  List.iter
    (fun (id, body) ->
      ignore
        (S.spawn sim
           ~name:(machine_name ~fragments:nfrags id)
           (fun () ->
             body ();
             if id = 0 then finish := S.time ())))
    bodies;
  S.run sim;
  let net = S.network sim in
  let log = S.events sim in
  (* Boundary messages originated per machine, acks included: the
     delivered flows from it, so parser and librarian are covered too. *)
  let sent = Array.make (nfrags + 2) 0 in
  Obs.iter log (fun e ->
      if e.Obs.e_kind = Obs.Flow then
        sent.(e.Obs.e_pid) <- sent.(e.Obs.e_pid) + 1);
  let row _ = sim_row sim ~fragments:nfrags ~sends:(Array.get sent) in
  collect ~transport:"sim" ~clock:"simulated" ~time:!finish
    ~horizon:(S.horizon sim) ~trace:(Some log)
    ~messages:(Ethernet.messages_sent net)
    ~bytes:(Ethernet.bytes_sent net) ~fault_stats:(S.fault_stats sim) ~row
    ~domains:1

(* ------------------------- work stealing ------------------------- *)

module ESt = Pag_eval.Store
module Eng = Pag_eval.Engine

(* Dense node index -> owning fragment id, from the Split placement. Each
   fragment claims its subtree, stopping above cut children (they are
   other fragments' roots and claim themselves). *)
let fragment_affinity split store =
  let owner = Array.make (max 1 (ESt.node_count store)) 0 in
  let is_cut (n : Tree.t) =
    Split.fragment_of_cut_node split n.Tree.id <> None
  in
  Array.iter
    (fun (f : Split.fragment) ->
      let stack = ref [ f.Split.fr_root ] in
      let rec drain () =
        match !stack with
        | [] -> ()
        | n :: rest ->
            stack := rest;
            owner.(ESt.dense_index store n) <- f.Split.fr_id;
            Array.iter
              (fun c -> if not (is_cut c) then stack := c :: !stack)
              n.Tree.children;
            drain ()
      in
      drain ())
    (Split.fragments split);
  owner

(* Per-machine scheduler statistics as [steal.*] metrics: loop machine [d]
   reports on context [d + 1] (pid 0 is the parser). *)
let steal_metrics ctxs stats =
  Array.iteri
    (fun d (st : Steal.stats) ->
      let obs = ctxs.(d + 1) in
      if Obs.ctx_enabled obs then begin
        let reg = obs.Obs.x_metrics in
        Obs.Metrics.add
          (Obs.Metrics.counter reg "steal.fires")
          st.Steal.st_fired;
        Obs.Metrics.add
          (Obs.Metrics.counter reg "steal.attempts")
          st.Steal.st_attempts;
        Obs.Metrics.add
          (Obs.Metrics.counter reg "steal.successes")
          st.Steal.st_successes;
        Obs.Metrics.add
          (Obs.Metrics.counter reg "steal.stolen")
          st.Steal.st_stolen;
        Obs.Metrics.set_gauge_max reg "steal.deque_hwm"
          (float_of_int st.Steal.st_hwm);
        Obs.Metrics.add_gauge reg "steal.idle_wait" st.Steal.st_idle
      end)
    stats

(* Steal-probe wire sizes: a request is one small frame, a reply carries
   the stolen instance ids. *)
let probe_request_bytes = 64

let probe_reply_bytes k = 32 + (8 * k)

(* Work-stealing evaluation over the network simulator: {!Eng.steal_loop}
   run over a machine set of simulator fibers.

   Unlike the static protocol there is no fragment shipping dance: the
   tree is shared (the paper's machines would each hold their fragment;
   here affinity seeding plays that role), and [opts.machines] evaluator
   fibers drain one shared engine. Loop machine [d] is simulated machine
   [d + 1] (pid 0 is the parser); fragment [i] seeds loop machine
   [i mod machines], so with more machines than fragments the extras start
   empty and steal their way in — exactly the skewed-tree case the static
   placement cannot serve. Firing charges [Cost.steal_rule]; a steal probe
   charges a request and reply frame on the shared Ethernet (so steal
   traffic contends with everything else) plus the round-trip latency.
   Fault plans are priced against steal probes only (drop: the probe times
   out and is retried after backoff; dup: the reply frame is paid twice;
   crashes are a static-protocol notion and are ignored — DESIGN §11
   discusses why). *)
let run_sim_steal opts g tree =
  let split = decompose opts g tree in
  let m = max 1 opts.machines in
  let sim = S.create () in
  let net = S.network sim in
  let injector = Option.map Faults.make opts.faults in
  let store = ESt.create_shared g tree in
  (* With [--dag] the shared DAG is the evaluation substrate: repeated
     subtrees get one rule-instance set per (class × inherited
     fingerprint), parked occurrences own no instances at all, and their
     synthesized attributes arrive by projection when the leader's region
     completes. The loop drains the same deques; the DAG runtime only adds
     work through its two hooks (projection releases consumers,
     materialization seeds fresh instances). *)
  let dag = if opts.use_dag then Some (Tree.dag tree) else None in
  let dplan = Option.map (fun d -> Pag_eval.Dag.plan g store d) dag in
  let eng =
    Eng.create ?rules_for:(Option.map Pag_eval.Dag.rules_for dplan) g store
  in
  (* One ring for the shared engine: machine fibers are cooperative on one
     OS thread, so retargeting the pid before each fire is race-free.
     Durations are priced at the steal-rule cost — the virtual clock
     advances only through the [S.delay] after each firing. *)
  let prov =
    if opts.provenance then
      Prov.create ~hint:(Eng.rule_count eng)
        ~arity:(Pag_eval.Causal.arity_for g) ()
    else Prov.disabled
  in
  if opts.provenance then
    Eng.set_prov ~pid:0 ~dwell_dynamic:Cost.default.Cost.steal_rule
      ~clock:(fun () -> S.now sim)
      eng prov;
  let gr = Eng.graph eng in
  let rt = Option.map (fun p -> Pag_eval.Dag.make p eng gr) dplan in
  let node_frag = fragment_affinity split store in
  let owner rid =
    node_frag.(ESt.dense_index store (Eng.node_of eng rid)) mod m
  in
  (* Each machine's share of the instance table, priced at start-up. *)
  let own_rids = Array.make m 0 and own_edges = Array.make m 0 in
  for rid = 0 to Eng.rule_count eng - 1 do
    if not (Eng.is_dead eng rid) then begin
      let d = owner rid in
      own_rids.(d) <- own_rids.(d) + 1;
      Eng.iter_slot_args eng rid (fun _ -> own_edges.(d) <- own_edges.(d) + 1)
    end
  done;
  let sends = Array.make (m + 1) 0 in
  (* Assignment pricing: with the DAG, each fragment ships as its real
     wire encoding — class bodies cross once per machine, repeats as
     backreferences ({!Split.dag_bytes}). *)
  let frag_wire (f : Split.fragment) =
    match dag with
    | Some d -> Split.dag_bytes split d.Tree.dg_sharing f
    | None -> f.Split.fr_bytes
  in
  let bytes_per_machine = Array.make (m + 1) 0 in
  Array.iter
    (fun (f : Split.fragment) ->
      let k = (f.Split.fr_id mod m) + 1 in
      bytes_per_machine.(k) <- bytes_per_machine.(k) + frag_wire f)
    (Split.fragments split);
  let ctxs = make_ctxs opts ~n:(m + 1) ~clock:(fun () -> S.time ()) in
  let attrs = ref [] in
  let finish = ref 0.0 in
  (* [cur] is the loop machine whose fiber runs: work the DAG runtime adds
     lands on its deque. [last] fired most recently: once the store is
     complete it ships the root attributes. Fibers share one OS thread, so
     both are race-free. *)
  let cur = ref 0 and last = ref (-1) in
  let send_from k msg =
    sends.(k) <- sends.(k) + 1;
    S.send ~dst:0 ~size:(Message.size msg) ~label:(Message.label msg) msg
  in
  (* pid 0: the parser hands each machine its affinity share, then
     collects root attributes and one Stop per machine. *)
  let parser () =
    for k = 1 to m do
      let msg =
        Message.Subtree
          {
            frag = k - 1;
            bytes = bytes_per_machine.(k);
            uid_base = k * Uid.stride;
          }
      in
      S.send ~dst:k ~size:(Message.size msg) ~label:(Message.label msg) msg
    done;
    let stops = ref 0 in
    let acc = ref [] in
    while !stops < m do
      match S.recv () with
      | Message.Stop -> incr stops
      | Message.Attr { attr; value; _ } -> acc := (attr, value) :: !acc
      | _ -> ()
    done;
    attrs := List.rev !acc;
    finish := S.time ()
  in
  let start ~seed ~release body =
    Option.iter
      (fun rt ->
        Pag_eval.Dag.set_hooks rt
          ~on_defined:(fun slot -> release !cur slot)
          ~on_new_rids:(fun lo hi -> seed !cur lo hi);
        Pag_eval.Dag.prime rt)
      rt;
    ignore (S.spawn sim ~name:"parser" parser);
    for k = 1 to m do
      ignore
        (S.spawn sim
           ~name:(machine_name ~fragments:m k)
           (fun () ->
             (match S.recv () with
             | Message.Subtree { bytes; _ } ->
                 S.delay
                   (float_of_int bytes *. Cost.default.Cost.rebuild_per_byte)
             | _ -> ());
             (* This machine's share of instance-table construction.
                Unlike the 1987 dynamic scheduler's linked dependency
                graph, the flat table and its CSR edges are array
                arithmetic: no per-edge insertion charge, and the
                per-instance constant is one counter store, not a
                graph-node allocation. *)
             S.delay
               (float_of_int own_rids.(k - 1) *. Cost.default.Cost.steal_init);
             body (k - 1);
             if !last = k - 1 && ESt.missing store = 0 then
               List.iter
                 (fun (attr, value) ->
                   send_from k
                     (Message.Attr { node = tree.Tree.id; attr; value }))
                 (ESt.root_attrs store);
             send_from k Message.Stop))
    done;
    S.run sim
  in
  let fire d ~release =
    let k = d + 1 in
    let cursor = ref (k * Uid.stride) in
    fun rid ->
      cur := d;
      if opts.provenance then Eng.set_prov_pid eng k;
      (* Fibers interleave on one thread, so each firing brackets its own
         uid cursor. *)
      Uid.with_counter cursor (fun () ->
          match rt with
          | None -> Eng.fire eng rid
          | Some rt ->
              (* Mark inside the bracket: the fiber draws labels from its
                 own cursor, so that is the cursor whose motion witnesses
                 a uid-consuming (untaintable) rule. *)
              let u0 = Uid.mark () in
              Eng.fire eng rid;
              if Uid.mark () <> u0 then
                Pag_eval.Dag.note_taint rt (Eng.node_of eng rid).Tree.id);
      S.delay Cost.default.Cost.steal_rule;
      last := d;
      let tgt = Eng.target_slot eng rid in
      release tgt;
      (* Projections and materializations cascade back through the hooks,
         landing on this machine's deque. *)
      Option.iter (fun rt -> Pag_eval.Dag.note_define rt tgt) rt
  in
  let probe d (st : Steal.stats) ~victim deque ~into =
    let k = d + 1 and v = victim + 1 in
    let verdict = Option.map (fun i -> Faults.judge i ~src:k ~dst:v) injector in
    let now = S.time () in
    let req_arrival = Ethernet.transmit net ~now ~size:probe_request_bytes in
    sends.(k) <- sends.(k) + 1;
    match verdict with
    | Some x when x.Faults.v_drop ->
        (* probe lost: wait out the timeout, retry later *)
        S.delay (sim_rto +. (req_arrival -. now));
        st.Steal.st_idle <- st.Steal.st_idle +. sim_rto;
        0
    | _ ->
        (* The stolen instances are in flight until the reply arrives:
           they leave the victim's deque now but only enter ours after the
           reply delay, so no machine can re-steal them mid-transfer.
           (Pushing before the delay livelocks two machines: the victim,
           now idle, steals the batch back inside our reply window, and
           each successful probe resets both backoffs.) *)
        let items = Steal.steal_some deque in
        let stolen = List.length items in
        let reply_size = probe_reply_bytes stolen in
        let reply_arrival =
          Ethernet.transmit net ~now:req_arrival ~size:reply_size
        in
        let reply_arrival =
          match verdict with
          | Some x ->
              if x.Faults.v_dup then
                ignore
                  (Ethernet.transmit net ~now:req_arrival ~size:reply_size);
              reply_arrival +. x.Faults.v_delay
          | None -> reply_arrival
        in
        S.delay (Float.max 0.0 (reply_arrival -. now));
        List.iter (Steal.push into) items;
        stolen
  in
  (* exponential backoff between failed probes *)
  let wait _ backoff =
    let w = 0.0005 *. float_of_int (1 lsl min backoff 6) in
    S.delay w;
    w
  in
  (* When the deques run dry with the store incomplete, a parked
     occurrence's gate is fed by its own class's output (repmin shape):
     demand-materialize the lowest stalled region and keep going. Any
     fiber may hit this; the choice is deterministic. *)
  let refill d =
    match rt with
    | Some rt when ESt.missing store > 0 ->
        cur := d;
        Pag_eval.Dag.force_stalled rt
    | _ -> false
  in
  let _, stats =
    Eng.steal_loop eng (Eng.rule_tasks eng gr) ~owner
      {
        Eng.ms_count = m;
        ms_start = start;
        ms_fire = fire;
        ms_probe = probe;
        ms_wait = wait;
        ms_refill = refill;
      }
  in
  (* Projected slots have no firing: under the DAG, completion is the
     store's. *)
  if Option.is_some rt && ESt.missing store > 0 then
    raise
      (Eng.Cycle
         (Printf.sprintf
            "dynamic evaluation stuck: %d attribute instances unevaluated \
             (circular tree or missing root attributes)"
            (ESt.missing store)));
  (match rt with
  | Some rt when Obs.ctx_enabled ctxs.(0) ->
      let s = Pag_eval.Dag.stats rt in
      let reg = ctxs.(0).Obs.x_metrics in
      Obs.Metrics.add
        (Obs.Metrics.counter reg "dag.regions")
        s.Pag_eval.Dag.dg_regions;
      Obs.Metrics.add
        (Obs.Metrics.counter reg "dag.projected_slots")
        s.Pag_eval.Dag.dg_projected_slots;
      Obs.Metrics.add
        (Obs.Metrics.counter reg "dag.materialized_rids")
        s.Pag_eval.Dag.dg_materialized_rids
  | _ -> ());
  steal_metrics ctxs stats;
  let worker_stats =
    Array.mapi
      (fun d (st : Steal.stats) ->
        {
          Worker.zero_stats with
          ws_dynamic_rules = st.Steal.st_fired;
          ws_graph_nodes = own_rids.(d);
          ws_graph_edges = own_edges.(d);
          ws_sends = sends.(d + 1);
          ws_idle_wait = st.Steal.st_idle;
        })
      stats
  in
  let log = S.events sim in
  let machine_rows =
    List.init (m + 1)
      (sim_row sim ~fragments:m ~sends:(fun pid ->
           if pid = 0 then m else sends.(pid)))
  in
  let metrics = merged_metrics ctxs in
  let report =
    build_report
      ~label:(run_label opts ~transport:"sim")
      ~clock:"simulated" ~horizon:(S.horizon sim) ~machines:machine_rows
      ~worker_stats ~messages:(Ethernet.messages_sent net)
      ~bytes:(Ethernet.bytes_sent net) ~retransmits:0 ~metrics ~domains:1
  in
  let r_obs =
    if opts.telemetry then Some (merge_recorders ctxs [ log ]) else None
  in
  {
    r_attrs = !attrs;
    r_time = !finish;
    r_worker_stats = worker_stats;
    r_trace = Some log;
    r_messages = Ethernet.messages_sent net;
    r_bytes = Ethernet.bytes_sent net;
    r_fragments = m;
    r_split = split;
    r_dynamic_fraction = 1.0;
    r_retransmits = 0;
    r_recovered = false;
    r_fault_stats = Option.map Faults.stats injector;
    r_obs;
    r_report = report;
    r_prov = (if opts.provenance then [ (prov, eng) ] else []);
    r_tree = tree;
  }

let run_sim opts g plan tree =
  match opts.schedule with
  | `Steal -> run_sim_steal opts g tree
  | `Static | `Dynamic -> run_sim_static opts g plan tree

(* ------------------------- domains ------------------------- *)

(* Real-time counterparts of the simulator's timeouts: domain message
   latency is microseconds, so these sit orders of magnitude above it. *)
let dom_rto = 0.02

let dom_watchdog = 0.2

(* A domains report row. No simulator log on domains: an evaluator's
   measured idle wait stands in for its "active"/"idle" spans, and machines
   without one (parser, librarian) report the whole horizon idle. *)
let domains_row ~fragments ~horizon (worker_stats : Worker.stats array) pid =
  let active, idle, sends =
    if pid >= 1 && pid <= fragments then begin
      let s = worker_stats.(pid - 1) in
      let idle = Float.min horizon s.Worker.ws_idle_wait in
      (Float.max 0.0 (horizon -. idle), idle, s.Worker.ws_sends)
    end
    else (0.0, horizon, 0)
  in
  {
    Obs.Report.rm_pid = pid;
    rm_name = machine_name ~fragments pid;
    rm_active = active;
    rm_idle = idle;
    rm_util = (if horizon > 0.0 then active /. horizon else 0.0);
    rm_sends = sends;
    rm_max_queue = -1;
  }

(* The steal schedule's spine on domains: a node whose subtree holds more
   than [1 / (spine_parts * D)] of the tree's rule instances. On the
   skewed program (1600-step chains) at two domains of a 2-core machine,
   8 parts per domain evaluated as fast as 16 or faster in every
   measurement, 32 and 64 parts 2-10% slower. The scaling by [D] is
   measured only at [D = 2]. *)
let spine_parts = 8

(* Work-stealing evaluation on real domains: the combined evaluator's task
   graph ({!Pag_eval.Taskgraph}) on {!Eng.run_tasks} over [D = min m cores]
   loop machines. The spine's rule instances are tasks of their own, and
   every subtree hanging off the spine is one task per static visit. The
   CPU does the actual work, so no cost model applies; [st_idle] is the
   wall-clock time each domain spent backing off. *)
let run_domains_steal opts g plan tree =
  let t0 = Unix.gettimeofday () in
  (* Stealing places no fragments: the plan is the unsplit tree, which
     also numbers a tree built without ids. *)
  let split =
    Split.decompose g tree ~machines:1 ~granularity:opts.granularity
  in
  let m = max 1 opts.machines in
  let d = Pag_util.Placement.count m in
  let store = ESt.create_shared g tree in
  (* Without a plan, or with provenance (whose rings name firings by rule
     id), every node is on the spine: one task per rule instance. No DAG
     plan either, even under [use_dag]: the DAG runtime's projection
     bookkeeping is single-threaded, so [--dag] on domains steal runs the
     same graph as without it. *)
  let plan = if opts.provenance then None else plan in
  let spine =
    match plan with
    | Some _ -> Pag_eval.Taskgraph.heavy store ~parts:(spine_parts * d)
    | None -> fun _ -> true
  in
  let eng = Eng.create ~rules_for:spine g store in
  let tg = Pag_eval.Taskgraph.of_store eng plan in
  (* One ring per domain (the shared engine's attached ring is not
     domain-safe); pids are domain ids, timestamps wall-clock relative to
     the run start. *)
  let provs =
    if opts.provenance then
      let arity = Pag_eval.Causal.arity_for g in
      Some (Array.init d (fun _ -> Prov.create ~arity ()))
    else None
  in
  let ts = Unix.gettimeofday () in
  let stats, fired =
    Pag_eval.Taskgraph.run_steal ~domains:d ~uid_base:Uid.stride ?prov:provs
      ~prov_clock:(fun () -> Unix.gettimeofday () -. t0)
      tg
  in
  let t1 = Unix.gettimeofday () in
  let ctxs =
    make_ctxs opts ~n:(d + 1) ~clock:(fun () -> Unix.gettimeofday () -. t0)
  in
  steal_metrics ctxs stats;
  (* The set-up before the loop runs on domain 0 alone: the other domains
     do not exist yet, so it is idle time on theirs. *)
  let setup = ts -. t0 in
  let worker_stats =
    Array.mapi
      (fun k (st : Steal.stats) ->
        let f = fired.(k) in
        {
          Worker.zero_stats with
          ws_dynamic_rules = f.Pag_eval.Taskgraph.f_rules;
          ws_static_rules = f.f_static_rules;
          ws_visits = f.f_visits;
          ws_idle_wait = (st.Steal.st_idle +. if k = 0 then 0.0 else setup);
        })
      stats
  in
  let horizon = t1 -. t0 in
  let report =
    build_report
      ~label:(run_label opts ~transport:"domains")
      ~clock:"wall clock" ~horizon
      ~machines:
        (List.init (d + 1) (domains_row ~fragments:d ~horizon worker_stats))
      ~worker_stats ~messages:0 ~bytes:0 ~retransmits:0
      ~metrics:(merged_metrics ctxs) ~domains:d
  in
  let r_obs =
    if opts.telemetry then Some (merge_recorders ctxs []) else None
  in
  {
    r_attrs = ESt.root_attrs store;
    r_time = horizon;
    r_worker_stats = worker_stats;
    r_trace = None;
    r_messages = 0;
    r_bytes = 0;
    r_fragments = m;
    r_split = split;
    r_dynamic_fraction = Obs.Report.dynamic_fraction report;
    r_retransmits = 0;
    r_recovered = false;
    r_fault_stats = None;
    r_obs;
    r_report = report;
    r_prov =
      (match provs with
      | Some ps -> Array.to_list (Array.map (fun p -> (p, eng)) ps)
      | None -> []);
    r_tree = tree;
  }

(* Placement of the static protocol's machines on min(fragments, cores)
   domains: the calling domain hosts the coordinator, the librarian and
   fragment 0; fragments 1..N-1 go round-robin onto the other domains. On
   each domain the machines run as cooperative fibers ({!Fibers}). *)
let home_domain ~fragments ~domains machine =
  let frag = machine - 1 in
  if frag < 1 || frag >= fragments || domains = 1 then 0
  else 1 + ((frag - 1) mod (domains - 1))

let run_domains_static opts g plan tree =
  let split = decompose opts g tree in
  let nfrags = Split.count split in
  let nmachines = nfrags + 2 in
  let hosts = Fibers.create ~machines:nmachines in
  (* Crashed machines never start on the domains transport (crash times are
     a simulator notion); their mail is discarded unread. *)
  let crashed = Array.make nmachines false in
  (match opts.faults with
  | Some sp ->
      List.iter
        (fun (m, _t) -> if m >= 0 && m < nmachines then crashed.(m) <- true)
        sp.Faults.fs_crashes
  | None -> ());
  (* One fault injector and one reorder stash per machine: each is touched
     only by its owner's fiber, keeping the PRNG streams race-free and
     per-sender deterministic. *)
  let injectors =
    match opts.faults with
    | Some sp -> Array.init nmachines (fun _ -> Some (Faults.make sp))
    | None -> Array.make nmachines None
  in
  let stashes = Array.init nmachines (fun _ -> ref None) in
  let push ~dst m = Fibers.push hosts ~dst m in
  let send_from src ~dst m =
    if not crashed.(dst) then
      match injectors.(src) with
      | None -> push ~dst m
      | Some inj -> (
          let v = Faults.judge inj ~src ~dst in
          let stash = stashes.(src) in
          if v.Faults.v_drop then ()
          else if v.Faults.v_reorder && !stash = None then
            (* Hold this message back past the sender's next transmission. *)
            stash := Some (dst, m)
          else begin
            push ~dst m;
            if v.Faults.v_dup then push ~dst m;
            match !stash with
            | Some (sdst, sm) ->
                push ~dst:sdst sm;
                stash := None
            | None -> ()
          end)
  in
  let raw id =
    {
      Transport.e_id = id;
      e_delay = (fun _ -> ());
      e_send = (fun ~dst m -> send_from id ~dst m);
      e_recv = (fun () -> Fibers.recv hosts id);
      e_recv_timeout = (fun d -> Fibers.recv_timeout hosts id d);
      e_time = Unix.gettimeofday;
      e_mark = (fun _ -> ());
      e_flush = (fun () -> ());
    }
  in
  let start = Unix.gettimeofday () in
  let bodies, collect =
    static_machines opts g plan tree split
      ~now:(fun () -> Unix.gettimeofday () -. start)
      ~raw ~rto:dom_rto ~watchdog:dom_watchdog ~sim:false
  in
  let domains = Pag_util.Placement.count nfrags in
  let t0 = Unix.gettimeofday () in
  (* Machine-id order: on the calling domain the coordinator ships every
     fragment before fragment 0's evaluator takes the domain. *)
  let used =
    Fibers.run hosts
      (List.filter_map
         (fun (id, body) ->
           if id > 0 && crashed.(id) then None
           else Some (id, home_domain ~fragments:nfrags ~domains id, body))
         bodies)
  in
  let t1 = Unix.gettimeofday () in
  let fault_stats =
    if Option.is_some opts.faults then begin
      let total = { Faults.st_dropped = 0; st_duplicated = 0; st_delayed = 0 } in
      Array.iter
        (function
          | Some inj ->
              let s = Faults.stats inj in
              total.Faults.st_dropped <- total.Faults.st_dropped + s.Faults.st_dropped;
              total.Faults.st_duplicated <-
                total.Faults.st_duplicated + s.Faults.st_duplicated;
              total.Faults.st_delayed <- total.Faults.st_delayed + s.Faults.st_delayed
          | None -> ())
        injectors;
      Some total
    end
    else None
  in
  let horizon = t1 -. t0 in
  let row = domains_row ~fragments:nfrags ~horizon in
  collect ~transport:"domains" ~clock:"wall clock" ~time:horizon ~horizon
    ~trace:None ~messages:0 ~bytes:0 ~fault_stats ~row ~domains:used

let run_domains opts g plan tree =
  match opts.schedule with
  | `Steal -> run_domains_steal opts g plan tree
  | `Static | `Dynamic -> run_domains_static opts g plan tree

open Pag_core
open Pag_eval
open Netsim
open Pag_obs

(* Multi-tenant compile service: a resident pool of incremental sessions
   multiplexed over a bounded set of workers, one scheduling round at a
   time. See service.mli for the model; the short version:

   - admission: per-tenant FIFO queues, bounded (backpressure rejects);
   - scheduling: each round drains the non-empty queues into per-tenant
     batches and deals the batches to workers (round-robin or
     shortest-queue);
   - application: every edit goes through the tenant's own {!Incr}
     session in submission order — the scheduling layer prices and
     orders, it never changes what a tenant computes, so multiplexed
     finals are bit-identical to isolated single-session runs;
   - pricing ([`Sim]): dispatch message + owner rebuild/propagation delay
     + result message, all workers sharing one Ethernet, with optional
     fault injection (dropped dispatches retransmit after an RTO, a
     crashed worker's remaining batches re-dispatch to survivors);
   - lifecycle: memory-capped LRU eviction and idle timeout; an evicted
     tenant keeps its tree and revives on the next touch. *)

type policy = Round_robin | Shortest_queue

type config = {
  c_workers : int;
  c_policy : policy;
  c_transport : [ `Sim | `Domains ];
  c_queue_cap : int;
  c_mem_cap : int;
  c_idle_rounds : int;
  c_dag : bool;
  c_faults : Faults.spec option;
  c_net : Ethernet.params;
  c_obs : Obs.ctx;
  c_provenance : bool;
  c_batch : int;  (* edits per chunk; 1 applies and prices one at a time *)
}

(* Per-tenant rings stay modest: a resident session records refires, not
   whole-program histories, and the ring caps the tail anyway. *)
let prov_cap = 1 lsl 16

(* Simulated seconds before a dropped message is retransmitted, and after a
   worker's crash before the coordinator re-dispatches its batches. *)
let fault_rto = 0.05

let config ?(policy = Round_robin) ?(transport = `Sim) ?(queue_cap = 0)
    ?(mem_cap = 0) ?(idle_rounds = 0) ?(dag = false) ?faults
    ?(net = Ethernet.default_params) ?(obs = Obs.null_ctx)
    ?(provenance = false) ?(batch = 1) workers =
  if workers < 1 then invalid_arg "Service.config: workers < 1";
  {
    c_workers = workers;
    c_policy = policy;
    c_transport = transport;
    c_queue_cap = queue_cap;
    c_mem_cap = mem_cap;
    c_idle_rounds = idle_rounds;
    c_dag = dag;
    c_faults = faults;
    c_net = net;
    c_obs = obs;
    c_provenance = provenance;
    c_batch = max 1 batch;
  }

(* Bounded latency reservoir: exact count/sum (so the mean is exact) plus
   a uniform sample of at most [lat_cap] observations for percentiles —
   per-tenant resident memory stays bounded however long the service
   runs. The RNG is seeded from the tenant name, keeping runs
   deterministic. *)
let lat_cap = 2048

type reservoir = {
  r_buf : float array;  (* lat_cap slots *)
  mutable r_n : int;  (* samples observed over the lifetime *)
  mutable r_sum : float;
  r_rng : Random.State.t;
}

let reservoir name =
  {
    r_buf = Array.make lat_cap 0.0;
    r_n = 0;
    r_sum = 0.0;
    r_rng = Random.State.make [| Hashtbl.hash name; 0x5eed |];
  }

let res_add r x =
  (if r.r_n < lat_cap then r.r_buf.(r.r_n) <- x
   else
     let j = Random.State.int r.r_rng (r.r_n + 1) in
     if j < lat_cap then r.r_buf.(j) <- x);
  r.r_n <- r.r_n + 1;
  r.r_sum <- r.r_sum +. x

let res_samples r = Array.to_list (Array.sub r.r_buf 0 (min r.r_n lat_cap))
let res_mean r = if r.r_n = 0 then 0.0 else r.r_sum /. float_of_int r.r_n

type tenant = {
  t_name : string;
  t_queue : (Tree.t * float) Queue.t;  (* (edit, submit time) *)
  mutable t_session : Incr.session option;  (* None = evicted *)
  mutable t_tree : Tree.t;  (* resident tree, kept across eviction *)
  mutable t_last_active : int;  (* round of last applied edit *)
  mutable t_in_round : bool;  (* scheduled this round: exempt from eviction *)
  mutable t_edits : int;
  mutable t_rejected : int;
  mutable t_evictions : int;
  mutable t_retransmits : int;
  mutable t_queue_hwm : int;
  t_lat : reservoir;  (* latency samples, seconds *)
  t_prov : Prov.t;  (* firing provenance of the resident session *)
}

type t = {
  sv_cfg : config;
  sv_g : Grammar.t;
  sv_tenants : (string, tenant) Hashtbl.t;
  mutable sv_order_rev : tenant list;  (* admission order, newest first *)
  sv_net : Ethernet.t;
  sv_faults : Faults.t option;
  sv_crash_at : float array;  (* per worker; infinity = never *)
  sv_dead : bool array;
  mutable sv_now : float;  (* virtual clock (`Sim) / busy seconds (`Domains) *)
  mutable sv_round : int;
  mutable sv_rr : int;
  mutable sv_edits : int;
  mutable sv_rejected : int;
  mutable sv_evictions : int;
  mutable sv_retransmits : int;
  mutable sv_gave_up : int;  (* retransmit cap hit; delivered anyway *)
  mutable sv_redispatches : int;
  sv_t0 : float;  (* wall clock at creation (`Domains submit stamps) *)
}

let create cfg g =
  let crash_at = Array.make cfg.c_workers infinity in
  (match cfg.c_faults with
  | None -> ()
  | Some f ->
      List.iter
        (fun (m, at) ->
          (* fault-plan machine ids are 1-based worker pids (0 is the
             coordinator, as in the runner) *)
          let w = m - 1 in
          if w >= 0 && w < cfg.c_workers then
            crash_at.(w) <- Float.min crash_at.(w) at)
        f.Faults.fs_crashes);
  {
    sv_cfg = cfg;
    sv_g = g;
    sv_tenants = Hashtbl.create 64;
    sv_order_rev = [];
    sv_net = Ethernet.create cfg.c_net;
    sv_faults =
      (match cfg.c_faults with
      | Some f when cfg.c_transport = `Sim -> Some (Faults.make f)
      | _ -> None);
    sv_crash_at = crash_at;
    sv_dead = Array.make cfg.c_workers false;
    sv_now = 0.0;
    sv_round = 0;
    sv_rr = 0;
    sv_edits = 0;
    sv_rejected = 0;
    sv_evictions = 0;
    sv_retransmits = 0;
    sv_gave_up = 0;
    sv_redispatches = 0;
    sv_t0 = Unix.gettimeofday ();
  }

let metrics sv = sv.sv_cfg.c_obs.Obs.x_metrics

let bump sv name labels n =
  let reg = metrics sv in
  if Obs.Metrics.live reg then
    Obs.Metrics.add (Obs.Metrics.counter reg (Obs.Metrics.labeled name labels)) n

let tenant_label tn = [ ("tenant", tn.t_name) ]

let now_of sv =
  match sv.sv_cfg.c_transport with
  | `Sim -> sv.sv_now
  | `Domains -> Unix.gettimeofday () -. sv.sv_t0

let find sv name =
  match Hashtbl.find_opt sv.sv_tenants name with
  | Some tn -> tn
  | None -> invalid_arg ("Service: unknown tenant " ^ name)

let resident_slots sv =
  Hashtbl.fold
    (fun _ tn acc ->
      match tn.t_session with
      | Some s -> acc + Incr.live_slots s
      | None -> acc)
    sv.sv_tenants 0

let evict sv tn =
  match tn.t_session with
  | None -> ()
  | Some s ->
      tn.t_tree <- Incr.tree s;
      tn.t_session <- None;
      tn.t_evictions <- tn.t_evictions + 1;
      sv.sv_evictions <- sv.sv_evictions + 1;
      bump sv "service.evictions" (tenant_label tn) 1

(* Evict least-recently-active resident tenants (quiet ones first) until
   the pool fits the cap. [keep] is never evicted, nor is any tenant
   scheduled in the current round — their sessions may be mid-edit on a
   worker domain, and evicting/reviving a tenant that still has batched
   edits this round would only thrash. The pool may therefore overshoot
   the cap transiently within a round; {!run_round} re-enforces it once
   the round's flags clear. Coordinator-only. *)
let enforce_cap ?keep sv =
  let cap = sv.sv_cfg.c_mem_cap in
  if cap > 0 then begin
    let continue_ = ref true in
    while resident_slots sv > cap && !continue_ do
      let victim =
        Hashtbl.fold
          (fun _ tn best ->
            if
              (match keep with Some k -> tn == k | None -> false)
              || tn.t_session = None || tn.t_in_round
            then best
            else
              let key = (not (Queue.is_empty tn.t_queue), tn.t_last_active) in
              match best with
              | Some (bkey, _) when bkey <= key -> best
              | _ -> Some (key, tn))
          sv.sv_tenants None
      in
      match victim with
      | Some (_, tn) -> evict sv tn
      | None -> continue_ := false
    done
  end

(* (Re-)open a tenant's session: evaluate the resident tree from scratch.
   Obs flows into sessions only on the simulated (single-domain)
   transport.
   Coordinator-only: it touches the obs registry and may evict — worker
   domains never call it (round_domains pre-revives the round's tenants,
   who stay resident because enforce_cap exempts in-round tenants). *)
let revive sv tn =
  match tn.t_session with
  | Some s -> s
  | None ->
      let cfg = sv.sv_cfg in
      let obs = if cfg.c_transport = `Sim then cfg.c_obs else Obs.null_ctx in
      (* A revive builds a fresh engine/store: clear the ring so stale
         records cannot resolve against the new slot numbering. *)
      Prov.clear tn.t_prov;
      let s =
        Incr.start ~obs ~dag:cfg.c_dag ~prov:tn.t_prov sv.sv_g tn.t_tree
      in
      tn.t_session <- Some s;
      enforce_cap sv ~keep:tn;
      s

let open_tenant sv name tree =
  if Hashtbl.mem sv.sv_tenants name then
    invalid_arg ("Service.open_tenant: duplicate tenant " ^ name);
  let tn =
    {
      t_name = name;
      t_queue = Queue.create ();
      t_session = None;
      t_tree = tree;
      t_last_active = sv.sv_round;
      t_in_round = false;
      t_edits = 0;
      t_rejected = 0;
      t_evictions = 0;
      t_retransmits = 0;
      t_queue_hwm = 0;
      t_lat = reservoir name;
      t_prov =
        (if sv.sv_cfg.c_provenance then
           Prov.create ~cap:prov_cap ~arity:(Causal.arity_for sv.sv_g) ()
         else Prov.disabled);
    }
  in
  Hashtbl.add sv.sv_tenants name tn;
  sv.sv_order_rev <- tn :: sv.sv_order_rev;
  ignore (revive sv tn)

type admission = Admitted | Rejected_queue_full

let submit sv name next =
  let tn = find sv name in
  let cap = sv.sv_cfg.c_queue_cap in
  if cap > 0 && Queue.length tn.t_queue >= cap then begin
    tn.t_rejected <- tn.t_rejected + 1;
    sv.sv_rejected <- sv.sv_rejected + 1;
    bump sv "service.rejected" (tenant_label tn) 1;
    Rejected_queue_full
  end
  else begin
    Queue.add (next, now_of sv) tn.t_queue;
    let d = Queue.length tn.t_queue in
    if d > tn.t_queue_hwm then tn.t_queue_hwm <- d;
    let reg = metrics sv in
    if Obs.Metrics.live reg then
      Obs.Metrics.set_gauge reg
        (Obs.Metrics.labeled "service.queue_depth" (tenant_label tn))
        (float_of_int d);
    Admitted
  end

(* ------------------------------------------------------------------ *)
(* Edit application (both transports)                                  *)
(* ------------------------------------------------------------------ *)

(* Up to [c_batch] of a tenant's queued edits, in submission order: one
   scheduling step's chunk. *)
let take_chunk sv edits =
  let items = ref [] and n = ref 0 in
  while !n < sv.sv_cfg.c_batch && not (Queue.is_empty edits) do
    items := Queue.pop edits :: !items;
    incr n
  done;
  List.rev !items

(* Coordinator-only: the counters, reservoir and metrics registry are all
   unsynchronized plain state. The domains transport applies edits on the
   round's domains but folds their latencies through here after joining. *)
let record_edit sv tn lat =
  tn.t_edits <- tn.t_edits + 1;
  sv.sv_edits <- sv.sv_edits + 1;
  res_add tn.t_lat lat;
  tn.t_last_active <- sv.sv_round;
  let reg = metrics sv in
  if Obs.Metrics.live reg then begin
    bump sv "service.edits" (tenant_label tn) 1;
    Obs.Metrics.observe
      (Obs.Metrics.histogram reg
         (Obs.Metrics.labeled "service.latency_ms" (tenant_label tn)))
      (lat *. 1e3)
  end

(* Result message: the refreshed root synthesized attributes — changed
   ones in full, unchanged ones as fixed-size intern references. *)
let result_size sv s =
  let root = Incr.tree s in
  let total = ref Message.header_bytes in
  Array.iteri
    (fun i (a : Grammar.attr_decl) ->
      if a.Grammar.a_kind = Grammar.Syn then
        total :=
          !total + Message.size (Session.boundary_message s ~src:0 root i a))
    (Grammar.symbol sv.sv_g root.Tree.sym).Grammar.s_attrs;
  !total

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

(* Deal the round's per-tenant batches onto live workers. Returns per-
   worker queues of (tenant, edits). *)
let assign sv batches =
  let w = sv.sv_cfg.c_workers in
  let queues = Array.init w (fun _ -> Queue.create ()) in
  let pending = Array.make w 0 in
  let live = Array.init w (fun i -> not sv.sv_dead.(i)) in
  let any_live = Array.exists (fun x -> x) live in
  if not any_live then failwith "Service: all workers crashed";
  let pick_rr () =
    let rec go tries =
      if tries > w then failwith "Service: all workers crashed"
      else
        let k = sv.sv_rr mod w in
        sv.sv_rr <- sv.sv_rr + 1;
        if live.(k) then k else go (tries + 1)
    in
    go 0
  in
  let pick_sq () =
    let best = ref (-1) in
    for k = w - 1 downto 0 do
      if live.(k) && (!best < 0 || pending.(k) <= pending.(!best)) then
        best := k
    done;
    !best
  in
  List.iter
    (fun (tn, edits) ->
      let k =
        match sv.sv_cfg.c_policy with
        | Round_robin -> pick_rr ()
        | Shortest_queue -> pick_sq ()
      in
      Queue.add (tn, Queue.of_seq (List.to_seq edits)) queues.(k);
      pending.(k) <- pending.(k) + List.length edits)
    batches;
  queues

(* ------------------------------------------------------------------ *)
(* Simulated transport: virtual time on the shared Ethernet            *)
(* ------------------------------------------------------------------ *)

(* One message on the shared medium, through the fault plan: drops burn
   the bytes and retransmit after the RTO (charged to [tn]), duplicates
   burn extra bytes, reorder/delay verdicts add delivery jitter. Returns
   the delivery time. A pathological plan that drops 64 retransmits in a
   row stops retrying and force-delivers — counted in [sv_gave_up] so the
   absorption is visible in stats rather than silent. *)
let transmit_reliable sv tn ~src ~dst ~now ~size =
  (* On a switched fabric each message occupies the worker-side edge link
     of its hop (the coordinator side is the switch backplane), so
     distinct workers' traffic never queues behind each other. *)
  let port = if src = 0 then dst else src in
  match sv.sv_faults with
  | None -> Ethernet.transmit sv.sv_net ~port ~now ~size
  | Some f ->
      let rec go now tries =
        let v = Faults.judge f ~src ~dst in
        if v.Faults.v_dup then
          ignore (Ethernet.transmit sv.sv_net ~port ~now ~size);
        if v.Faults.v_drop && tries < 64 then begin
          ignore (Ethernet.transmit sv.sv_net ~port ~now ~size);
          tn.t_retransmits <- tn.t_retransmits + 1;
          sv.sv_retransmits <- sv.sv_retransmits + 1;
          bump sv "service.retransmits" (tenant_label tn) 1;
          go (now +. fault_rto) (tries + 1)
        end
        else begin
          if v.Faults.v_drop then begin
            sv.sv_gave_up <- sv.sv_gave_up + 1;
            bump sv "service.gave_up" (tenant_label tn) 1
          end;
          Ethernet.transmit ~jitter:v.Faults.v_delay sv.sv_net ~port ~now ~size
        end
      in
      go now 0

(* An evicted tenant's revive re-evaluates its resident tree from scratch:
   charge the worker the shipped-tree rebuild plus a full dynamic
   evaluation (one graph node + rule firing per live instance), so
   evict/revive thrash shows up in the virtual makespan instead of being
   free. *)
let revive_cost s =
  let cost = Cost.default in
  (float_of_int (Tree.byte_size (Incr.tree s)) *. cost.Cost.rebuild_per_byte)
  +. (float_of_int (Incr.live_slots s)
     *. (cost.Cost.build_node +. Cost.rule_cost cost ~dynamic:true))

(* Price and apply one chunk of a tenant's edits on worker [k] whose clock
   shows [now]: one dispatch carrying the replacements, the owner's work
   and the rounds' share ({!Cost.wave}, as the edit sessions price them),
   and one result message for the whole chunk. Returns the worker's clock
   after the chunk. With merging on ([c_batch > 1]) the dispatch also
   carries 16 bytes of cone-merge metadata per edit, the rounds are shared
   across [assist] machines, and cone chunks and partial results cross the
   wire once per helper. Edits applied one at a time have no rounds: the
   owner re-fires the whole cone, as {!Session.edit} prices it. *)
let sim_chunk sv k now tn items ~assist =
  let was_evicted = tn.t_session = None in
  let s = revive sv tn in
  let now = if was_evicted then now +. revive_cost s else now in
  let wv = Incr.edit_batch s (List.map fst items) in
  bump sv "service.waves" (tenant_label tn) wv.Incr.wv_waves;
  bump sv "service.conflicts" (tenant_label tn) wv.Incr.wv_conflicts;
  bump sv "service.fallbacks" (tenant_label tn) wv.Incr.wv_fallbacks;
  let merged = sv.sv_cfg.c_batch > 1 in
  let rounds = if merged then wv.Incr.wv_round_refired else [||] in
  let meta = if merged then Message.header_bytes * wv.Incr.wv_edits else 0 in
  let dispatch =
    Message.size (Message.Edit { node = 0; bytes = wv.Incr.wv_bytes + meta })
  in
  let delivered =
    transmit_reliable sv tn ~src:0 ~dst:(k + 1) ~now ~size:dispatch
  in
  let c = Cost.wave Cost.default ~rounds ~assist wv in
  let t = delivered +. c.Cost.wc_owner in
  let t =
    if assist > 1 && Array.exists (fun r -> r > 0) rounds then begin
      (* ship cone chunks to the helpers, refire in parallel, collect *)
      let size = Message.header_bytes + c.Cost.wc_chunk_bytes in
      let helpers =
        List.init (assist - 1) (fun j ->
            ((k + j + 1) mod sv.sv_cfg.c_workers) + 1)
      in
      let fan now ship =
        List.fold_left (fun t h -> Float.max t (ship h now)) now helpers
      in
      let out =
        fan t (fun dst now ->
            transmit_reliable sv tn ~src:(k + 1) ~dst ~now ~size)
      in
      fan (out +. c.Cost.wc_share) (fun src now ->
          transmit_reliable sv tn ~src ~dst:(k + 1) ~now ~size)
    end
    else t +. c.Cost.wc_share
  in
  let rsize = result_size sv s in
  let back = transmit_reliable sv tn ~src:(k + 1) ~dst:0 ~now:t ~size:rsize in
  List.iter
    (fun (_, t_submit) ->
      record_edit sv tn (Float.max 0.0 (back -. t_submit)))
    items;
  t +. Ethernet.sender_cost sv.sv_net ~size:rsize

(* Virtual-time event loop over the per-worker batch queues: always step
   the laggiest busy worker one chunk of its tenant's edits, so the
   workers advance concurrently and contend for the medium in time order.
   A merged chunk's refire is assisted by the round's spare capacity (live
   workers per busy worker).
   A worker whose clock crosses its crash point dies mid-wave; its
   remaining batches re-dispatch to the least-loaded survivor after one
   RTO (the coordinator's detection). *)
let round_sim sv queues =
  let w = Array.length queues in
  let clock = Array.make w sv.sv_now in
  let busy k = not (Queue.is_empty queues.(k)) in
  let queue_edits q =
    Queue.fold (fun acc (_, es) -> acc + Queue.length es) 0 q
  in
  let redispatch k =
    sv.sv_dead.(k) <- true;
    let detect = sv.sv_crash_at.(k) +. fault_rto in
    let target = ref (-1) in
    for j = w - 1 downto 0 do
      if (not sv.sv_dead.(j))
         && (!target < 0
            || queue_edits queues.(j) <= queue_edits queues.(!target))
      then target := j
    done;
    if !target < 0 then failwith "Service: all workers crashed";
    let moved = ref 0 in
    Queue.iter (fun _ -> incr moved) queues.(k);
    Queue.transfer queues.(k) queues.(!target);
    sv.sv_redispatches <- sv.sv_redispatches + !moved;
    clock.(!target) <- Float.max clock.(!target) detect
  in
  let exception Done in
  (try
     while true do
       (* the busy worker furthest behind in virtual time steps next *)
       let k = ref (-1) in
       for j = w - 1 downto 0 do
         if busy j && (!k < 0 || clock.(j) <= clock.(!k)) then k := j
       done;
       if !k < 0 then raise Done;
       let k = !k in
       if clock.(k) >= sv.sv_crash_at.(k) then redispatch k
       else begin
         let tn, edits = Queue.peek queues.(k) in
         let live = ref 0 and nbusy = ref 0 in
         for j = 0 to w - 1 do
           if not sv.sv_dead.(j) then incr live;
           if busy j then incr nbusy
         done;
         let assist = max 1 (!live / max 1 !nbusy) in
         let t = sim_chunk sv k clock.(k) tn (take_chunk sv edits) ~assist in
         if Queue.is_empty edits then ignore (Queue.pop queues.(k));
         if t >= sv.sv_crash_at.(k) then
           (* mid-wave crash: this chunk landed, the rest of the worker's
              round moves to the survivors *)
           redispatch k
         else clock.(k) <- t
       end
     done
   with Done -> ());
  Array.iter (fun t -> if t > sv.sv_now then sv.sv_now <- t) clock

(* ------------------------------------------------------------------ *)
(* Domains transport: real parallel application                        *)
(* ------------------------------------------------------------------ *)

(* Apply the batches of the workers placed on one domain (perhaps the
   coordinator's). Only these workers' tenants' sessions are touched (a
   tenant's whole batch lands on one worker), plus the immutable [sv_t0]
   stamp — no shared counters, no obs registry, no eviction. Each tenant's
   edits go through {!Incr.edit_batch} in chunks, so the round's tenants
   refire their waves concurrently across the domains. Latencies and wave
   counters are measured here (at application time) and returned for the
   coordinator to record after the join: one [(tenant, latencies, wave
   stats)] triple per chunk. *)
let domains_apply sv batches =
  List.concat_map
    (fun (tn, edits) ->
      let s =
        match tn.t_session with
        | Some s -> s
        | None -> assert false  (* pre-revived; in-round = eviction-exempt *)
      in
      let out = ref [] in
      while not (Queue.is_empty edits) do
        let items = take_chunk sv edits in
        let wv = Incr.edit_batch s (List.map fst items) in
        let t = Unix.gettimeofday () -. sv.sv_t0 in
        let lats =
          List.map (fun (_, t_submit) -> Float.max 0.0 (t -. t_submit)) items
        in
        out := (tn, lats, wv) :: !out
      done;
      List.rev !out)
    batches

(* Coordinator-side fold of one domain's application results: latencies into
   the reservoirs, wave counters into the labeled metrics. *)
let record_applied sv outs =
  List.iter
    (fun (tn, lats, (wv : Incr.wave_stats)) ->
      List.iter (fun lat -> record_edit sv tn lat) lats;
      let bump_pos name n = if n > 0 then bump sv name (tenant_label tn) n in
      bump_pos "service.fallbacks" wv.Incr.wv_fallbacks;
      bump_pos "service.waves" wv.Incr.wv_waves;
      bump_pos "service.conflicts" wv.Incr.wv_conflicts)
    outs

let round_domains sv queues =
  let t0 = Unix.gettimeofday () in
  let work =
    Array.to_list queues
    |> List.filter_map (fun q ->
           if Queue.is_empty q then None else Some (List.of_seq (Queue.to_seq q)))
  in
  (* revive on the coordinator: session open touches the obs registry. The
     round's tenants are exempt from eviction, so a later pre-revive's cap
     enforcement cannot evict an earlier one — every session below is
     resident and stays so for the whole round. *)
  List.iter (List.iter (fun (tn, _) -> ignore (revive sv tn))) work;
  (* Busy worker [k] runs on domain [k mod d]; the calling domain hosts
     domain 0's workers. Under [c_dag] the workers' sessions intern their
     DAG fingerprints into the shared value arena
     ({!Pag_core.Value.intern}), which is domain-safe (see service.mli). *)
  let d = Pag_util.Placement.count (List.length work) in
  let outs =
    Pag_util.Placement.run d (fun i ->
        domains_apply sv
          (List.concat (List.filteri (fun k _ -> k mod d = i) work)))
  in
  (* fold the results into the counters and the metrics registry back on
     the coordinator once every domain has joined: both are unsynchronized *)
  Array.iter (record_applied sv) outs;
  Obs.Metrics.set_gauge_max (metrics sv) "service.domains" (float_of_int d);
  sv.sv_now <- sv.sv_now +. (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

let order sv = List.rev sv.sv_order_rev

let run_round sv =
  let batches =
    List.filter_map
      (fun tn ->
        if Queue.is_empty tn.t_queue then None
        else begin
          let edits = List.of_seq (Queue.to_seq tn.t_queue) in
          Queue.clear tn.t_queue;
          Some (tn, edits)
        end)
      (order sv)
  in
  if batches <> [] then begin
    sv.sv_round <- sv.sv_round + 1;
    bump sv "service.rounds" [] 1;
    List.iter (fun (tn, _) -> tn.t_in_round <- true) batches;
    (* workers past their crash point are gone before scheduling *)
    if sv.sv_cfg.c_transport = `Sim then
      Array.iteri
        (fun k at -> if sv.sv_now >= at then sv.sv_dead.(k) <- true)
        sv.sv_crash_at;
    let queues = assign sv batches in
    (match sv.sv_cfg.c_transport with
    | `Sim -> round_sim sv queues
    | `Domains -> round_domains sv queues);
    List.iter (fun (tn, _) -> tn.t_in_round <- false) batches;
    (* the round's tenants were eviction-exempt while their sessions were
       live on workers; restore the cap invariant now *)
    enforce_cap sv;
    let reg = metrics sv in
    if Obs.Metrics.live reg then begin
      List.iter
        (fun (tn, _) ->
          Obs.Metrics.set_gauge reg
            (Obs.Metrics.labeled "service.queue_depth" (tenant_label tn))
            0.0)
        batches;
      Obs.Metrics.set_gauge reg "service.live_slots"
        (float_of_int (resident_slots sv))
    end;
    (* idle timeout: resident tenants that sat out the last
       [c_idle_rounds] rounds give their memory back *)
    let idle = sv.sv_cfg.c_idle_rounds in
    if idle > 0 then
      List.iter
        (fun tn ->
          if
            tn.t_session <> None
            && Queue.is_empty tn.t_queue
            && sv.sv_round - tn.t_last_active >= idle
          then evict sv tn)
        (order sv)
  end

let rec drain sv =
  if List.exists (fun tn -> not (Queue.is_empty tn.t_queue)) (order sv) then begin
    run_round sv;
    drain sv
  end

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let tenant_tree sv name =
  let tn = find sv name in
  match tn.t_session with Some s -> Incr.tree s | None -> tn.t_tree

let tenant_store sv name = Incr.store (revive sv (find sv name))

let tenant_resident sv name = (find sv name).t_session <> None

type tenant_stats = {
  ts_name : string;
  ts_resident : bool;
  ts_edits : int;
  ts_rejected : int;
  ts_evictions : int;
  ts_retransmits : int;
  ts_queue_depth : int;
  ts_queue_hwm : int;
  ts_live_slots : int;
  ts_p50 : float;
  ts_p99 : float;
  ts_mean : float;
  ts_prov_firings : int;
  ts_critical : float;
}

type stats = {
  st_rounds : int;
  st_tenants : int;
  st_edits : int;
  st_rejected : int;
  st_evictions : int;
  st_retransmits : int;
  st_gave_up : int;
  st_redispatches : int;
  st_workers_lost : int;
  st_live_slots : int;
  st_makespan : float;
  st_edits_per_sec : float;
  st_p50 : float;
  st_p99 : float;
  st_per_tenant : tenant_stats list;
}

let percentile xs q =
  match xs with
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

(* Provenance summary of the resident session: recorded firings and the
   weighted critical path of what the ring currently holds (the initial
   evaluation plus refires since the last rebuild). *)
let tenant_prov tn =
  match tn.t_session with
  | Some s when Prov.enabled tn.t_prov && Prov.total tn.t_prov > 0 ->
      let d = Causal.build [ (tn.t_prov, Incr.engine s) ] in
      let p = Causal.profile d in
      (p.Causal.pr_firings, p.Causal.pr_critical)
  | _ -> (0, 0.0)

let tenant_stats tn =
  let prov_firings, critical = tenant_prov tn in
  {
    ts_name = tn.t_name;
    ts_resident = tn.t_session <> None;
    ts_edits = tn.t_edits;
    ts_rejected = tn.t_rejected;
    ts_evictions = tn.t_evictions;
    ts_retransmits = tn.t_retransmits;
    ts_queue_depth = Queue.length tn.t_queue;
    ts_queue_hwm = tn.t_queue_hwm;
    ts_live_slots =
      (match tn.t_session with Some s -> Incr.live_slots s | None -> 0);
    ts_p50 = percentile (res_samples tn.t_lat) 0.5;
    ts_p99 = percentile (res_samples tn.t_lat) 0.99;
    ts_mean = res_mean tn.t_lat;
    ts_prov_firings = prov_firings;
    ts_critical = critical;
  }

let stats sv =
  let all_lat =
    Hashtbl.fold
      (fun _ tn acc -> List.rev_append (res_samples tn.t_lat) acc)
      sv.sv_tenants []
  in
  let lost = Array.fold_left (fun n d -> if d then n + 1 else n) 0 sv.sv_dead in
  let per_tenant = List.map tenant_stats (order sv) in
  (* Surface the per-tenant provenance summaries as labeled series, next
     to the PR-7 service.* metrics. *)
  let reg = metrics sv in
  if Obs.Metrics.live reg && sv.sv_cfg.c_provenance then
    List.iter
      (fun ts ->
        let labels = [ ("tenant", ts.ts_name) ] in
        Obs.Metrics.set_gauge reg
          (Obs.Metrics.labeled "service.prov_firings" labels)
          (float_of_int ts.ts_prov_firings);
        Obs.Metrics.set_gauge reg
          (Obs.Metrics.labeled "service.critical_path_ms" labels)
          (ts.ts_critical *. 1e3))
      per_tenant;
  {
    st_rounds = sv.sv_round;
    st_tenants = Hashtbl.length sv.sv_tenants;
    st_edits = sv.sv_edits;
    st_rejected = sv.sv_rejected;
    st_evictions = sv.sv_evictions;
    st_retransmits = sv.sv_retransmits;
    st_gave_up = sv.sv_gave_up;
    st_redispatches = sv.sv_redispatches;
    st_workers_lost = lost;
    st_live_slots = resident_slots sv;
    st_makespan = sv.sv_now;
    st_edits_per_sec =
      (if sv.sv_now > 0.0 then float_of_int sv.sv_edits /. sv.sv_now else 0.0);
    st_p50 = percentile all_lat 0.5;
    st_p99 = percentile all_lat 0.99;
    st_per_tenant = per_tenant;
  }

let render st =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "service: %d tenants, %d rounds, %d edits (%d rejected, %d evictions)\n"
    st.st_tenants st.st_rounds st.st_edits st.st_rejected st.st_evictions;
  Printf.bprintf b
    "  sustained %.1f edits/s over %.4fs; latency p50 %.6fs p99 %.6fs\n"
    st.st_edits_per_sec st.st_makespan st.st_p50 st.st_p99;
  if st.st_retransmits > 0 || st.st_workers_lost > 0 then
    Printf.bprintf b "  faults: %d retransmits, %d workers lost, %d re-dispatches\n"
      st.st_retransmits st.st_workers_lost st.st_redispatches;
  if st.st_gave_up > 0 then
    Printf.bprintf b
      "  WARNING: %d messages exhausted the retransmit cap and were force-delivered\n"
      st.st_gave_up;
  Printf.bprintf b "  resident: %d live slots\n" st.st_live_slots;
  List.iter
    (fun ts ->
      Printf.bprintf b
        "  %-12s %5d edits %4d rej %2d evict %4d rtx  p50 %.6fs p99 %.6fs%s\n"
        ts.ts_name ts.ts_edits ts.ts_rejected ts.ts_evictions ts.ts_retransmits
        ts.ts_p50 ts.ts_p99
        ((if ts.ts_prov_firings > 0 then
            Printf.sprintf "  cp %.6fs/%d firings" ts.ts_critical
              ts.ts_prov_firings
          else "")
        ^ (if ts.ts_resident then "" else "  (evicted)")))
    st.st_per_tenant;
  Buffer.contents b

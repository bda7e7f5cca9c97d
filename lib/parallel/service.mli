(** Multi-tenant compile service: a long-running server holding a pool of
    resident edit sessions keyed by tenant id.

    The paper frames the evaluator as a compiler resident inside an editor
    loop; this module is that loop at service scale. Each tenant owns an
    incremental session ({!Pag_eval.Incr}) kept evaluated between edits.
    Clients {!submit} replacement trees into bounded per-tenant queues
    (admission control: a full queue rejects, surfacing backpressure), and
    {!run_round} drains every non-empty queue as one batched wave,
    multiplexing the tenant batches over a bounded set of workers under a
    {!policy}.

    {2 Transports}

    - [`Sim] prices the service on the netsim machine model with virtual
      time: each worker is a machine on the shared Ethernet, and each
      chunk of a tenant's edits costs a dispatch message (the replacement
      subtrees), the owner's rebuild-plus-propagation delay, and a result
      message back, priced by {!Cost.wave} and {!Session.boundary_message}
      as an edit session's wave is, though no {!Session} wave runs. The
      medium saturates under load, which is what the latency percentiles
      measure. With a fault plan, dropped dispatches retransmit after an
      RTO (accounted to the owning tenant) and a machine crash mid-wave
      re-dispatches its remaining batches to the surviving workers.
    - [`Domains] applies each round's batches on real OCaml domains and
      measures wall-clock latency: busy worker [k] of [B] runs on domain
      [k mod min(B, cores)] ({!Pag_util.Placement}; the calling domain is
      domain 0), and the [service.domains] gauge keeps the high-water
      domain count. Under [dag] the one shared structure those domains
      touch is the value arena ({!Pag_core.Value.intern}): each tenant
      session's {!Pag_eval.Dag} runtime interns the inherited fingerprints
      of the regions its edits reach. The arena takes a lock per bucket
      scan, so equal fingerprints interned on two domains get one
      representative.

    In both transports the edits themselves are applied through the
    tenant's own {!Pag_eval.Incr} session in submission order, so a
    tenant's final attributes are bit-identical to an isolated
    single-session run of the same edits — multiplexing is isolation
    (test_service.ml holds the service to that oracle).

    {2 Lifecycle}

    Sessions are resident but not immortal: a memory cap (total
    {!Pag_eval.Incr.live_slots} across tenants) evicts the
    least-recently-active sessions, and an idle timeout (in rounds) evicts
    sessions whose tenants went quiet. Eviction frees the store, engine
    and dependency graph but keeps the tenant's current tree; the next
    edit (or {!tenant_store} query) revives the session by re-evaluating
    that tree, so an evicted tenant only pays a rebuild, never loses
    state; on [`Sim] that rebuild is priced into the virtual makespan, so
    evict/revive thrash is visible in the latency figures. Tenants
    scheduled in the current round are exempt from eviction while their
    sessions are live on workers (the pool may overshoot the cap
    transiently); {!run_round} re-enforces the cap when the round ends.

    Per-tenant telemetry flows into the [obs] metrics registry under
    {!Pag_obs.Obs.Metrics.labeled} names ([service.edits{tenant=...}],
    queue-depth gauges, latency histograms); p50/p99 in {!stats} come from
    a bounded per-tenant reservoir (a deterministic uniform sample of at
    most 2048 latencies — exact until a tenant's 2049th edit), so resident
    memory stays bounded over the service's lifetime. All counters,
    reservoirs and registry writes happen on the coordinator: the
    [`Domains] transport's workers apply edits and return their measured
    latencies, which the coordinator records once every domain has
    joined. *)

open Pag_core
open Pag_eval
open Netsim

(** How a round's tenant batches map onto workers. [Round_robin] deals
    batches out cyclically in admission order; [Shortest_queue] gives each
    batch to the worker with the fewest edits assigned so far this round
    (tie: lowest id), which beats round-robin on skewed tenant mixes. *)
type policy = Round_robin | Shortest_queue

type config = {
  c_workers : int;  (** worker machines *)
  c_policy : policy;
  c_transport : [ `Sim | `Domains ];
  c_queue_cap : int;  (** per-tenant queue bound; 0 = unbounded *)
  c_mem_cap : int;  (** total live slots across tenants; 0 = uncapped *)
  c_idle_rounds : int;  (** evict after this many idle rounds; 0 = never *)
  c_dag : bool;
      (** every tenant session evaluates on the shared DAG
          ({!Pag_eval.Incr.start}'s [dag]): one rule-instance set per
          repeated-subtree class, classes split on divergence only, so
          resident sessions keep the sharing win across the edit stream *)
  c_faults : Faults.spec option;
      (** [`Sim] only; a dropped message retransmits, and a crashed
          worker's batches re-dispatch, after a fixed 0.05 simulated
          seconds *)
  c_net : Ethernet.params;
  c_obs : Pag_obs.Obs.ctx;
  c_provenance : bool;
      (** attach a bounded provenance ring ({!Pag_obs.Prov}) to every
          tenant's resident session; {!tenant_stats} then carries firing
          counts and the weighted critical path, and {!stats} publishes
          them as labeled [service.*] gauges *)
  c_batch : int;
      (** edits per chunk: each scheduling step takes up to this many of a
          tenant's queued edits and applies them as one
          {!Pag_eval.Incr.edit_batch} call, which merges their independent
          dirty cones into one refire wave. On [`Sim] a chunk is priced as
          a single dispatch (the replacements plus 16 bytes of cone-merge
          metadata per edit), steal-shared refire rounds across the
          round's spare workers, and one result message; on [`Domains]
          the chunks run concurrently across the round's domains. [<= 1]
          means chunks of one, each priced as a single edit: no
          metadata, and the owner re-fires the whole cone. Wave/conflict/
          fallback counts surface as labeled [service.waves]/
          [service.conflicts]/[service.fallbacks] counters *)
}

(** [config workers] with every knob defaulted: round-robin, [`Sim]
    transport, unbounded queues, no memory cap, no idle eviction, no DAG
    sharing, no faults, default Ethernet. *)
val config :
  ?policy:policy ->
  ?transport:[ `Sim | `Domains ] ->
  ?queue_cap:int ->
  ?mem_cap:int ->
  ?idle_rounds:int ->
  ?dag:bool ->
  ?faults:Faults.spec ->
  ?net:Ethernet.params ->
  ?obs:Pag_obs.Obs.ctx ->
  ?provenance:bool ->
  ?batch:int ->
  int ->
  config

type t

(** All tenants compile the same grammar (per-service); the service is
    grammar-generic, [pagc --serve] instantiates it for Pascal. *)
val create : config -> Grammar.t -> t

(** [open_tenant t name tree] admits a tenant with resident program
    [tree], evaluating it from scratch (and evicting idle tenants if the
    memory cap demands). Raises [Invalid_argument] on duplicate names. *)
val open_tenant : t -> string -> Tree.t -> unit

(** Admission verdict for one edit. *)
type admission = Admitted | Rejected_queue_full

(** [submit t name next] enqueues an edit: the tenant's program is to
    become (structurally) [next]. The tree is consumed by the service (its
    nodes are renumbered on application) — submit a fresh parse, never a
    shared tree. Unknown tenants raise [Invalid_argument]. *)
val submit : t -> string -> Tree.t -> admission

(** Run one scheduling round: drain every non-empty tenant queue, batch
    per tenant, schedule the batches over the workers under the policy,
    apply every edit, then re-enforce the memory cap and evict idle
    sessions. No-op when all queues are empty. Raises [Failure] if every
    worker has crashed. *)
val run_round : t -> unit

(** Rounds until every queue is empty. *)
val drain : t -> unit

(** The tenant's current resident tree (kept across eviction). *)
val tenant_tree : t -> string -> Tree.t

(** The tenant's evaluated store, reviving the session if it was evicted.
    A revived session re-evaluates from scratch, so label-bearing
    attributes are equal only up to label renaming — compare masked. *)
val tenant_store : t -> string -> Store.t

val tenant_resident : t -> string -> bool

type tenant_stats = {
  ts_name : string;
  ts_resident : bool;
  ts_edits : int;  (** edits applied *)
  ts_rejected : int;  (** submissions refused by the full queue *)
  ts_evictions : int;
  ts_retransmits : int;  (** dispatch retransmissions charged here *)
  ts_queue_depth : int;  (** current *)
  ts_queue_hwm : int;  (** high-water mark *)
  ts_live_slots : int;  (** 0 when evicted *)
  ts_p50 : float;  (** median edit latency, seconds (virtual on [`Sim]) *)
  ts_p99 : float;
  ts_mean : float;
  ts_prov_firings : int;
      (** firings currently in the resident session's provenance ring
          (0 when provenance is off or the tenant is evicted) *)
  ts_critical : float;
      (** weighted critical path, seconds, of those firings *)
}

type stats = {
  st_rounds : int;
  st_tenants : int;
  st_edits : int;
  st_rejected : int;
  st_evictions : int;
  st_retransmits : int;
  st_gave_up : int;
      (** messages that exhausted the retransmit cap (64 tries) and were
          force-delivered; non-zero means the fault plan is pathological
          and latency/retransmit figures under-report it *)
  st_redispatches : int;  (** batches moved off a crashed worker *)
  st_workers_lost : int;
  st_live_slots : int;  (** resident footprint right now *)
  st_makespan : float;
      (** busy span, seconds — virtual on [`Sim], wall on [`Domains] *)
  st_edits_per_sec : float;  (** sustained: edits / makespan *)
  st_p50 : float;  (** across all tenants' edit latencies *)
  st_p99 : float;
  st_per_tenant : tenant_stats list;  (** admission order *)
}

val stats : t -> stats

(** Human-readable report (the [pagc --serve] summary). *)
val render : stats -> string

(** Nearest-rank percentile of a sample list, [q] in [0,1]; 0 on []. *)
val percentile : float list -> float -> float

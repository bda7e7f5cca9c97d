(** Top-level drivers for parallel evaluation.

    {!run_sim} executes the full protocol — parser/coordinator, evaluators,
    optional string librarian — on the deterministic network-multiprocessor
    simulator and reports virtual running time, per-worker statistics and the
    simulator's event log (the data behind the paper's figures 5 and 6).

    {!run_domains} executes the same protocol on OCaml 5 domains with
    in-memory mailboxes and reports wall-clock time: the modern multicore
    counterpart of the paper's workstation network. Both schedules run on
    [min N cores] domains, the calling domain hosting machine 0
    ({!Pag_util.Placement}). An [N]-fragment static run places its [N + 2]
    machines on them as cooperative fibers ({!Fibers}): the calling domain
    hosts the coordinator, the librarian and fragment 0, the other
    fragments go round-robin onto the rest, so one fragment spawns no
    domain. The report's [rp_domains] is the count used.

    Both transports run one machine set. A single builder in the
    implementation ([static_machines]) constructs the static protocol's
    coordinator with crash recovery, one {!Worker} per fragment, the
    librarian, their telemetry and provenance slots, and the
    {!Reliable}-then-{!Intern} layering over a raw env. The transports
    differ only in that raw env (netsim, or {!Fibers} mailboxes with
    send-side fault injection), the clock, the reliable-layer timeouts,
    provenance dwell pricing, how the bodies start ([Sim.spawn], or
    {!Fibers.run} with crashed machines skipped) and the report rows.

    The work-stealing schedule is written once as well:
    {!Pag_eval.Engine.steal_loop}, the same loop the sequential dynamic
    schedule runs on one machine, owns the readiness counters, deques,
    census, victim choice, backoff, termination and the stuck check, and
    each transport supplies only a task graph and a machine set. On the
    simulator the tasks are every rule instance
    ({!Pag_eval.Engine.rule_tasks}), fragment [f] seeding machine
    [f mod machines], and the machines are one [Sim] fiber each plus the
    parser, with firings charged at [Cost.steal_rule], probes priced as
    Ethernet frames under the fault plan, and backoff as virtual delay;
    with [use_dag] the DAG runtime is wired into that machine set by one
    call ({!Pag_eval.Dag.machines}). On domains the tasks are the combined
    evaluator's
    ({!Pag_eval.Taskgraph}): a node whose subtree holds more than
    [1 / (8 * D)] of the tree's rule instances is on the spine and its
    rule instances are tasks; every subtree hanging off the spine is one
    task per static visit. [D = min machines cores] domains run them
    ({!Pag_eval.Engine.run_tasks}). Without a plan, or with provenance
    (whose rings name firings by rule id), every node is on the spine.
    Domains report each of the [D] evaluators' measured backoff time as
    its idle time, plus, on every domain but the caller's, the serial
    set-up before the loop starts.

    With [machines = 1] the combined evaluator degenerates to the sequential
    static evaluator and the dynamic evaluator to the sequential dynamic
    evaluator, which is exactly how the paper's sequential baselines are
    defined. *)

open Pag_core
open Pag_analysis
open Netsim

type options = {
  machines : int;
  schedule : [ `Static | `Dynamic | `Steal ];
      (** [`Static] (default) and [`Dynamic] run the paper's protocol —
          fragment shipping plus per-fragment workers — with the combined
          static/dynamic evaluator resp. the all-dynamic one ({!Worker.mode}).
          [`Steal] runs the work-stealing scheduler instead:
          per-machine Chase-Lev deques with steal-half victim selection
          and exponential backoff, over every rule instance of the
          unified engine on the simulator (seeded by Split owner
          affinity: fragment [i] seeds machine [i mod machines], extra
          machines start empty and steal), and over the combined
          evaluator's spine rule instances and static visit tasks on
          domains, where [min machines cores] machines run. In steal mode
          [machines] counts evaluator machines directly, the
          librarian/priority options are ignored, and fault plans are
          priced against steal probes only. *)
  granularity : float;
  use_priority : bool;
  use_librarian : bool;
  use_dag : bool;
      (** share repeated subtrees — the one sharing switch. What is shared
          depends on the schedule:
          - [`Static]: every worker builds all its owned rule instances and
            replays the static visits of repeated subtrees per inherited
            fingerprint through the subtree memo ({!Pag_eval.Memo}, keyed
            on one {!Pag_core.Tree.sharing} pass over the whole tree).
          - [`Static] and [`Dynamic]: [Subtree] assignments ship each class
            body once per machine ({!Split.encode}), and on the simulator
            {!Intern} deduplicates repeated boundary payloads on the wire.
            The domains transport has no wire, so it skips interning. The
            all-dynamic protocol has no static visits to replay.
          - [`Steal] on the simulator: the engine builds one rule-instance
            set per (subtree class × inherited fingerprint)
            ({!Pag_eval.Dag}) — parked occurrences own no instances and
            receive their synthesized attributes by slot-range projection
            when the class leader's region completes — and [Subtree]
            assignments are priced as their shared wire encoding
            ({!Split.dag_bytes}).
          - [`Steal] on domains: no sharing — the projection bookkeeping
            is single-threaded, so the run builds the same task graph
            (spine rule instances, static visit tasks) as without
            [use_dag].

          Uid-consuming rules taint their classes and fall back to
          per-occurrence evaluation, so output is unchanged up to label
          renaming (exactly equal after masking, property-tested). Off by
          default. *)
  phase_label : int -> string option;
      (** trace label for static visit numbers, e.g. 1 -> "symbol table" *)
  faults : Faults.spec option;
      (** [Some spec] injects the described faults and runs every machine
          behind the reliable-delivery layer ({!Reliable}) with coordinator
          crash recovery; [None] (default) runs the bare protocol exactly as
          before. An all-zero spec measures the reliable layer's overhead.
          On the domains transport, crash entries take effect from the start
          (the machine never runs) and delay/reorder jitter is approximated
          by send-order perturbation. The reliable layer's timeouts are
          not options: a machine acks nothing while it computes, so the
          give-up horizon rto * (2 + 4 + ... + 2^max_tries) must exceed the
          longest compute phase. The simulator derives the retransmission
          timeout and the coordinator's liveness watchdog from the workload
          — a machine's share of the tree's rules priced by the cost model,
          floored at fixture-sized defaults — and domains use fixed
          real-time defaults. *)
  telemetry : bool;
      (** record spans, events and metrics on every machine (see
          {!Pag_obs.Obs}); off by default — the instrumentation then costs
          one branch per site and allocates nothing. *)
  provenance : bool;
      (** record per-firing provenance (one {!Pag_obs.Prov} ring per
          machine/domain) for post-run {!Pag_eval.Causal} analysis —
          [--explain] slices and the [--profile] critical path. Simulated
          transports price firing durations from the cost model; domains
          read wall time. Off by default (firing paths keep their single
          disabled-ring branch). *)
}

val default_options : options

type result = {
  r_attrs : (string * Value.t) list;  (** root synthesized attributes *)
  r_time : float;  (** seconds: virtual (sim) or wall-clock (domains) *)
  r_worker_stats : Worker.stats array;
  r_trace : Pag_obs.Obs.recorder option;
      (** the simulator's log ({!Netsim.Sim}: ["active"]/["idle"] spans,
          message flows, phase-mark instants; {!Netsim.Gantt.render}
          draws it); simulation only *)
  r_messages : int;
  r_bytes : int;
  r_fragments : int;
  r_split : Split.plan;
  r_dynamic_fraction : float;
      (** dynamically evaluated rules / all rules — the paper's "< 5%" *)
  r_retransmits : int;  (** reliable-layer retransmissions, all machines *)
  r_recovered : bool;
      (** the coordinator fell back to local sequential evaluation *)
  r_fault_stats : Faults.stats option;  (** injected-fault counters *)
  r_obs : Pag_obs.Obs.recorder option;
      (** merged event stream of all machines (simulation runs merge
          [r_trace] in whole); [Some] only when [telemetry] was on *)
  r_report : Pag_obs.Obs.Report.t;
      (** always built; its [rp_metrics] registry is empty unless
          [telemetry] was on *)
  r_prov : (Pag_obs.Prov.t * Pag_eval.Engine.t) list;
      (** provenance sources for {!Pag_eval.Causal.build} — one (ring,
          engine) pair per machine that evaluated anything; empty unless
          [provenance] was on. Steal schedules share one engine across
          pairs. *)
  r_tree : Tree.t;
      (** the evaluated tree (numbered; node ids match provenance keys) *)
}

val run_sim : options -> Grammar.t -> Kastens.plan option -> Tree.t -> result

val run_domains :
  options -> Grammar.t -> Kastens.plan option -> Tree.t -> result

(** Names of the simulated machines (for Gantt rendering): "parser",
    "eval-a".."eval-f", "librarian". *)
val machine_name : fragments:int -> int -> string

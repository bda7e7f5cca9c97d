(** The shared evaluation engine.

    Every evaluator in this library fires the same thing: one semantic-rule
    instance at one node, reading argument slots and defining a target slot
    in a flat {!Store}. The engine owns that core once — a flat table of
    rule instances (rule, owning node, target slot, resolved argument
    codes) over a store, plus the slot-level dependency graph. Evaluators
    are just schedules over it: the plan's visit sequences
    ({!Static_eval}, which fire from the rules' references and need no
    table), the parallel worker's message-driven loop over the combined
    evaluator's task graph of spine rule instances and static visits
    ({!Taskgraph}), and one dependency-counting loop ({!steal_loop}) that
    fires tasks as their dependencies are met. It is written once and run
    over three machine sets: the calling domain alone ({!run_topo}, the
    {!Dynamic} schedule, and every {!Incr} edit wave), real domains
    ({!run_tasks}), and the simulator's fibers ({!Pag_parallel.Runner}).

    Instances of one node are consecutive and keyed by the store's dense
    preorder index, so [(node, rule index)] resolves to a rule id with two
    array reads, and appending a replacement subtree extends the tables
    without rebuilding — the basis of incremental re-evaluation. *)

open Pag_core

type t

(** Raised by {!steal_loop}, on every machine set, when a run ends with
    attribute instances unevaluated: circular dependencies, or a slot no
    rule defines and nothing preset (a missing root attribute). *)
exception Cycle of string

(** [create ?rules_for g store] resolves the rule instances (rows) of every
    covered node, in the store's dense preorder. [rules_for] (default: all)
    selects which interior nodes get rows. A row is needed only where a
    rule id is read: the dynamic, steal and incremental schedules, the
    parallel worker's spine, and provenance records. The worker also
    excludes remote stubs, whose rules run on other machines; the static
    schedule resolves no row unless a provenance ring is attached. *)
val create : ?rules_for:(Tree.t -> bool) -> Grammar.t -> Store.t -> t

val store : t -> Store.t

val grammar : t -> Grammar.t

(** Rule instances allocated (live and dead). *)
val rule_count : t -> int

(** Total non-constant (slot) arguments across all instances — the
    dependency-edge count evaluator stats report. *)
val slot_args : t -> int

(** Rule firings so far ({!fire} + {!fire_at} + {!refire}). *)
val fired : t -> int

(** {1 Instance table} *)

val rule_of : t -> int -> Grammar.rule

val node_of : t -> int -> Tree.t

val target_slot : t -> int -> int

(** The (node, attribute) instance a rule id defines. *)
val target_instance : t -> int -> Tree.t * string

(** [rid_at e node ridx] — rule id of [node]'s [ridx]-th production rule. *)
val rid_at : t -> Tree.t -> int -> int

(** Iterate a rule's slot (non-constant) argument ids. *)
val iter_slot_args : t -> int -> (int -> unit) -> unit

(** Rule instances detached by an edit: skipped by every schedule. *)
val is_dead : t -> int -> bool

(** Byte bitsets over rule ids, in the layout of {!is_dead} ({!Incr}'s
    wave keeps its sets in them): bit [i] is bit [i land 7] of byte
    [i lsr 3]. [bits_cover b n] is [b] when it holds [n] bits, else a copy
    at least twice as long with the fresh bits clear. *)
val bit_mem : Bytes.t -> int -> bool
val bit_add : Bytes.t -> int -> unit
val bit_clear : Bytes.t -> int -> unit
val bits_cover : Bytes.t -> int -> Bytes.t

(** {1 Firing} *)

(** [fire e rid] gathers arguments, computes and defines the target
    slot. *)
val fire : t -> int -> unit

(** [fire_at e node ridx] fires [node]'s [ridx]-th production rule from the
    rule's references through the store, as {!Store.apply_rule} does: the
    static path's firing, which reads no row unless a provenance ring is
    attached (its record names the rid). Its provenance duration is priced
    as a static rule (see {!set_prov}). *)
val fire_at : t -> Tree.t -> int -> unit

(** Like {!fire} but overwrites the target unconditionally and returns
    [true] when its value actually changed — the equality cutoff of
    incremental change propagation. *)
val refire : t -> int -> bool

(** {1 Provenance}

    [set_prov ~pid ~clock e prov] attaches a provenance ring: every
    subsequent firing appends one record (rid, pid, target slot, argument
    slots, t0/t1). Attaching {!Pag_obs.Prov.disabled} (the initial state)
    keeps the firing paths at one branch. [dwell_dynamic]/[dwell_static]
    price the duration of a {!fire}/{!refire} resp. {!fire_at} for
    schedulers whose clock does not advance inside a firing (the network
    simulator charges its cost-model delay after the call returns); when
    absent, durations come from a second clock read — wall time. *)
val set_prov :
  ?pid:int ->
  ?dwell_dynamic:float ->
  ?dwell_static:float ->
  clock:(unit -> float) ->
  t ->
  Pag_obs.Prov.t ->
  unit

(** Retarget subsequent records to another machine id — the simulated
    steal schedule runs every machine fiber over one shared engine. *)
val set_prov_pid : t -> int -> unit

(** The attached ring ({!Pag_obs.Prov.disabled} when none). *)
val prov : t -> Pag_obs.Prov.t

(** Machine id and clock attached by {!set_prov} — for callers recording
    auxiliary provenance (the DAG runtime's projection fan-out records)
    alongside the engine's own firing records. *)
val prov_pid : t -> int

val prov_clock : t -> unit -> float

(** Record zero-duration [replay] firings for every rule instance of a
    subtree whose slots were just set by a memoized replay
    ({!Memo.Replayed}) — keeps provenance slices complete under the
    static schedule's [dag] sharing. No-op when no ring is attached. *)
val note_replayed : t -> Tree.t -> unit

(** {1 Edits} *)

(** [append e sub] extends the instance table with the rules of an appended
    replacement subtree; call after {!Store.append_subtree} so dense
    indices line up. Returns the new [(rid_lo, rid_hi)] range (rule ids
    [rid_lo .. rid_hi - 1]). *)
val append : t -> Tree.t -> int * int

(** Mark every rule instance of a detached subtree dead. Nodes whose rules
    were suppressed by [rules_for] are skipped (they have none). *)
val kill_subtree : t -> Tree.t -> unit

(** {1 Suppressed occurrences (DAG evaluation support)}

    [rules_for] at {!create} can park nodes without instances — remote
    stubs, or non-leader occurrences of a shared subtree class. The DAG
    runtime ({!Dag}) resolves a parked occurrence late when its inherited
    context diverges from its class leader's. *)

(** Does the node have resolved rule instances ([rules_for] accepted it or
    {!materialize_subtree} resolved it since)? [rid_at] and
    {!reresolve_node} must not be used while this is [false]. *)
val has_rules : t -> Tree.t -> bool

(** [materialize_subtree e sub] resolves rule instances for every node of
    [sub] whose rules were suppressed at construction. The nodes' slots
    already exist in the store (unlike {!append}); the instances land at
    the end of the flat table, so follow with {!graph_note_range} exactly
    as after an append. [prune] cuts whole child subtrees out of the walk
    (the root is never pruned) — the DAG runtime uses it to materialize a
    region's spine while nested parked regions stay suppressed. Returns
    the new [(rid_lo, rid_hi)]. *)
val materialize_subtree : ?prune:(Tree.t -> bool) -> t -> Tree.t -> int * int

(** {1 Dependency graph} *)

(** Slot-level dependency graph: consumer edges (slot → rule instances
    reading it) in CSR form, with an overflow table for edges added by
    edits, plus the producer map (slot → defining rule id). *)
type graph

val graph : t -> graph

(** Rule id defining a slot, [-1] when none (intrinsic or preset). *)
val producer : graph -> int -> int

val iter_consumers : graph -> int -> (int -> unit) -> unit

(** Register a rid range appended by {!append}: producer entries for their
    targets, consumer edges for their arguments. *)
val graph_note_range : t -> graph -> rid_lo:int -> rid_hi:int -> unit

(** [reresolve_node e ?graph node] recomputes the targets and argument
    codes of [node]'s instances after one of its children was replaced.
    Only references that moved are rewritten; when [graph] is given, moved
    targets update its producer map and moved arguments gain consumer
    edges (stale edges from dead slots are inert — dead slots are never
    redefined). *)
val reresolve_node : t -> ?graph:graph -> Tree.t -> unit

(** {1 The dependency-counting loop}

    One loop fires the data-driven fixed point — any topological order of
    the dependency graph is valid — on a set of machines: per-machine
    Chase-Lev deques of ready task ids ({!Steal}), atomic dependency
    counters, xorshift victim choice with exponential backoff between
    failed probes, and an exact task-census termination barrier. The loop
    owns all of that; a task graph says what the tasks are, and a machine
    set says only where machines run and what their work costs. Three
    sets run it: the calling domain alone ({!one_machine}: {!run_topo},
    {!Dag.run_topo}, {!Incr}'s edit waves), real domains ({!run_tasks}),
    and the runner's simulated steal schedule on simulator fibers. *)

(** A task graph: tasks [0 .. tk_count - 1].

    - [tk_unmet t] is task [t]'s count of unmet dependencies at the start,
      negative when [t] is no task (a dead rule instance).
    - [tk_release key f] calls [f] once per dependency a released [key]
      meets, naming the task that has it. What a key is belongs to the
      graph: a slot for {!rule_tasks}, a task id for {!Taskgraph}. *)
type tasks = {
  tk_count : int;
  tk_unmet : int -> int;
  tk_release : int -> (int -> unit) -> unit;
}

(** One task per live rule instance, task id = rule id: a task waits for
    its unset slot arguments, and releasing a slot releases the instances
    that read it. Grows with the engine: rule ids {!append}ed or
    materialized mid-run are tasks too. *)
val rule_tasks : t -> graph -> tasks

(** A machine set. Machines are numbered [0 .. ms_count - 1]; machine [d]
    seeds its victim choice from [d + 1].

    - [ms_start ~seed ~release body] runs [body d] for every machine to
      completion (a body never raises). [seed d lo hi] registers tasks
      [lo .. hi - 1] added mid-run and queues the ready ones on [d]'s
      deque; [release d key] queues the tasks a key released outside any
      task made ready. Both act as [d]'s owner, so only a set whose
      machines share one thread may call them; a set whose work never
      grows ignores both.
    - [ms_fire d ~release] is machine [d]'s firing closure, built once per
      machine. It runs one task, charges its cost, and calls
      [release key] to queue the tasks that became ready.
    - [ms_probe d stats ~victim deque ~into] moves work from [victim]'s
      [deque] into [d]'s deque [into] and returns the number of tasks
      moved; a probe that itself idles adds the time to [stats.st_idle].
    - [ms_wait d round] waits after a failed probe ([round] counts the
      consecutive failures, capped at 16) and returns the idle seconds.
    - [ms_refill d] runs when the census is zero: [true] when it queued
      more work through [seed] or [release] (demand materialization of a
      stalled DAG region), [false] to let machine [d] stop. *)
type machines = {
  ms_count : int;
  ms_start :
    seed:(int -> int -> int -> unit) ->
    release:(int -> int -> unit) ->
    (int -> unit) ->
    unit;
  ms_fire : int -> release:(int -> unit) -> int -> unit;
  ms_probe :
    int -> Steal.stats -> victim:int -> Steal.t -> into:Steal.t -> int;
  ms_wait : int -> int -> float;
  ms_refill : int -> bool;
}

(** [steal_loop e tasks ~owner ms] seeds every live task with no unmet
    dependency on machine [owner t]'s deque (an affinity hint — stealing
    overrides it) and runs the machine set. Returns the number of tasks
    run and the per-machine scheduler statistics. Re-raises the first
    exception a task raised. Once the set has returned, a store with
    slots still unset ({!Store.missing} > 0, an O(1) count) raises
    {!Cycle}: tasks that never ran, and slots no task defines. An edit
    wave, whose slots were set before, also counts the tasks run. *)
val steal_loop :
  t -> tasks -> owner:(int -> int) -> machines -> int * Steal.stats array

(** [one_machine ~key ~fire] is the one-machine set on the calling domain:
    machine 0 runs task [t] with [fire t], which defines its slots through
    the store's checked setters, then releases [key t] ({!target_slot}
    over {!rule_tasks}; {!Incr}'s cone members release themselves). *)
val one_machine : key:(int -> int) -> fire:(int -> unit) -> machines

(** [run_topo e gr] is {!steal_loop} over {!rule_tasks} on
    [one_machine ~key:(target_slot e) ~fire:(fire e)]: every live instance
    fires once its arguments are set, depth-first (the deque pops LIFO),
    until the store is complete. Returns the number of firings; raises
    {!Cycle} as {!steal_loop} does. *)
val run_topo : t -> graph -> int

(** [run_tasks ~domains ~owner ~uid_base e tasks ~fire] runs {!steal_loop}
    on [D = Pag_util.Placement.count domains] machines, one per domain (the
    caller's hosting machine 0). [owner] maps a task to a machine
    (clamped); the default block-partitions the task ids. Each domain [d]
    allocates uids from its own stripe [uid_base + d * Uid.stride], so
    label numbers depend on the schedule.

    [fire d ~poke ~release] builds domain [d]'s firing closure: it runs one
    task, writes every slot the task defines through [poke] (never through
    the store's checked setters, whose set-bits are not domain-safe), and
    calls [release] on the task's key. Once every domain has returned, the
    calling domain marks the poked slots set; a slot no task poked stays
    unset, so the loop raises {!Cycle}. A failed probe spins with
    exponential backoff; [st_idle] is the wall-clock time spent
    spinning. *)
val run_tasks :
  ?domains:int ->
  ?owner:(int -> int) ->
  ?uid_base:int ->
  t ->
  tasks ->
  fire:
    (int ->
    poke:(int -> Value.t -> unit) ->
    release:(int -> unit) ->
    int ->
    unit) ->
  int * Steal.stats array

(** [fire_quiet e ~ring ~pid ~clock ~poke rid] is {!fire} for a task of
    {!run_tasks}: it reads the arguments with {!Store.peek}, hands the
    target slot and value to [poke], and, when [ring] is enabled, records
    the firing under [pid] timed by [clock]. *)
val fire_quiet :
  t ->
  ring:Pag_obs.Prov.t ->
  pid:int ->
  clock:(unit -> float) ->
  poke:(int -> Value.t -> unit) ->
  int ->
  unit

(** [run_steal ~domains ~owner e gr] is {!run_tasks} over {!rule_tasks}:
    every live rule instance of a fully-rowed engine is one task, fired by
    {!fire_quiet} with no provenance ring. [owner] maps a rule-instance id
    to a machine; the default block-partitions the instance table. Domain
    [d] allocates uids from stripe [d * Uid.stride]: compare label-masked
    output across schedules, or use a grammar that consumes no uids for
    bit-identical stores. Returns the number of firings and the [D]
    per-domain scheduler statistics. Raises {!Cycle} as {!run_topo}
    does: the loop checks the store once the poked slots are marked
    set. *)
val run_steal :
  ?domains:int ->
  ?owner:(int -> int) ->
  t ->
  graph ->
  int * Steal.stats array

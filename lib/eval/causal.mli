(** Post-run provenance analysis: causal slices and the critical-path
    profile.

    {!build} materializes the firing records of one or more {!Pag_obs.Prov}
    rings (one per machine/domain, or a single ring for sequential runs)
    into a DAG over attribute instances. Instances are keyed globally by
    [(node preorder id, attribute index)] — node ids are shared across the
    fragment stores of a parallel run, so cross-machine dependencies link
    up even though slot ids are store-local.

    Two analyses ship on top: the {e dependency slice} of one instance
    ([pagc --explain]) — every recorded firing its final value transitively
    depends on, with argument values, owning machine and timing — and the
    {e weighted critical path} ([pagc --profile]) — the longest chain of
    dependent firings, compared against the achieved makespan, with
    per-rule and per-machine blame tables and an ideal-parallel-time lower
    bound [max(critical, work/machines)]. *)

open Pag_core

type t

(** [build sources] — each source pairs a ring with the engine whose
    firings it recorded (the engine resolves slot ids and rule names).
    Pass one pair per machine; rings record rid/pid/slots only, so a
    shared engine may appear in several pairs (the domains steal
    schedule). *)
val build : (Pag_obs.Prov.t * Engine.t) list -> t

(** Firing records materialized (survivors of every ring). *)
val firings : t -> int

(** Records evicted by ring overflow, summed over sources — when nonzero,
    slices and profiles are lower bounds. *)
val dropped : t -> int

(** Argument slots dropped by per-record arity overflow. *)
val arg_drops : t -> int

(** Global key of an attribute instance. *)
val key_of : Tree.t -> attr_idx:int -> int

(** Per-record argument capacity ({!Pag_obs.Prov.create}'s [arity]) that
    guarantees no slot argument of any of [g]'s rules is dropped — the
    widest rule dependency list, floored at 8. Every ring creation should
    pass it: a truncated argument list silently under-reports slices. *)
val arity_for : Grammar.t -> int

(** Does any recorded firing define this key? *)
val has_key : t -> int -> bool

(** {1 Dependency slice} *)

(** Human-readable slice: one line per firing in chronological order —
    machine, time window, rule, target instance and value, argument
    values. [~] marks memo-replayed (zero-duration) firings. *)
val render_slice : t -> int -> string

(** {1 Verification}

    The slice must agree with the engine's own dependency graph: the
    transitive producer closure. [pagc --explain] checks this and exits
    nonzero on disagreement; the qcheck property in [test_causal] does the
    same across schedules. *)

(** [(missing, extra)] — instance names in the closure but not the slice,
    and vice versa. Both empty iff the slice is exact. Build the reference
    engine on the {e run's} tree with {!Store.create_shared} so node ids
    agree. *)
val verify_slice :
  t -> ref_engine:Engine.t -> ref_graph:Engine.graph -> int -> string list * string list

(** {1 Critical path} *)

type step = {
  st_label : string;  (** production:rule *)
  st_target : string;  (** SYM#id.attr *)
  st_pid : int;
  st_t0 : float;
  st_t1 : float;
  st_replay : bool;
}

type chain = { ch_len : float; ch_steps : step list }

type profile = {
  pr_firings : int;
  pr_replays : int;
  pr_dropped : int;
  pr_machines : int;  (** distinct pids observed *)
  pr_makespan : float;  (** last t1 - first t0 *)
  pr_work : float;  (** sum of firing durations *)
  pr_critical : float;  (** weighted longest dependent chain *)
  pr_ideal : float;  (** max(critical, work/machines) *)
  pr_rule_blame : (string * int * float) list;
      (** rule label, firings, time — on the top chain, largest first *)
  pr_machine_blame : (int * int * float) list;
      (** pid, firings, time — on the top chain *)
  pr_chains : chain list;  (** top chains, firing-disjoint, longest first *)
}

(** [profile ?top d] — [top] (default 3) chains are reported; the blame
    tables cover the first. Invariant (schedules price firing durations
    consistently): [pr_critical <= pr_makespan] up to clock noise. *)
val profile : ?top:int -> t -> profile

val render_profile : profile -> string

(** One-line JSON object (the CI artifact / [--profile-json] payload). *)
val profile_json : profile -> string

(** Flow arrows along the top [top] chains, as an {!Pag_obs.Obs} recorder
    to merge into a trace export — Chrome's trace viewer then draws the
    critical path across the per-machine Gantt rows. *)
val flows : ?top:int -> t -> Pag_obs.Obs.recorder

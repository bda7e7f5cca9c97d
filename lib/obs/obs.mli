(** Unified telemetry: span/event recording, a metrics registry, and a
    per-run evaluation report.

    One structured layer replaces the scattered peepholes ([Worker.stats],
    [Reliable.stats], [Faults.stats]) with three faces:

    - a low-overhead {e recorder} of phase spans, discrete events and
      message-flow arrows, stored in growable struct-of-arrays buffers —
      recording into {!disabled} costs one branch and allocates nothing,
      so instrumentation can stay in the hot paths permanently. It is
      also the network simulator's own log ([Netsim.Sim]: ["active"] and
      ["idle"] spans, message flows, marks), so every timeline of a run
      lives in one kind of store;
    - a {e metrics registry} of named counters / gauges / histograms,
      incremented through preallocated handles;
    - a {e report} snapshot that reproduces the paper's headline numbers
      (per-machine utilization, fraction of dynamically evaluated
      attributes, librarian savings) for any run.

    Timestamps are whatever clock the caller supplies: simulated seconds on
    the network simulator, wall-clock seconds on OCaml domains. Exporters
    (Chrome trace-event JSON for Perfetto, raw JSONL) live in {!Export}. *)

(** {1 Event recorder} *)

type kind = Span | Instant | Flow

(** Materialized view of one recorded event ([Flow]: [e_pid] is the source
    machine, [e_dst] the destination, [e_t0] send time, [e_t1] receive
    time; [Span]: [e_t0 .. e_t1] on machine [e_pid]; [Instant]: [e_t0]). *)
type event = {
  e_kind : kind;
  e_pid : int;
  e_dst : int;  (** -1 except for flows *)
  e_t0 : float;
  e_t1 : float;
  e_name : string;
}

type recorder

(** The no-op sink: every recording call returns immediately without
    allocating. *)
val disabled : recorder

val create : unit -> recorder

val enabled : recorder -> bool

val length : recorder -> int

val span : recorder -> pid:int -> t0:float -> t1:float -> string -> unit

val instant : recorder -> pid:int -> t:float -> string -> unit

val flow :
  recorder -> src:int -> dst:int -> send:float -> recv:float -> string -> unit

(** In recording order. *)
val iter : recorder -> (event -> unit) -> unit

(** All events of [rs] merged into one recorder, sorted by start time. *)
val merge : recorder list -> recorder

(** {1 Metrics registry} *)

module Metrics : sig
  type t

  (** Handle to a named counter; incrementing through a handle is one
      branch and one integer store, no hashing. *)
  type counter

  type histogram

  val create : unit -> t

  (** Disabled registry: handles obtained from it are dead, updates are
      dropped, snapshots are empty. *)
  val null : t

  val live : t -> bool

  (** [labeled name labels] renders a metric name with Prometheus-style
      labels: [labeled "service.edits" [ ("tenant", "alice") ]] is
      ["service.edits{tenant=alice}"]. The registry keys metrics by plain
      string, so labeled series are simply distinct names — this fixes the
      convention (sorted output groups a family's series together). With
      no labels it is [name] itself. *)
  val labeled : string -> (string * string) list -> string

  val counter : t -> string -> counter

  val add : counter -> int -> unit

  val incr : counter -> unit

  val value : counter -> int

  (** 0 when absent. *)
  val counter_value : t -> string -> int

  (** Gauges are set (or accumulated with [add_gauge]) by name; they are
      written once per run, not on hot paths. *)
  val set_gauge : t -> string -> float -> unit

  val add_gauge : t -> string -> float -> unit

  (** Keep the maximum of the values seen — high-water-mark gauges
      (e.g. work-stealing deque depth). *)
  val set_gauge_max : t -> string -> float -> unit

  val gauge_value : t -> string -> float option

  val histogram : t -> string -> histogram

  (** Records count / sum / min / max and a power-of-two bucket. *)
  val observe : histogram -> float -> unit

  (** Sums counters and gauges, merges histogram buckets of [src] into
      [into]. *)
  val merge : into:t -> t -> unit

  (** [name, rendered value] rows, sorted by name. Histograms render as
      [count/sum/min/max]. *)
  val rows : t -> (string * string) list
end

(** {1 Instrumentation context}

    Bundles the recorder, the registry, the machine id and the clock, so
    instrumented code takes a single value. *)

type ctx = {
  x_rec : recorder;
  x_metrics : Metrics.t;
  x_pid : int;
  x_clock : unit -> float;
}

(** Disabled recorder + null registry; safe to share. *)
val null_ctx : ctx

val make_ctx : pid:int -> clock:(unit -> float) -> ctx

val ctx_enabled : ctx -> bool

(** [with_span ctx name f] runs [f] inside a span when enabled, or calls it
    directly when not. *)
val with_span : ctx -> string -> (unit -> 'a) -> 'a

(** Discrete event at the context's current time; a no-op when disabled
    (the clock is not read). *)
val event : ctx -> string -> unit

(** {1 JSON fragments} *)

module Json : sig
  (** Escape for inclusion inside a JSON string literal (no quotes added). *)
  val escape : string -> string

  (** Render a float as a JSON number ([nan]/[inf] become [0]). *)
  val num : float -> string
end

(** {1 Per-run report} *)

module Report : sig
  type machine = {
    rm_pid : int;
    rm_name : string;
    rm_active : float;  (** seconds busy *)
    rm_idle : float;  (** seconds waiting for messages *)
    rm_util : float;  (** active / horizon, 0..1 *)
    rm_sends : int;  (** boundary messages originated *)
    rm_max_queue : int;  (** peak mailbox depth; -1 = unknown *)
  }

  type t = {
    rp_label : string;  (** e.g. "combined, 5 machines (sim)" *)
    rp_clock : string;  (** "simulated" or "wall clock" *)
    rp_horizon : float;  (** end-of-run time *)
    rp_machines : machine list;
    rp_dynamic_rules : int;
    rp_static_rules : int;
    rp_messages : int;
    rp_bytes : int;
    rp_retransmits : int;
    rp_metrics : Metrics.t;  (** everything else, by name *)
    rp_domains : int;
        (** OCaml domains the run used, the calling one included; 1 for
            simulated and sequential runs *)
  }

  (** dynamic / (dynamic + static); 0 when no rules ran. *)
  val dynamic_fraction : t -> float

  (** The end-of-run table ([pagc --report]). *)
  val render : t -> string
end

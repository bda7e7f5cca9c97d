(** CPU cost model for simulated evaluation.

    Charged as virtual time in the network simulator; a no-op on the real
    (domain) transport where the CPU does the actual work. The constants are
    calibrated to a ~1 MIPS SUN-2-class workstation so that sequential
    compilation of the paper's ~5000-line input lands in the same tens-of-
    seconds regime the paper reports; EXPERIMENTS.md documents the
    calibration. The *ratios* are what the experiments depend on:
    dynamically evaluating an attribute costs graph construction + scheduling
    on top of the rule itself, statically it costs only the rule plus a small
    visit overhead. Semantic rules are O(1)-ish (rope concatenation is
    constant time, symbol-table update logarithmic), so rule cost is flat;
    string flattening is paid at message boundaries by the network model. *)

type t = {
  static_rule : float;  (** applying one semantic rule in a visit sequence *)
  dynamic_rule : float;  (** rule + ready-queue scheduling, dynamic mode *)
  steal_rule : float;
      (** rule + work-stealing scheduling: deque pop plus atomic
          dependency-counter decrements against the flat instance table —
          cheaper than 1987-style dynamic scheduling, dearer than a
          precomputed visit sequence *)
  steal_init : float;
      (** per rule instance: seeding the ready-counter table from the
          grammar's precomputed dependency rows — one array store each, an
          order of magnitude below [build_node]'s linked-graph share *)
  build_node : float;  (** dependency-graph share per dynamic instance *)
  build_edge : float;  (** per dependency edge entered in the graph *)
  visit : float;  (** entering a visit procedure at one node *)
  rebuild_per_byte : float;  (** reconstructing a shipped subtree, per byte *)
}

val default : t

val rule_cost : t -> dynamic:bool -> float

(** Cost of a static visit segment that fired [evals] rules over [visits]
    node entries. *)
val visit_cost : t -> visits:int -> evals:int -> float

(** A wave's price: the owner's sequential work (rebuilt bytes, the dirty
    cone, and every re-fire outside the rounds at dynamic-rule cost), each
    round's ceiling share of steal-priced re-fires across the assisting
    machines, and the cone chunk each helper is shipped and returns. *)
type wave_cost = { wc_owner : float; wc_share : float; wc_chunk_bytes : int }

(** [wave t ~rounds ~assist wv] prices wave [wv], [rounds.(i)] of whose
    re-fires ran in round [i] across [assist] machines ([[||]] for a
    single edit). *)
val wave :
  t -> rounds:int array -> assist:int -> Pag_eval.Incr.wave_stats -> wave_cost

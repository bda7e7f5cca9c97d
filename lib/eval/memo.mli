(** Subtree-visit memo over a {!Tree.sharing} DAG view — the static
    schedule's sharing under [dag].

    Visit [v] of a subtree is a pure function of the subtree's shape class
    and the inherited values received for visits [1..v] (the {e inherited
    fingerprint}). The first occurrence records the set slots of its
    contiguous slot range; later occurrences with the same key replay them
    by offset arithmetic, skipping the whole visit. Keys hold canonical
    ({!Pag_core.Value.intern}) values, so lookups hash in O(1) and compare
    with [==].

    Visits that consume unique identifiers ({!Pag_core.Uid.fresh}) —
    detected by bracketing the first evaluation with {!Pag_core.Uid.mark} —
    are never memoized, since labels must stay distinct per occurrence.
    Fragment stores whose stubs interrupt a subtree's slot range simply
    fall back to ordinary evaluation. Memoization never changes what the
    store observes, only how it is produced. *)

open Pag_core
open Pag_analysis

type t

val create : Tree.sharing -> t

type stats = {
  st_hits : int;  (** visits replayed from the memo *)
  st_misses : int;  (** visits evaluated and recorded *)
  st_fallbacks : int;  (** eligible visits that could not be keyed *)
  st_replayed_slots : int;  (** attribute instances defined by replay *)
}

val stats : t -> stats

(** What the static evaluator should do at (node, visit). [Replayed]: the
    visit's effects are already in the store. [Evaluate (Some record)]:
    evaluate normally and call [record] when the visit completes.
    [Evaluate None]: evaluate normally (ineligible or unkeyable). *)
type attempt = Replayed | Evaluate of (unit -> unit) option

val subtree : t option -> Kastens.plan -> Store.t -> Tree.t -> int -> attempt

open Pag_core
open Pag_analysis

let mix h1 h2 = (h1 * 0x01000193) lxor (h2 + 0x9e3779b9 + (h1 lsl 6))

(* Subtree-visit memo for the static evaluator.

   Key: which subtree shape, which visit, and the canonical inherited
   values the subtree has received for visits 1..v — everything a visit's
   outcome can depend on besides the shape itself (terminal attributes are
   part of the shape class; semantic rules are pure). Values are canonical
   ({!Value.intern}), so equality is [==] and hashing is O(1). *)
type key = { k_class : int; k_visit : int; k_fp : Value.t array }

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.k_class = b.k_class && a.k_visit = b.k_visit
    && Array.length a.k_fp = Array.length b.k_fp
    &&
    let n = Array.length a.k_fp in
    let rec go i = i >= n || (a.k_fp.(i) == b.k_fp.(i) && go (i + 1)) in
    go 0

  let hash k =
    Array.fold_left
      (fun h v -> mix h (Value.hash v))
      (mix k.k_class k.k_visit) k.k_fp
end)

type stats = {
  st_hits : int;
  st_misses : int;
  st_fallbacks : int;
  st_replayed_slots : int;
}

type t = {
  sharing : Tree.sharing;
  tbl : (int * Value.t) array Key_tbl.t;
  (* (class, visit) pairs whose evaluation consumed unique identifiers:
     their results embed labels that must stay distinct per occurrence, so
     they are never memoized. *)
  tainted : (int * int, unit) Hashtbl.t;
  (* Occurrence counts of the recordings currently in progress (a stack:
     recordings nest with the visit recursion). While a recording for a
     class with [k] occurrences is active, a descendant class occurring
     [<= k] times is never worth its own entry — every occurrence of it
     sits inside an occurrence of the ancestor class, so the ancestor's
     replay always covers it. Skipping those keeps list spines linear: the
     [n] tail classes of a repeated statement list would otherwise each
     snapshot their whole range, O(n^2) slots per list. *)
  mutable recording : int list;
  mutable hits : int;
  mutable misses : int;
  mutable fallbacks : int;
  mutable replayed_slots : int;
}

(* Subtrees smaller than this many nodes are not worth a table entry. *)
let min_size = 3

let create sharing =
  {
    sharing;
    tbl = Key_tbl.create 256;
    tainted = Hashtbl.create 16;
    recording = [];
    hits = 0;
    misses = 0;
    fallbacks = 0;
    replayed_slots = 0;
  }

let stats t =
  {
    st_hits = t.hits;
    st_misses = t.misses;
    st_fallbacks = t.fallbacks;
    st_replayed_slots = t.replayed_slots;
  }

(* What the static evaluator should do at (node, visit): replay a previous
   occurrence's attributes, or evaluate normally — and in the latter case,
   [Evaluate (Some record)] asks it to call [record] once the visit
   completes, to capture the result for the class's later occurrences. *)
type attempt = Replayed | Evaluate of (unit -> unit) option

let no_record = Evaluate None

let fingerprint plan store node v =
  let sym = node.Tree.sym in
  let vals = ref [] in
  let missing = ref false in
  for w = v downto 1 do
    let inh, _ = Kastens.visit_attrs plan ~sym ~visit:w in
    List.iter
      (fun attr ->
        match Store.get_opt store node attr with
        | Some x -> vals := Value.intern x :: !vals
        | None -> missing := true)
      (List.rev inh)
  done;
  if !missing then None else Some (Array.of_list !vals)

let subtree m plan store node v =
  match m with
  | None -> no_record
  | Some m -> (
      let c = m.sharing.Tree.sh_class.(node.Tree.id) in
      let size = m.sharing.Tree.sh_size.(c) in
      let occurs = m.sharing.Tree.sh_occurs.(c) in
      if occurs < 2 || size < min_size then no_record
      else if
        (* Covered by an active ancestor recording (see [recording]): no
           entry will exist for this class, so skip the fingerprint and
           table work entirely. *)
        match m.recording with top :: _ -> occurs <= top | [] -> false
      then no_record
      else if Hashtbl.mem m.tainted (c, v) then no_record
      else
        match Store.slot_range store ~id_lo:node.Tree.id ~id_count:size with
        | None ->
            (* A fragment boundary interrupts the subtree: evaluate it the
               ordinary way. *)
            m.fallbacks <- m.fallbacks + 1;
            no_record
        | Some (lo, hi) -> (
            match fingerprint plan store node v with
            | None ->
                m.fallbacks <- m.fallbacks + 1;
                no_record
            | Some fp -> (
                let key = { k_class = c; k_visit = v; k_fp = fp } in
                match Key_tbl.find_opt m.tbl key with
                | Some entries ->
                    Store.replay_range store ~lo entries;
                    m.hits <- m.hits + 1;
                    m.replayed_slots <- m.replayed_slots + Array.length entries;
                    Replayed
                | None ->
                    let u0 = Uid.mark () in
                    m.recording <- occurs :: m.recording;
                    Evaluate
                      (Some
                         (fun () ->
                           (match m.recording with
                           | _ :: rest -> m.recording <- rest
                           | [] -> ());
                           if Uid.mark () <> u0 then
                             Hashtbl.replace m.tainted (c, v) ()
                           else begin
                             m.misses <- m.misses + 1;
                             Key_tbl.replace m.tbl key
                               (Store.snapshot_range store ~lo ~hi)
                           end)))))

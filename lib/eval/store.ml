open Pag_core

(* Flat attribute store.

   All attribute instances of the covered nodes live in one dense [vals]
   array; instance (slot) ids are [base.(dense node index) + attribute
   index]. A bitset tracks which slots are set, so values need no option
   boxing and "is set" is a bit test. Node ids (which are global and sparse
   for fragment stores) map to dense indices through an offset-based [index_of]
   table, making every hot-path access array arithmetic.

   The arrays are capacities: [append_subtree] grows them geometrically, so
   the logical sizes are [n_nodes] covered nodes, an id span of [span] and
   [base.(n_nodes)] slots. Nothing reads an array length as a size. *)

type t = {
  g : Grammar.t;
  root : Tree.t;
  id_lo : int;  (* lowest covered node id *)
  mutable span : int;  (* covered ids are [id_lo .. id_lo + span - 1] *)
  mutable n_nodes : int;
  mutable index_of : int array;
      (* (node id - id_lo) -> dense index, -1 if absent *)
  mutable nodes : Tree.t array;  (* dense index -> node, increasing node id *)
  mutable base : int array;
      (* dense index -> first slot id; entries 0 .. n_nodes *)
  mutable vals : Value.t array;  (* slot id -> value (valid iff bit set) *)
  mutable bits : Bytes.t;  (* slot id -> set? *)
  mutable n_sets : int;  (* set bits, presets aside: each is counted once *)
  mutable n_preset : int;  (* set bits of preset root attributes *)
  mutable n_reads : int;
}

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let slot_is_set s slot =
  Char.code (Bytes.unsafe_get s.bits (slot lsr 3)) land (1 lsl (slot land 7))
  <> 0

let mark_set s slot =
  let b = slot lsr 3 in
  Bytes.unsafe_set s.bits b
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get s.bits b) lor (1 lsl (slot land 7))))

(* Covered nodes in preorder (= increasing id order for numbered trees),
   optionally stopping below stub nodes. *)
let covered_nodes ?(stop = fun _ -> false) root =
  let acc = ref [] and count = ref 0 in
  let stack = ref [ root ] in
  let rec go () =
    match !stack with
    | [] -> ()
    | node :: rest ->
        stack := rest;
        acc := node :: !acc;
        incr count;
        if node == root || not (stop node) then
          for i = Array.length node.Tree.children - 1 downto 0 do
            stack := node.Tree.children.(i) :: !stack
          done;
        go ()
  in
  go ();
  (List.rev !acc, !count)

let create_shared ?(root_inh = []) ?stop g root =
  let node_list, n = covered_nodes ?stop root in
  let nodes = Array.of_list node_list in
  let id_lo = ref max_int and id_hi = ref min_int in
  Array.iter
    (fun (node : Tree.t) ->
      if node.Tree.id < !id_lo then id_lo := node.Tree.id;
      if node.Tree.id > !id_hi then id_hi := node.Tree.id)
    nodes;
  let id_lo = if n = 0 then 0 else !id_lo in
  let span = if n = 0 then 0 else !id_hi - id_lo + 1 in
  let index_of = Array.make span (-1) in
  Array.iteri
    (fun i (node : Tree.t) ->
      if index_of.(node.Tree.id - id_lo) >= 0 then
        error "node %d (%s) appears twice (tree not numbered?)" node.Tree.id
          node.Tree.sym;
      index_of.(node.Tree.id - id_lo) <- i)
    nodes;
  let counts = Grammar.(fun id -> attr_count_of_id g id) in
  let base = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let node = nodes.(i) in
    let c =
      (* terminal attributes are intrinsic: leaves get no slots *)
      match node.Tree.prod with None -> 0 | Some _ -> counts node.Tree.sym_id
    in
    base.(i + 1) <- base.(i) + c
  done;
  let total = base.(n) in
  let store =
    {
      g;
      root;
      id_lo;
      span;
      n_nodes = n;
      index_of;
      nodes;
      base;
      vals = Array.make total Value.Unit;
      bits = Bytes.make ((total + 7) / 8) '\000';
      n_sets = 0;
      n_preset = 0;
      n_reads = 0;
    }
  in
  List.iter
    (fun (attr, v) ->
      let idx = Grammar.attr_pos g ~sym:root.Tree.sym ~attr in
      let slot = base.(index_of.(root.Tree.id - id_lo)) + idx in
      store.vals.(slot) <- v;
      if not (slot_is_set store slot) then begin
        mark_set store slot;
        store.n_preset <- store.n_preset + 1
      end)
    root_inh;
  store

let create ?root_inh g root =
  ignore (Tree.number root);
  create_shared ?root_inh g root

(* [a] with room for [n] entries: unchanged when it has it, otherwise a
   copy of at least twice the length whose fresh entries are [fill]. *)
let reserve a n fill =
  let len = Array.length a in
  if n <= len then a
  else begin
    let b = Array.make (max n (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b
  end

(* Extend the store with the (already numbered) nodes of a replacement
   subtree. The new ids must start exactly where the store's covered id
   range ends, so the offset-based [index_of] table extends contiguously —
   {!Pag_eval.Incr} numbers replacements with [Tree.number_from] to
   guarantee this. The detached subtree's slots stay allocated (and set);
   they are dead weight until the next full rebuild compacts them. The
   arrays grow geometrically, as [Engine]'s do, so an edit costs its
   subtree, not a copy of the store; entries past the logical sizes are
   never written, so the slots an append claims from the reserve start
   unset. *)
let append_subtree s sub =
  let node_list, n = covered_nodes sub in
  let old_n = s.n_nodes in
  let next_id = s.id_lo + s.span in
  List.iteri
    (fun k (node : Tree.t) ->
      if node.Tree.id <> next_id + k then
        error "append_subtree: node id %d out of sequence (expected %d)"
          node.Tree.id (next_id + k))
    node_list;
  s.index_of <- reserve s.index_of (s.span + n) (-1);
  s.nodes <- reserve s.nodes (old_n + n) s.root;
  s.base <- reserve s.base (old_n + n + 1) 0;
  List.iteri
    (fun k (node : Tree.t) ->
      let i = old_n + k in
      s.index_of.(node.Tree.id - s.id_lo) <- i;
      s.nodes.(i) <- node;
      let c =
        match node.Tree.prod with
        | None -> 0
        | Some _ -> Grammar.attr_count_of_id s.g node.Tree.sym_id
      in
      s.base.(i + 1) <- s.base.(i) + c)
    node_list;
  s.span <- s.span + n;
  s.n_nodes <- old_n + n;
  let total = s.base.(s.n_nodes) in
  s.vals <- reserve s.vals total Value.Unit;
  let need = (total + 7) / 8 in
  if Bytes.length s.bits < need then begin
    let bits = Bytes.make (max need (2 * Bytes.length s.bits)) '\000' in
    Bytes.blit s.bits 0 bits 0 (Bytes.length s.bits);
    s.bits <- bits
  end

(* ------------------------------------------------------------------ *)
(* Slot arithmetic                                                     *)
(* ------------------------------------------------------------------ *)

let dense_index s (node : Tree.t) =
  let i = node.Tree.id - s.id_lo in
  if i < 0 || i >= s.span || s.index_of.(i) < 0 then
    error "node %d (%s) is not covered by this store" node.Tree.id
      node.Tree.sym
  else s.index_of.(i)

let slot_count s = s.base.(s.n_nodes)

let slot_of s node ~attr_idx = s.base.(dense_index s node) + attr_idx

let slot_value s slot =
  s.n_reads <- s.n_reads + 1;
  Array.unsafe_get s.vals slot

(* Unchecked primitives for the work-stealing parallel phase. [poke]
   writes a value without touching [bits] or the counters: the set-bitset
   is byte-granular, so marking bits from several domains would be a
   read-modify-write race, and the counters are plain ints. Readiness is
   tracked externally by the scheduler's atomic dependency counters;
   [peek] reads a slot the scheduler has proven ready without bumping
   [n_reads]. After the domains join, the (sequential) caller runs
   [commit_slot] over every fired target to restore the set-bits and
   [n_sets] invariants. *)

let poke s slot v = Array.unsafe_set s.vals slot v

let peek s slot = Array.unsafe_get s.vals slot

let commit_slot s slot =
  if not (slot_is_set s slot) then begin
    mark_set s slot;
    s.n_sets <- s.n_sets + 1
  end

(* Owner of a slot, for error messages only: the dense node index i with
   base.(i) <= slot < base.(i+1). *)
let slot_owner s slot =
  let lo = ref 0 and hi = ref (s.n_nodes - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if s.base.(mid) <= slot then lo := mid else hi := mid - 1
  done;
  (s.nodes.(!lo), slot - s.base.(!lo))

(* Semantic rules are pure, so re-deriving an instance (e.g. from a network
   message replayed by the reliable-delivery layer) must produce the same
   value: an equal re-set is an idempotent no-op (not counted in [sets]),
   while a conflicting one is still the hard error it always was. Values
   whose equality is undecidable count as conflicting. *)
let same_value a b = try Value.equal a b with Value.Type_error _ -> false

let define_slot s slot v =
  if slot_is_set s slot then begin
    if not (same_value s.vals.(slot) v) then begin
      let node, k = slot_owner s slot in
      let sym = Grammar.symbol_of_id s.g node.Tree.sym_id in
      error "attribute %s.%s of node %d set twice" node.Tree.sym
        sym.Grammar.s_attrs.(k).Grammar.a_name node.Tree.id
    end
  end
  else begin
    s.vals.(slot) <- v;
    mark_set s slot;
    s.n_sets <- s.n_sets + 1
  end

(* Overwrite unconditionally — the change-propagation primitive. Returns
   whether the stored value actually changed (the equality cutoff);
   undecidable equality counts as changed. *)
let redefine_slot s slot v =
  let changed =
    (not (slot_is_set s slot)) || not (same_value s.vals.(slot) v)
  in
  s.vals.(slot) <- v;
  if not (slot_is_set s slot) then begin
    mark_set s slot;
    s.n_sets <- s.n_sets + 1
  end;
  changed

let set_slot s (node : Tree.t) attr slot v =
  if slot_is_set s slot then begin
    if not (same_value s.vals.(slot) v) then
      error "attribute %s.%s of node %d set twice" node.Tree.sym attr
        node.Tree.id
  end
  else begin
    s.vals.(slot) <- v;
    mark_set s slot;
    s.n_sets <- s.n_sets + 1
  end

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let grammar s = s.g

let root s = s.root

let node_count s = s.n_nodes

let find_node s id =
  let i = id - s.id_lo in
  if i < 0 || i >= s.span || s.index_of.(i) < 0 then None
  else Some s.nodes.(s.index_of.(i))

let idx_of s (node : Tree.t) attr =
  Grammar.attr_pos s.g ~sym:node.Tree.sym ~attr

let set s node attr v = set_slot s node attr (slot_of s node ~attr_idx:(idx_of s node attr)) v

let get_opt s (node : Tree.t) attr =
  s.n_reads <- s.n_reads + 1;
  match node.Tree.prod with
  | None -> Some (Tree.term_attr node attr)
  | Some _ ->
      let slot = slot_of s node ~attr_idx:(idx_of s node attr) in
      if slot_is_set s slot then Some s.vals.(slot) else None

let get s node attr =
  match get_opt s node attr with
  | Some v -> v
  | None ->
      error "attribute %s.%s of node %d not evaluated" node.Tree.sym attr
        node.Tree.id

let is_set s node attr = get_opt s node attr <> None

let sets s = s.n_sets

let reads s = s.n_reads

let root_attrs s =
  let sym = Grammar.symbol_of_id s.g s.root.Tree.sym_id in
  Array.to_list sym.Grammar.s_attrs
  |> List.filter_map (fun (a : Grammar.attr_decl) ->
         match get_opt s s.root a.a_name with
         | Some v -> Some (a.a_name, v)
         | None -> None)

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let node_of_pos (node : Tree.t) pos =
  if pos = 0 then node else node.Tree.children.(pos - 1)

let rule_deps s node (rule : Grammar.rule) =
  ignore s;
  Array.to_list rule.Grammar.r_rdeps
  |> List.filter_map (fun (d : Grammar.rref) ->
         if d.Grammar.rr_term then None (* terminal intrinsic: always available *)
         else Some (node_of_pos node d.Grammar.rr_pos, d.Grammar.rr_name))

let rule_target node (rule : Grammar.rule) =
  ( node_of_pos node rule.Grammar.r_rtarget.Grammar.rr_pos,
    rule.Grammar.r_rtarget.Grammar.rr_name )

let get_dep s (node : Tree.t) (d : Grammar.rref) =
  s.n_reads <- s.n_reads + 1;
  if d.Grammar.rr_term then
    Tree.term_attr (node_of_pos node d.Grammar.rr_pos) d.Grammar.rr_name
  else begin
    let dn = node_of_pos node d.Grammar.rr_pos in
    let slot = s.base.(dense_index s dn) + d.Grammar.rr_attr in
    if slot_is_set s slot then s.vals.(slot)
    else
      error "attribute %s.%s of node %d not evaluated" dn.Tree.sym
        d.Grammar.rr_name dn.Tree.id
  end

let apply_rule s node (rule : Grammar.rule) =
  let deps = rule.Grammar.r_rdeps in
  let args = Array.make (Array.length deps) Value.Unit in
  for k = 0 to Array.length deps - 1 do
    args.(k) <- get_dep s node deps.(k)
  done;
  let v = rule.Grammar.r_fn args in
  let t = rule.Grammar.r_rtarget in
  let tnode = node_of_pos node t.Grammar.rr_pos in
  set_slot s tnode t.Grammar.rr_name
    (s.base.(dense_index s tnode) + t.Grammar.rr_attr)
    v;
  v

(* [apply_rule] for the parallel phase: arguments are peeked, and the
   target slot and value go to the caller's [poke]. *)
let poke_rule s node (rule : Grammar.rule) ~poke =
  let deps = rule.Grammar.r_rdeps in
  let args = Array.make (Array.length deps) Value.Unit in
  for k = 0 to Array.length deps - 1 do
    let d = deps.(k) in
    let dn = node_of_pos node d.Grammar.rr_pos in
    args.(k) <-
      (if d.Grammar.rr_term then Tree.term_attr dn d.Grammar.rr_name
       else peek s (s.base.(dense_index s dn) + d.Grammar.rr_attr))
  done;
  let t = rule.Grammar.r_rtarget in
  let tn = node_of_pos node t.Grammar.rr_pos in
  poke (s.base.(dense_index s tn) + t.Grammar.rr_attr) (rule.Grammar.r_fn args)

(* ------------------------------------------------------------------ *)
(* Slot ranges (subtree memoization support)                           *)
(* ------------------------------------------------------------------ *)

(* Dense indices are strictly increasing in node id, so if the first and
   last ids of a preorder range are covered and their dense indices differ
   by exactly [id_count - 1], every id in between is covered too — an O(1)
   contiguity check. Fragment stores whose stubs interrupt the range fail
   it and the caller falls back to ordinary evaluation. *)
let slot_range s ~id_lo ~id_count =
  let i0 = id_lo - s.id_lo and i1 = id_lo + id_count - 1 - s.id_lo in
  if i0 < 0 || i1 >= s.span then None
  else
    let d0 = s.index_of.(i0) and d1 = s.index_of.(i1) in
    if d0 < 0 || d1 < 0 || d1 - d0 <> id_count - 1 then None
    else Some (s.base.(d0), s.base.(d1 + 1))

let snapshot_range s ~lo ~hi =
  let acc = ref [] in
  for slot = hi - 1 downto lo do
    if slot_is_set s slot then acc := (slot - lo, s.vals.(slot)) :: !acc
  done;
  Array.of_list !acc

let replay_range s ~lo entries =
  Array.iter (fun (off, v) -> define_slot s (lo + off) v) entries

(* Occurrence projection (DAG evaluation support): fan one evaluated
   occurrence's slot values out to a structurally identical occurrence at a
   different offset. Only slots set in the source and unset in the
   destination are copied — the destination's already-set slots are its
   inherited context, which the caller has checked is fingerprint-equal to
   the source's. [f] runs once per slot this call defines, so a scheduler
   can release the consumers of projected values. *)
let project_range s ~src_lo ~dst_lo ~len f =
  for i = 0 to len - 1 do
    let src = src_lo + i and dst = dst_lo + i in
    if slot_is_set s src && not (slot_is_set s dst) then begin
      s.vals.(dst) <- s.vals.(src);
      mark_set s dst;
      s.n_sets <- s.n_sets + 1;
      f dst
    end
  done

(* ------------------------------------------------------------------ *)
(* Iteration                                                           *)
(* ------------------------------------------------------------------ *)

(* Covered nodes in dense (preorder) order — the numbering every
   graph-based evaluator shares. *)
let iter_nodes s f =
  for i = 0 to s.n_nodes - 1 do
    f s.nodes.(i)
  done

let iter_instances s f =
  (* [nodes] is preorder = increasing node id: deterministic. *)
  iter_nodes s (fun (node : Tree.t) ->
      match node.Tree.prod with
      | None -> ()
      | Some _ ->
          let sym = Grammar.symbol_of_id s.g node.Tree.sym_id in
          Array.iter (fun a -> f node a) sym.Grammar.s_attrs)

(* every set bit is counted once, in [n_sets] or [n_preset], never cleared *)
let missing s = slot_count s - s.n_sets - s.n_preset

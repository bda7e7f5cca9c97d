(** Attribute-instance store for one (sub)tree.

    Creating a store numbers the tree (preorder) and allocates one dense slot
    per (nonterminal node, attribute) pair: all instances live in one flat
    value array indexed by [base(node) + attribute index], with a bitset
    tracking which slots have been set. Terminal attributes read through to
    the leaf's intrinsic values. Every evaluator in this library fills the
    same store type, which is what makes them directly comparable in tests.

    Slot ids ({!slot_of}, {!slot_count}) are exposed so graph-based
    evaluators can key their dependency structures on the same dense
    instance numbering instead of rebuilding their own. *)

open Pag_core

type t

exception Error of string

(** [create g root] numbers [root] and allocates slots. Optional [root_inh]
    presets inherited attributes of the root (they have no defining rule in
    the subtree). *)
val create : ?root_inh:(string * Value.t) list -> Grammar.t -> Tree.t -> t

(** Like {!create} but keeps the tree's existing (global) node ids — several
    stores over fragments of one shared tree can then coexist, including
    across domains. [stop] marks remote stubs: traversal allocates the stub's
    own slots (its boundary attributes live here too) but does not descend
    into its children. *)
val create_shared :
  ?root_inh:(string * Value.t) list ->
  ?stop:(Tree.t -> bool) ->
  Grammar.t ->
  Tree.t ->
  t

(** Node with the given id, when covered by this store. *)
val find_node : t -> int -> Tree.t option

val grammar : t -> Grammar.t

val root : t -> Tree.t

val node_count : t -> int

(** [set store node attr v]. Semantic rules are pure and every instance has
    exactly one defining rule, so re-setting an instance to an equal value
    (a replayed network message, say) is an idempotent no-op that does not
    count in {!sets}; re-setting it to a {e different} value raises
    [Error]. *)
val set : t -> Tree.t -> string -> Value.t -> unit

val get : t -> Tree.t -> string -> Value.t

val get_opt : t -> Tree.t -> string -> Value.t option

val is_set : t -> Tree.t -> string -> bool

(** Number of [set] calls so far. *)
val sets : t -> int

(** Number of attribute reads so far (rule-argument fetches, slot reads,
    [get]/[get_opt] lookups) — the "attribute store reads" telemetry
    counter. *)
val reads : t -> int

(** Attributes of the root, in declaration order, with their values;
    unevaluated ones are omitted. *)
val root_attrs : t -> (string * Value.t) list

(** Count of instances that are still unevaluated (terminal intrinsics do
    not count; preset root attributes do not count as missing), in O(1);
    a slot written with {!poke} is missing until {!commit_slot}. *)
val missing : t -> int

(** [apply_rule store node rule] evaluates one semantic rule of [node]'s
    production: reads the dependency values, applies the function, stores the
    target. Returns the computed value. *)
val apply_rule : t -> Tree.t -> Grammar.rule -> Value.t

(** Dependency / target instances of a rule at a node, as (node, attr)
    pairs. Terminal-attribute dependencies are excluded (always available). *)
val rule_deps : t -> Tree.t -> Grammar.rule -> (Tree.t * string) list

val rule_target : Tree.t -> Grammar.rule -> Tree.t * string

(** Iterate over every (node, attr_decl) instance of nonterminal nodes. *)
val iter_instances : t -> (Tree.t -> Grammar.attr_decl -> unit) -> unit

(** {1 Dense instance ids}

    Every (nonterminal node, attribute) instance has a slot id in
    [0 .. slot_count - 1]. Terminal leaves have no slots. *)

val slot_count : t -> int

(** [slot_of store node ~attr_idx] — the slot id of [node]'s attribute with
    index [attr_idx] in its symbol's declaration array. Raises [Error] when
    [node] is not covered. *)
val slot_of : t -> Tree.t -> attr_idx:int -> int

(** [slot_owner store slot] — the (node, attribute index) instance a slot
    id belongs to. O(log nodes); post-run analyses ({!Pag_eval.Causal})
    use it to translate recorded slot ids into global (node id, attribute)
    keys. *)
val slot_owner : t -> int -> Tree.t * int

(** Dense (preorder) index of a covered node: slots of the node are
    [base(dense_index) ..]; {!Pag_eval.Engine} keys its per-node rule
    ranges on the same index. Raises [Error] when [node] is not covered. *)
val dense_index : t -> Tree.t -> int

(** Iterate covered nodes in dense (preorder) order. *)
val iter_nodes : t -> (Tree.t -> unit) -> unit

val slot_is_set : t -> int -> bool

(** Value stored in a slot. Meaningful only when {!slot_is_set}; reading an
    unset slot returns the initialisation value without error. *)
val slot_value : t -> int -> Value.t

(** Set a slot by id. Equal re-sets are idempotent no-ops; a conflicting
    re-set raises [Error] naming the owning node and attribute. *)
val define_slot : t -> int -> Value.t -> unit

(** {2 Parallel-phase primitives}

    The work-stealing evaluator ({!Pag_eval.Engine.run_tasks}) writes
    slots from several domains at once. The set-bitset is byte-granular —
    marking bits concurrently would be a read-modify-write race — so the
    parallel phase uses these unchecked primitives and tracks readiness
    with its own atomic dependency counters, then restores the store's
    invariants sequentially after the join. *)

(** Write a slot value without marking it set and without counting the
    write. The slot reads as unset until {!commit_slot}. *)
val poke : t -> int -> Value.t -> unit

(** Read a slot the caller has proven ready, without counting the read. *)
val peek : t -> int -> Value.t

(** Mark a poked slot as set (idempotent; counts in {!sets} once). Must be
    called sequentially, after the parallel phase has joined. *)
val commit_slot : t -> int -> unit

(** [poke_rule store node rule ~poke] is {!apply_rule} for the parallel
    phase: it reads the arguments with {!peek} and hands the target slot
    and the computed value to [poke] instead of setting the slot. *)
val poke_rule :
  t -> Tree.t -> Grammar.rule -> poke:(int -> Value.t -> unit) -> unit

(** Overwrite a slot unconditionally — the change-propagation primitive of
    incremental re-evaluation. Returns [true] when the stored value
    actually changed (undecidable equality counts as changed); that answer
    is the equality cutoff that stops propagation early. *)
val redefine_slot : t -> int -> Value.t -> bool

(** [append_subtree store sub] extends the store with slots for the nodes
    of a replacement subtree whose preorder ids start exactly where the
    store's covered id range ends ({!Pag_core.Tree.number_from}). Existing
    slot ids, values and bits are preserved; the detached subtree's slots
    become dead weight until the next full rebuild. Amortized O(size of
    [sub]): the backing arrays grow geometrically, so their capacity stays
    within 2x the logical size ({!node_count}, {!slot_count} and the id
    span, which every query reads), and a rebuild — a fresh {!create} —
    compacts it. *)
val append_subtree : t -> Tree.t -> unit

(** {1 Slot ranges}

    Preorder node ids make a subtree a contiguous id range, and a store
    covering that whole range maps it to a contiguous slot range — which
    lets subtree memoization snapshot one occurrence's attributes and
    replay them at another occurrence of the same shape by pure offset
    arithmetic. *)

(** [slot_range store ~id_lo ~id_count] — [Some (lo, hi)] (slots
    [lo .. hi-1]) when all node ids [id_lo .. id_lo + id_count - 1] are
    covered contiguously; [None] otherwise (e.g. a fragment store whose
    stub interrupts the range). O(1). *)
val slot_range : t -> id_lo:int -> id_count:int -> (int * int) option

(** All set slots in [lo .. hi-1] as (offset from [lo], value) pairs. *)
val snapshot_range : t -> lo:int -> hi:int -> (int * Value.t) array

(** Define each snapshot entry at [lo] + offset. Entries equal to already
    set slots are idempotent no-ops, like any re-{!set}. *)
val replay_range : t -> lo:int -> (int * Value.t) array -> unit

(** {1 Occurrence projection (DAG evaluation support)}

    [project_range s ~src_lo ~dst_lo ~len f] copies every slot value set in
    [src_lo .. src_lo+len) onto the corresponding offset of
    [dst_lo .. dst_lo+len), skipping destination slots that are already set
    (the destination occurrence's inherited context — the caller guarantees
    it is fingerprint-equal to the source's). Calls [f dst_slot] once per
    newly defined slot, in ascending order, so the scheduler can release
    consumers. This is how the DAG engine fans one class evaluation out to
    its other occurrences without firing their rules. *)
val project_range :
  t -> src_lo:int -> dst_lo:int -> len:int -> (int -> unit) -> unit

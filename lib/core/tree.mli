(** Parse trees for an attribute grammar.

    Interior nodes are production applications; leaves are terminal
    occurrences carrying the intrinsic attribute values computed by the
    scanner. Construction validates arity and symbol agreement against the
    grammar. Node identifiers are assigned by {!number} (preorder) and are
    what evaluators key their attribute-instance stores on. *)

type t = {
  mutable id : int;
  sym : string;
  sym_id : int;  (** {!Grammar.sym_id} of [sym]: O(1) symbol-table access *)
  prod : Grammar.production option;  (** [None] iff terminal leaf *)
  children : t array;
  term_attrs : (string * Value.t) list;
}

exception Error of string

(** A production resolved against its grammar: its node symbol and the
    {!Grammar.sym_id} of each right-hand symbol. Resolve once, then build
    any number of nodes without a name lookup; {!node} does both per
    call. *)
type prod

(** Raises {!Grammar.Error} on an unknown production name. *)
val resolve : Grammar.t -> string -> prod

(** [build r children] builds an interior node of [r]'s production; it is
    the one place where children are validated. Children must match the
    right-hand side left to right, compared by [sym_id]. The array becomes
    the node's [children]. *)
val build : prod -> t array -> t

(** [node g prod_name children] = [build (resolve g prod_name)]. *)
val node : Grammar.t -> string -> t list -> t

(** A terminal resolved against its grammar, with the names of the
    attributes its leaves carry; {!leaf} resolves and builds per call. *)
type terminal

(** [terminal g term names] checks once that [term] is a terminal and that
    [names] covers its intrinsic attributes and names no other. *)
val terminal : Grammar.t -> string -> string list -> terminal

(** [leaf_of tm values] builds a leaf whose attributes pair [tm]'s names
    with [values], in order. Values are not copied: leaves built from one
    value share it, while each leaf is its own record with its own [id]. *)
val leaf_of : terminal -> Value.t list -> t

(** [leaf g term attrs] builds a terminal leaf; all of the terminal's
    intrinsic attributes must be supplied. *)
val leaf : Grammar.t -> string -> (string * Value.t) list -> t

(** Assign preorder ids starting at 0; returns the number of nodes. *)
val number : t -> int

(** Node count. *)
val size : t -> int

(** Estimated size in bytes of the linearized network representation, the
    quantity the paper's minimum-split-size is compared against. *)
val byte_size : t -> int

val iter : (t -> unit) -> t -> unit

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a

(** Intrinsic value of a terminal attribute. Raises [Error] on non-leaves. *)
val term_attr : t -> string -> Value.t

(** [check g t] re-validates an externally constructed tree (e.g. one
    rebuilt from a network message) against the grammar. *)
val check : Grammar.t -> t -> unit

(** {1 Edits}

    Support for edit-driven recompilation ({!Pag_eval.Incr}): a source edit
    becomes a subtree replacement on the previous parse tree, found by
    {!diff} and applied in place by {!replace_subtree} so every untouched
    node keeps its physical identity and preorder id. *)

(** Node with the given preorder id, if present. O(size). *)
val find : t -> int -> t option

(** Assign preorder ids starting at [start]; returns the next unused id.
    Used to number a replacement subtree past the host tree's ids. *)
val number_from : t -> int -> int

(** [replace_subtree g ~parent ~pos repl] swaps child [pos] of [parent] for
    [repl] in place and returns the detached subtree. The replacement must
    carry the symbol the parent's production requires at that position and
    is re-validated with {!check}. Insertions and deletions are expressed
    as replacements of the enclosing list-spine node (productions have
    fixed arity). *)
val replace_subtree : Grammar.t -> parent:t -> pos:int -> t -> t

type delta =
  | Equal  (** the trees are structurally equal *)
  | Root  (** they differ at the root: no enclosing replacement site *)
  | Subtree of { parent : t; pos : int; repl : t }
      (** [parent] (a node of the {e first} tree) has exactly one differing
          child at [pos]; grafting [repl] (a node of the {e second} tree)
          there makes the trees equal *)

(** Minimal single-subtree delta between two trees with the same root
    symbol. Raises [Error] when the root symbols differ. One pass: every
    node pair is visited at most once, and a node's walk stops at its
    second differing child. The trees are structurally equal (same
    productions, same shape, equal terminal attribute values; ids
    ignored) iff the result is [Equal]. *)
val diff : t -> t -> delta

(** {1 Structural sharing}

    {!sharing} computes the DAG view of a tree: every node is assigned a
    class id such that two nodes share a class {e iff} their subtrees are
    structurally identical (same productions, same shape, equal terminal
    attribute values). Classes are exact — they are found by bottom-up
    shape interning, with terminal attributes canonicalized through
    {!Value.intern} so key comparison is identity-based — which is what
    lets an evaluator reuse one occurrence's synthesized attributes for
    another occurrence of the same class without changing semantics
    (provided the inherited context matches; that check is the memo key's
    other half and lives in the evaluators). *)

type sharing = {
  sh_classes : int;  (** number of distinct subtree classes *)
  sh_class : int array;  (** node id -> class id *)
  sh_size : int array;  (** class id -> nodes in one subtree of the class *)
  sh_rep : int array;
      (** class id -> node id of the first (preorder) occurrence *)
  sh_occurs : int array;  (** class id -> number of occurrences *)
}

(** Requires {!number} to have assigned preorder ids (so a subtree with
    root id [i] and class [c] covers exactly ids [i .. i + sh_size.(c) - 1],
    the contiguity that slot-range snapshot/replay relies on). *)
val sharing : t -> sharing

(** Canonical DAG form: {!sharing} plus per-class child edges and the
    occurrence map as a CSR partition. This is the evaluation substrate of
    the DAG engine ({!Pag_eval.Dag}): one vertex per class, edges to child
    classes, and for each class the ascending list of tree occurrences.

    Invariants (property-tested in [test_dag]):
    - the occurrence lists partition the node ids: every id appears in
      exactly one class's list;
    - [dg_occ.(dg_occ_off.(c))] = [sh_rep.(c)] — the first (lowest-id)
      occurrence leads its class;
    - occurrences of one class are pairwise disjoint subtrees (equal sizes
      force it), so projecting one occurrence's slot range onto another is
      an offset translation. *)
type dag = {
  dg_sharing : sharing;
  dg_kids : int array array;  (** class id -> child class ids *)
  dg_occ_off : int array;  (** class id -> offset into [dg_occ]; length classes+1 *)
  dg_occ : int array;  (** occurrence node ids, grouped by class, ascending *)
}

(** Requires {!number}, like {!sharing}. *)
val dag : t -> dag

val pp : Format.formatter -> t -> unit

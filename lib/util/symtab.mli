(** Applicative symbol tables.

    Implements the paper's symbol-table representation (section 4.3): a
    persistent binary search tree keyed by the hash index of the identifier,
    so that keys are essentially uniformly distributed and the tree stays
    balanced without any rebalancing machinery. Updates are applicative
    ([add] returns a new table sharing structure with the old one), which is
    what makes symbol tables safe to propagate between evaluators running in
    parallel.

    Identifiers whose hash indices collide are kept in a per-node bucket, so
    lookups are always exact. Adding a binding for an existing identifier
    shadows it in the new table only. *)

type 'a t

val empty : 'a t

(** [add tab name v] is the paper's [st_add]: a table identical to [tab]
    except that [name] is bound to [v]. *)
val add : 'a t -> string -> 'a -> 'a t

(** [lookup tab name] is the paper's [st_lookup]. *)
val lookup : 'a t -> string -> 'a option

val mem : 'a t -> string -> bool

(** Number of bindings (shadowed bindings count once). *)
val cardinal : 'a t -> int

(** Height of the BST; the empty table has height 0. *)
val height : 'a t -> int

val of_list : (string * 'a) list -> 'a t

(** All bindings in unspecified order. *)
val to_list : 'a t -> (string * 'a) list

val fold : (string -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** [equal veq a b] holds when both tables bind the same set of identifiers
    to values equal under [veq]. *)
val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool

(** The hash index used as BST key; exposed for tests and benchmarks. *)
val hash_of_name : string -> int

(** {1 Hash-consing}

    An {!interner} is a {!Hcons} arena of BST nodes. {!intern}
    canonicalizes a table bottom-up, one node at a time, canonicalizing
    each bound value through [intern_value] first, so nodes compare their
    children and values with [==]. Interning preserves the BST shape:
    tables built by the same sequence of [add]s share one representation;
    shape-distinct but binding-equal tables merely remain {!equal}. *)

type 'a interner

val interner : unit -> 'a interner

(** The canonical representative of [tab] and its structural hash.
    [intern_value] returns a bound value's canonical representative and
    its hash. O(1) per previously seen node. *)
val intern :
  'a interner -> intern_value:('a -> 'a * int) -> 'a t -> 'a t * int

(** Directed graphs over nodes [0 .. n-1].

    Kastens' visit-sequence construction orders each production's action
    graph with one, and the reference IDP/IDS closure that test_kastens
    checks the plan against closes graphs transitively and searches them
    for cycles. The analysis's own IDP/IDS fixpoint runs on bit rows, and
    the evaluators keep flat dependency tables ({!Pag_eval.Engine}), so
    neither builds a graph here. Graphs are immutable once built;
    duplicate edges are coalesced. *)

type t

(** [make n edges] builds a graph with nodes [0..n-1]. Raises
    [Invalid_argument] if an endpoint is out of range. *)
val make : int -> (int * int) list -> t

val node_count : t -> int

val edge_count : t -> int

(** Successors of a node, each listed once, in increasing order. *)
val succs : t -> int -> int list

val preds : t -> int -> int list

val mem_edge : t -> int -> int -> bool

val edges : t -> (int * int) list

val add_edges : t -> (int * int) list -> t

(** Kahn's algorithm; [None] when the graph has a cycle. Among ready nodes,
    smaller indices come first, so the order is deterministic. *)
val topo_sort : t -> int list option

val has_cycle : t -> bool

(** Some cycle as a node list [v1; ...; vk] with edges v1->v2->...->vk->v1,
    when one exists. *)
val find_cycle : t -> int list option

(** Reflexive-free transitive closure. *)
val transitive_closure : t -> t

(** Strongly connected components in reverse topological order (Tarjan). *)
val sccs : t -> int list list

val pp : Format.formatter -> t -> unit

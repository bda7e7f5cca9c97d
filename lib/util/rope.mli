(** Ropes: strings as binary trees with the text in the leaves.

    This is the string representation of Boehm & Zwaenepoel (1987), section
    4.3, which makes building a large code attribute from many fragments
    cheap, and it is the data type whose conversion function is replaced to
    implement the string librarian. The paper concatenates in O(1) by
    making one node; here every rope is height-balanced at all times
    (the children of a node differ in height by at most 2, as in OCaml's
    [Set]), so a rope of n leaves is O(log n) deep however it was built and
    the recursive walks of interning and DAG pricing stay shallow on long
    one-sided code chains. {!concat} keeps the balance with an AVL join in
    O(log n), copying no text beyond merging two short leaves at the seam.
    Traversals are stack-safe. *)

type t

val empty : t

val of_string : string -> t

(** [concat a b] is the rope denoting the text of [a] followed by the text of
    [b]. Operands whose heights differ by at most 2 become one node;
    otherwise the join descends the inner spine of the taller operand and
    rotates on the way back up, so the result is balanced and the cost is
    O(height difference), at most O(log n), nodes. No text is copied except
    where the leaves on either side of the seam are short enough to merge
    into one. *)
val concat : t -> t -> t

(** [concat_list rs] concatenates left to right, producing a balanced rope. *)
val concat_list : t list -> t

val is_empty : t -> bool

(** Number of characters. O(1). *)
val length : t -> int

(** Height of the underlying tree; a leaf has depth 0. *)
val depth : t -> int

(** Number of leaves holding at least one character. *)
val leaf_count : t -> int

(** Flatten to a string. O(n), stack-safe. *)
val to_string : t -> string

(** [iter_chunks f r] applies [f] to every non-empty leaf, left to right. *)
val iter_chunks : (string -> unit) -> t -> unit

val fold_chunks : ('a -> string -> 'a) -> 'a -> t -> 'a

(** Content equality, without flattening either rope. Physically equal
    ropes (e.g. interned ones) short-circuit in O(1), two leaves compare
    with [String.equal], and otherwise it is {!compare}'s walk. *)
val equal : t -> t -> bool

(** {1 Hash-consing}

    {!intern} returns the canonical representative of a rope from a weak
    arena ({!Hcons}) shared by every domain: leaves are shared by content,
    interior nodes by the identity of their canonical children. The
    canonical form preserves the rope's shape, so ropes built by the same
    sequence of operations — identical code attributes of identical
    subtrees, say — become physically equal, while content-equal ropes of
    different shapes merely stay structurally equal. *)

val intern : t -> t

(** Structural hash, consistent with shape-preserving interning (physically
    equal ropes hash equally). O(1) on interned ropes; interns first
    otherwise. *)
val hash : t -> int

(** Wire size of the rope encoded as a DAG between two arena-aware peers:
    each distinct node of the canonical form is counted once and later
    occurrences cost a fixed backreference (taken only when cheaper than
    the repeated text, so a sharing-free rope costs exactly {!length}).
    O(distinct nodes), not O({!length}). *)
val dag_size : t -> int

(** Lexicographic content comparison, the byte order of [String.compare],
    without flattening either rope. Both ropes' leaves are walked in
    lockstep: a range that both sit on at the same offset of one physical
    string (ropes built from a common value share leaves) is equal without
    a look, and other ranges compare 8 bytes at a time. *)
val compare : t -> t -> int

(** [output oc r] writes the text of [r] to [oc] chunk by chunk. *)
val output : out_channel -> t -> unit

val pp : Format.formatter -> t -> unit

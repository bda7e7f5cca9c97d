(** Parse-tree decomposition (paper, sections 2.1 and 2.5, figure 7).

    The parser divides the syntax tree into up to [machines] fragments, each
    shipped to one evaluator. Fragments may only be rooted at nonterminals
    the grammar declares splittable, and only when the subtree's linearized
    representation reaches the declared minimum size scaled by the runtime
    [granularity] argument (the paper's knob for experimenting with
    decomposition granularity).

    The algorithm repeatedly halves the largest fragment: among the
    candidate nodes inside it, the one whose residual subtree is closest to
    half the fragment's residual size is cut off. This nests naturally
    (figure 7 shows a fragment cut out of another fragment) and yields
    fragments of roughly equal size — the paper's stated reason the 5-machine
    decomposition performs best. *)

open Pag_core

type fragment = {
  fr_id : int;  (** 0 is the root fragment *)
  fr_root : Tree.t;
  fr_parent : int option;  (** fragment holding the stub *)
  fr_bytes : int;  (** residual linearized size (cuts excluded) *)
}

type plan

(** [decompose g tree ~machines ~granularity]. Node ids are kept as they
    are — gapped or out of preorder, as edits leave them — unless they are
    negative or duplicate, in which case the tree is numbered in preorder
    first. Time is linear in the tree for a fixed fragment count.
    [machines] ≥ 1; granularity > 0 scales every split symbol's minimum
    size. *)
val decompose :
  Grammar.t -> Tree.t -> machines:int -> granularity:float -> plan

val fragments : plan -> fragment array

(** Fragment owning a cut whose root is the given node id, if any. *)
val fragment_of_cut_node : plan -> int -> int option

(** [owner_of plan node] — the fragment whose machine evaluates [node]:
    the deepest fragment physically containing it (search stops at cut
    stubs, which the next fragment owns). Comparison is physical, so
    replacement subtrees grafted by an edit session are found under the
    fragment they were grafted into; [None] when the node is not in the
    plan's tree at all. *)
val owner_of : plan -> Tree.t -> int option

(** Node ids of the stubs cut out of the given fragment. *)
val cuts_of : plan -> int -> int list

(** The same stubs as tree nodes, in the same order: each is the root of
    the fragment {!fragment_of_cut_node} names. *)
val cut_nodes : plan -> int -> Tree.t list

(** Fragment count (≤ machines). *)
val count : plan -> int

(** Ill-formed wire bytes (truncated input, unknown tag, backreference to
    an unshipped class). *)
exception Malformed of string

(** [encode ?sharing plan f] — the fragment's real wire representation.
    Nodes travel as production/symbol names plus terminal-attribute
    literals (both ends hold the grammar); cut children travel as stubs.
    With [sharing], the first occurrence of a repeated subtree shipped to
    this destination carries a definition marker binding its shape-class
    id, and every later occurrence is a 5-byte backreference — each class
    body crosses the wire once per machine, not once per occurrence
    (occurrences whose id range contains a cut are excluded: structurally
    different on this machine; single-node classes are reshipped, a
    reference would cost as much). The shared encoding is never longer
    than the plain one. *)
val encode : ?sharing:Tree.sharing -> plan -> fragment -> string

(** [wire_size ?sharing plan f] = [String.length (encode ?sharing plan f)],
    counted by the same walk without building the string. *)
val wire_size : ?sharing:Tree.sharing -> plan -> fragment -> int

(** [decode g bytes] rebuilds the shipped fragment: backreferences expand
    to fresh copies of the class body, cut stubs become childless nodes of
    the cut symbol carrying a ["cut"] attribute with the stub's node id.
    Raises {!Malformed} on ill-formed input. *)
val decode : Grammar.t -> string -> Tree.t

(** [dag_bytes plan sharing f] = [wire_size ~sharing plan f]: the priced
    and the shipped representation are the same bytes. *)
val dag_bytes : plan -> Tree.sharing -> fragment -> int

(** Render the decomposition as an indented tree with sizes (figure 7). *)
val pp : Format.formatter -> plan -> unit

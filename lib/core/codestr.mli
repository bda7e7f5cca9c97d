(** Code strings that may contain remote fragments — the data type behind the
    paper's {b string librarian} (section 4.3).

    A code attribute is a rope-like tree whose leaves are either local text
    or references to fragments held by the string librarian process. The
    semantic rules of a grammar only ever concatenate ({!concat} makes one
    node, or joins two local texts with {!Rope.concat} in O(log n)), so
    switching between naive and librarian-based result propagation needs no
    grammar change: the boundary conversion function either flattens the
    whole text ({!to_rope}) or ships the text to the librarian and passes a
    small descriptor upward ({!extract_texts}). The root's descriptor is
    finally {!resolve}d by the librarian. *)

open Pag_util

type t

(** Registered as a {!Value.ext} payload under this constructor. *)
type Value.ext += V of t

val empty : t

val of_string : string -> t

val of_rope : Rope.t -> t

val concat : t -> t -> t

val concat_list : t list -> t

(** Total length in characters of the denoted text (local + remote). *)
val length : t -> int

(** Number of remote fragment references. *)
val frag_count : t -> int

(** Bytes this value occupies on the wire: local text counts in full, a
    fragment reference counts as a small fixed descriptor. *)
val wire_size : t -> int

exception Unresolved of int

(** Flatten to a rope. Raises [Unresolved id] if a fragment reference
    remains. *)
val to_rope : t -> Rope.t

(** [extract_texts ~alloc t] replaces every maximal local-text subtree by a
    fresh fragment reference; returns the descriptor and the extracted
    fragments. This is what an evaluator does before sending its final code
    attribute: fragments go to the librarian, the descriptor to the parent. *)
val extract_texts : alloc:(unit -> int) -> t -> t * (int * Rope.t) list

(** [resolve ~lookup t] substitutes fragment texts back (librarian side). *)
val resolve : lookup:(int -> Rope.t) -> t -> Rope.t

(** {1 Value embedding} *)

val value : t -> Value.t

val of_value : ctx:string -> Value.t -> t

val pp : Format.formatter -> t -> unit

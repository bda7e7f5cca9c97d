(** Universal attribute values.

    Semantic rules are pure functions over this type. The closed cases cover
    what the paper's Pascal grammar needs (integers, rope strings for code
    attributes, applicative symbol tables, lists and pairs for aggregates);
    the extensible [Ext] case lets a client grammar add its own payloads
    (e.g. Pascal type descriptors) by registering operations once.

    [byte_size] models the paper's flattening functions ([st_put]/[st_get]):
    it is the length of the contiguous network representation of a value and
    drives simulated message costs. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of Pag_util.Rope.t
  | List of t list
  | Pair of t * t
  | Tab of t Pag_util.Symtab.t
  | Ext of ext

and ext = ..

(** Operations for one family of [Ext] payloads. Each function returns
    [None]/[false] when the payload is not from this family. *)
type ext_ops = {
  ext_name : string;
  ext_equal : ext -> ext -> bool option;
  ext_hash : ext -> int option;
      (** Must be consistent with [ext_equal]: payloads it deems equal must
          hash equally. Inconsistency only costs missed sharing under
          {!intern}, never wrong results. *)
  ext_size : ext -> int option;
  ext_pp : Format.formatter -> ext -> bool;
}

val register_ext : ext_ops -> unit

exception Type_error of string

(** Structural equality; symbol tables compare as binding sets, ropes by
    content. Raises [Type_error] on an unregistered [Ext] payload. *)
val equal : t -> t -> bool

(** Size in bytes of the flattened representation. *)
val byte_size : t -> int

(** Size in bytes of the DAG-encoded representation exchanged between two
    arena-aware peers (the intern librarian): each distinct canonical
    subvalue counted once, repeats cost a fixed backreference when that is
    cheaper. Never larger than {!byte_size}; equal when the value has no
    internal sharing. Interns the value. *)
val dag_byte_size : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** Coercions, raising [Type_error] with the given context on mismatch. *)

val as_int : ctx:string -> t -> int

val as_bool : ctx:string -> t -> bool

val as_str : ctx:string -> t -> Pag_util.Rope.t

val as_list : ctx:string -> t -> t list

val as_pair : ctx:string -> t -> t * t

val as_tab : ctx:string -> t -> t Pag_util.Symtab.t

(** Convenience constructors. *)

val str : string -> t

val of_rope : Pag_util.Rope.t -> t

(** {1 Hash-consing}

    {!intern} returns the canonical representative of a value from a weak
    arena ({!Pag_util.Hcons}) shared by every domain, built bottom-up so
    that structurally identical values (under a slightly finer relation
    than {!equal}: shape-preserving for ropes and symbol tables) become
    physically equal, whichever domain interns them. Canonical values
    support O(1) equality ([==]) and O(1) {!hash} — the keys of the
    evaluators' subtree memo tables, of the DAG runtime's fingerprints and
    of the intern librarian's wire cache. Interning never changes what
    {!equal} observes, and the arena keeps no value alive. *)

val intern : t -> t

(** Structural hash consistent with {!intern} (physically equal canonical
    values hash equally); not consistent with {!equal}, which is coarser.
    O(1) on interned values; interns first otherwise. *)
val hash : t -> int

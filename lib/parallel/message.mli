(** Messages exchanged by the parallel compiler's processes.

    Machine ids: 0 is the parser/coordinator, 1..k the evaluators, k+1 the
    string librarian. Attribute values cross fragment boundaries as
    {!Attr} messages keyed by the global node id of the boundary node (a
    fragment root); their wire size is the flattened representation computed
    by the conversion functions ({!Pag_core.Value.byte_size}). *)

open Pag_core
open Pag_util

type t =
  | Subtree of {
      frag : int;  (** fragment id being assigned *)
      bytes : int;  (** linearized size, paid on the wire *)
      uid_base : int;  (** base value for unique-identifier generation *)
    }
  | Edit of {
      node : int;  (** global id of the edited subtree's parent *)
      bytes : int;  (** linearized size of the replacement subtree *)
    }
      (** coordinator -> owning evaluator: re-parse notification of an edit
          session; the receiver rebuilds the replacement subtree and
          re-evaluates incrementally *)
  | Attr of {
      node : int;  (** global id of the boundary node *)
      attr : string;
      value : Value.t;
    }
  | Code_frag of { id : int; text : Rope.t }  (** evaluator -> librarian *)
  | Resolve of { value : Value.t }  (** coordinator -> librarian *)
  | Final of { text : Rope.t }  (** librarian -> coordinator *)
  | Stop
  | Data of { src : int; seq : int; payload : t }
      (** reliable-delivery envelope: [(src, seq)] identifies the message
          for acknowledgement and duplicate suppression ({!Reliable}) *)
  | Ack of { src : int; seq : int }
      (** acknowledges {!Data} [seq]; [src] is the acknowledging machine *)
  | Ping  (** liveness probe; acked by the reliable layer, never delivered *)
  | Attr_bind of {
      src : int;
      node : int;
      attr : string;
      iid : int;
      value : Value.t;
    }
      (** {!Attr} carrying a payload the sender has not yet interned at the
          receiver: binds [iid] (sender-scoped) to [value] ({!Intern}) *)
  | Attr_ref of { src : int; node : int; attr : string; iid : int; hash : int }
      (** {!Attr} whose payload was already bound: only [(iid, hash)] travels *)
  | Code_frag_bind of { src : int; id : int; iid : int; text : Rope.t }
  | Code_frag_ref of { src : int; id : int; iid : int; hash : int }
  | Need_intern of { src : int; iid : int }
      (** receiver's cache miss on a reference: ask [src]'s sender to
          retransmit the bound payload *)
  | Backfill of { src : int; iid : int; value : Value.t }
      (** answer to {!Need_intern}: the payload bound to [iid] at [src] *)

(** Wire size in bytes (header + payload). A [Data] envelope adds
    {!seq_bytes} over its payload; intern binds add {!iid_bytes}, intern
    references cost a fixed [2 * iid_bytes] instead of the payload. *)
val size : t -> int

val header_bytes : int

val seq_bytes : int

val iid_bytes : int

val pp : Format.formatter -> t -> unit

(** Short trace label: the attribute name for attribute traffic, the
    payload's label for a [Data] envelope. *)
val label : t -> string

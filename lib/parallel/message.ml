open Pag_core
open Pag_util

type t =
  | Subtree of { frag : int; bytes : int; uid_base : int }
  | Edit of { node : int; bytes : int }
  | Attr of { node : int; attr : string; value : Value.t }
  | Code_frag of { id : int; text : Rope.t }
  | Resolve of { value : Value.t }
  | Final of { text : Rope.t }
  | Stop
  | Data of { src : int; seq : int; payload : t }
  | Ack of { src : int; seq : int }
  | Ping
  (* Intern-librarian protocol (the generalized string librarian): the
     first transmission of a payload to a peer binds it to a sender-scoped
     intern id; later transmissions of an equal payload to the same peer
     send only the (id, hash) reference. [src] is explicit because these
     cross the reliable layer inside [Data] envelopes, whose origin the
     receiving wrapper no longer sees. *)
  | Attr_bind of { src : int; node : int; attr : string; iid : int; value : Value.t }
  | Attr_ref of { src : int; node : int; attr : string; iid : int; hash : int }
  | Code_frag_bind of { src : int; id : int; iid : int; text : Rope.t }
  | Code_frag_ref of { src : int; id : int; iid : int; hash : int }
  | Need_intern of { src : int; iid : int }
  | Backfill of { src : int; iid : int; value : Value.t }

let header_bytes = 16

let seq_bytes = 8

(* An intern id on the wire; a reference also carries the 8-byte hash. *)
let iid_bytes = 8

let rec size = function
  | Subtree s -> header_bytes + s.bytes
  | Edit e -> header_bytes + e.bytes
  | Attr a -> header_bytes + String.length a.attr + Value.byte_size a.value
  | Code_frag c -> header_bytes + Rope.length c.text
  | Resolve r -> header_bytes + Value.byte_size r.value
  | Final f -> header_bytes + Rope.length f.text
  | Stop -> header_bytes
  | Data d -> seq_bytes + size d.payload
  | Ack _ -> header_bytes
  | Ping -> header_bytes
  (* Binds travel between arena-aware peers, so their payloads ship
     DAG-encoded: repeated subvalues cost a backreference, not their text
     (dag_byte_size = byte_size when the value has no sharing). *)
  | Attr_bind a ->
      header_bytes + String.length a.attr
      + Value.dag_byte_size a.value
      + iid_bytes
  | Attr_ref a -> header_bytes + String.length a.attr + (2 * iid_bytes)
  | Code_frag_bind c -> header_bytes + Rope.dag_size c.text + iid_bytes
  | Code_frag_ref _ -> header_bytes + (2 * iid_bytes)
  | Need_intern _ -> header_bytes + iid_bytes
  | Backfill b -> header_bytes + Value.dag_byte_size b.value + iid_bytes

let rec pp fmt = function
  | Subtree s -> Format.fprintf fmt "Subtree(frag=%d,%dB)" s.frag s.bytes
  | Edit e -> Format.fprintf fmt "Edit(node=%d,%dB)" e.node e.bytes
  | Attr a -> Format.fprintf fmt "Attr(node=%d,%s=%a)" a.node a.attr Value.pp a.value
  | Code_frag c -> Format.fprintf fmt "CodeFrag(%d,%dB)" c.id (Rope.length c.text)
  | Resolve _ -> Format.fprintf fmt "Resolve"
  | Final f -> Format.fprintf fmt "Final(%dB)" (Rope.length f.text)
  | Stop -> Format.fprintf fmt "Stop"
  | Data d -> Format.fprintf fmt "Data(src=%d,seq=%d,%a)" d.src d.seq pp d.payload
  | Ack a -> Format.fprintf fmt "Ack(src=%d,seq=%d)" a.src a.seq
  | Ping -> Format.fprintf fmt "Ping"
  | Attr_bind a ->
      Format.fprintf fmt "AttrBind(src=%d,node=%d,%s,iid=%d)" a.src a.node
        a.attr a.iid
  | Attr_ref a ->
      Format.fprintf fmt "AttrRef(src=%d,node=%d,%s,iid=%d)" a.src a.node
        a.attr a.iid
  | Code_frag_bind c ->
      Format.fprintf fmt "CodeFragBind(src=%d,%d,iid=%d,%dB)" c.src c.id c.iid
        (Rope.length c.text)
  | Code_frag_ref c ->
      Format.fprintf fmt "CodeFragRef(src=%d,%d,iid=%d)" c.src c.id c.iid
  | Need_intern n -> Format.fprintf fmt "NeedIntern(src=%d,iid=%d)" n.src n.iid
  | Backfill b -> Format.fprintf fmt "Backfill(src=%d,iid=%d)" b.src b.iid

let rec label = function
  | Subtree s -> Printf.sprintf "subtree %d" s.frag
  | Edit e -> Printf.sprintf "edit %d" e.node
  | Attr a -> a.attr
  | Code_frag _ -> "code fragment"
  | Resolve _ -> "resolve"
  | Final _ -> "final code"
  | Stop -> "stop"
  | Data d -> label d.payload
  | Ack _ -> "ack"
  | Ping -> "ping"
  | Attr_bind a -> a.attr ^ " (bind)"
  | Attr_ref a -> a.attr ^ " (ref)"
  | Code_frag_bind _ -> "code fragment (bind)"
  | Code_frag_ref _ -> "code fragment (ref)"
  | Need_intern _ -> "need intern"
  | Backfill _ -> "intern backfill"

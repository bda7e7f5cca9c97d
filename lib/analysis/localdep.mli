(** Attribute occurrences of a production.

    An occurrence is an (attribute, position) pair within one production:
    position 0 is the left-hand side, positions 1..arity the right-hand-side
    symbols. Occurrences are numbered densely so that dependency relations
    over them are dense graphs — the production's local "DP" graph, from
    which Kastens' static analysis starts. *)

open Pag_core

type t

val of_production : Grammar.t -> Grammar.production -> t

val production : t -> Grammar.production

(** Total number of occurrences in the production. *)
val count : t -> int

(** Dense index of the occurrence at [pos] with the symbol-local attribute
    index [idx]. *)
val occ : t -> pos:int -> idx:int -> int

(** Symbol at a position (0 = LHS). *)
val sym_at : t -> int -> Grammar.symbol

(** Human-readable name of an occurrence, e.g. "$1.stab". *)
val occ_name : t -> int -> string

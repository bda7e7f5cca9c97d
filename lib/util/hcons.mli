(** Weak-bucket interning arenas (hash-consing).

    An arena maps every value to a canonical representative: [intern a v]
    returns the first value equal to [v] that was ever interned, so
    structural equality on interned values collapses to physical equality
    ([==]) and a previously computed hash can be reused instead of
    re-traversing the value.

    Buckets hold their members weakly: a canonical representative that the
    program no longer references elsewhere is reclaimed by the GC and its
    slot is reused, so an arena never pins garbage — the property that lets
    hash-consing stay on for arbitrarily long compiler sessions.

    Clients supply [hash] and [equal] at creation time; for recursive types
    the idiom is bottom-up interning, where children are canonicalized
    first so that [equal] may compare them with [==] (constant time per
    node). *)

type 'a t

type stats = {
  st_hits : int;  (** interns that found an existing representative *)
  st_misses : int;  (** interns that installed a new representative *)
  st_live : int;  (** representatives currently alive (weakly counted) *)
  st_buckets : int;  (** current bucket-table width *)
}

(** [create ~hash ~equal name] — an empty arena. [hash] must be compatible
    with [equal] ([equal a b] implies [hash a = hash b]); [name] labels the
    arena ({!name}). *)
val create :
  ?initial_buckets:int ->
  hash:('a -> int) ->
  equal:('a -> 'a -> bool) ->
  string ->
  'a t

(** Canonical representative of [v], installing [v] itself if none exists. *)
val intern : 'a t -> 'a -> 'a

(** Look up without installing. *)
val find_opt : 'a t -> 'a -> 'a option

val name : _ t -> string

val stats : _ t -> stats

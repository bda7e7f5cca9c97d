(** Hash-consing: the one interning layer behind [Value.intern],
    {!Rope.intern} and {!Symtab.intern}.

    An arena maps every value to a canonical representative, the first
    equal value it was asked to intern that is still alive, so equality on
    canonical values is physical equality ([==]) and a canonical value's
    hash, kept beside it, is never recomputed.

    - {b Weak.} The arena holds its canonical values weakly: one that the
      program no longer references is reclaimed by the GC and its slot is
      reused. Nothing keeps a dropped value alive, but a major collection
      must pass before its slot is free, so the table is sized by the
      values interned between two collections. It never shrinks.
    - {b Domain-safe.} One lock guards the buckets, held only for one
      bucket scan or one insert, so two domains interning equal values get
      one representative. In front of it each domain keeps a small
      direct-mapped cache from the values it interned to their
      representatives.
    - {b Bottom-up.} The client's [rebuild] interns a value's children,
      outside the lock, so [equal] compares children with [==]. A canonical
      value is found by identity in one bucket scan however much it shares;
      a fresh copy that shares a subvalue twice in a row finds the second
      occurrence in the cache.

    Buckets are chosen by the bounded polymorphic hash ([Hashtbl.hash]),
    which needs only the value itself. Values that [equal] relates but that
    hash apart polymorphically are not merged. *)

type 'a t

(** [create ~equal] is an empty arena. [equal] is a shallow equality: it
    sees a candidate whose children are canonical. *)
val create : equal:('a -> 'a -> bool) -> 'a t

(** [intern t ~rebuild v] is the canonical representative of [v] and its
    hash. When [v] is not canonical, [rebuild v] must intern [v]'s children
    and return a value equal to [v] over the canonical children, with its
    hash; equal candidates must get equal hashes. That candidate becomes
    the representative when no equal value is canonical yet. *)
val intern : 'a t -> rebuild:('a -> 'a * int) -> 'a -> 'a * int

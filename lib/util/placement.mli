(** The one place that spawns OCaml domains. Every parallel path runs on
    [min(N, cores)] domains, the calling domain hosting index 0. *)

(** [count n] is [max 1 (min n (Domain.recommended_domain_count ()))]. *)
val count : int -> int

(** [run n body] runs [body 0] on the calling domain and [body 1 .. n-1]
    on spawned domains, and returns the results in index order. It joins
    every spawned domain before re-raising the first failure in index
    order. Size [n] with {!count}; [n < 1] is [Invalid_argument]. *)
val run : int -> (int -> 'a) -> 'a array

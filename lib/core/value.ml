open Pag_util

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of Rope.t
  | List of t list
  | Pair of t * t
  | Tab of t Symtab.t
  | Ext of ext

and ext = ..

type ext_ops = {
  ext_name : string;
  ext_equal : ext -> ext -> bool option;
  ext_hash : ext -> int option;
  ext_size : ext -> int option;
  ext_pp : Format.formatter -> ext -> bool;
}

exception Type_error of string

let ext_registry : ext_ops list ref = ref []

let register_ext ops = ext_registry := ops :: !ext_registry

let ext_equal a b =
  let rec try_ops = function
    | [] -> raise (Type_error "Value.equal: unregistered Ext payload")
    | ops :: rest -> (
        match ops.ext_equal a b with Some r -> r | None -> try_ops rest)
  in
  try_ops !ext_registry

let ext_size e =
  let rec try_ops = function
    | [] -> 8
    | ops :: rest -> (
        match ops.ext_size e with Some n -> n | None -> try_ops rest)
  in
  try_ops !ext_registry

let ext_hash e =
  let rec try_ops = function
    | [] -> 0x7ead
    | ops :: rest -> (
        match ops.ext_hash e with Some h -> h | None -> try_ops rest)
  in
  try_ops !ext_registry

let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Str x, Str y -> Rope.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Pair (x1, x2), Pair (y1, y2) -> equal x1 y1 && equal x2 y2
  | Tab x, Tab y -> Symtab.equal equal x y
  | Ext x, Ext y -> ext_equal x y
  | (Unit | Bool _ | Int _ | Str _ | List _ | Pair _ | Tab _ | Ext _), _ ->
      false

let rec byte_size = function
  | Unit -> 1
  | Bool _ -> 1
  | Int _ -> 4
  | Str r -> Rope.length r
  | List l -> List.fold_left (fun n v -> n + byte_size v) 4 l
  | Pair (a, b) -> byte_size a + byte_size b
  | Tab tab ->
      (* st_put: each binding flattens to name + value + framing *)
      Symtab.fold
        (fun name v n -> n + String.length name + byte_size v + 4)
        tab 4
  | Ext e -> ext_size e

let rec pp fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.pp_print_int fmt i
  | Str r ->
      let s = Rope.to_string r in
      if String.length s <= 40 then Format.fprintf fmt "%S" s
      else Format.fprintf fmt "<str:%d bytes>" (String.length s)
  | List l ->
      Format.fprintf fmt "[@[%a@]]"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ")
           pp)
        l
  | Pair (a, b) -> Format.fprintf fmt "(%a, %a)" pp a pp b
  | Tab tab -> Format.fprintf fmt "<symtab:%d>" (Symtab.cardinal tab)
  | Ext e ->
      let rec try_ops = function
        | [] -> Format.pp_print_string fmt "<ext>"
        | ops :: rest -> if ops.ext_pp fmt e then () else try_ops rest
      in
      try_ops !ext_registry

let to_string v = Format.asprintf "%a" pp v

let type_name = function
  | Unit -> "unit"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Str _ -> "string"
  | List _ -> "list"
  | Pair _ -> "pair"
  | Tab _ -> "symtab"
  | Ext _ -> "ext"

let mismatch ctx expected v =
  raise
    (Type_error
       (Printf.sprintf "%s: expected %s, got %s" ctx expected (type_name v)))

let as_int ~ctx = function Int i -> i | v -> mismatch ctx "int" v

let as_bool ~ctx = function Bool b -> b | v -> mismatch ctx "bool" v

let as_str ~ctx = function Str r -> r | v -> mismatch ctx "string" v

let as_list ~ctx = function List l -> l | v -> mismatch ctx "list" v

let as_pair ~ctx = function Pair (a, b) -> (a, b) | v -> mismatch ctx "pair" v

let as_tab ~ctx = function Tab t -> t | v -> mismatch ctx "symtab" v

let str s = Str (Rope.of_string s)

let of_rope r = Str r

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

(* Values are interned bottom-up into a process-wide weak arena: children
   are canonicalized first, so the arena's equality compares them with
   [==]. The arena equality is deliberately FINER than {!equal} — ropes by
   interned identity (shape-preserving), symbol tables by interned node
   identity (shape-preserving), [Ext] payloads by [ext_equal] — which is
   sound for an optimization: it never merges values that {!equal}
   distinguishes, it merely declines to merge some that {!equal} would.
   Correspondingly {!hash} is consistent with interning, not with
   {!equal}. *)

module Phys = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )

  (* Bounded-prefix polymorphic hash; physically equal values hash
     equally — all an identity-keyed cache needs. *)
  let hash = Hashtbl.hash
end)

let mix h1 h2 = (h1 * 0x01000193) lxor (h2 + 0x9e3779b9 + (h1 lsl 6))

(* Structural hashes of canonical values, memoized by identity. *)
let hash_memo : int Phys.t = Phys.create 1024

(* Identity cache of already-interned values. Direct-mapped (not a
   hashtable): an evaluation produces many physically distinct copies of
   equal values, which hash alike under the content-based [Hashtbl.hash]
   and would chain in one bucket of an identity-keyed table; here they
   evict each other, and the fixed size doubles as the garbage-pinning
   cap. *)
let canon_memo : (t, t) Phys_cache.t = Phys_cache.create 16

let remember v c = Phys_cache.replace canon_memo v c

let rec value_interner =
  lazy
    (Symtab.interner ~value_hash:compute_hash ~value_identical:( == ) "symtab")

and arena = lazy (Hcons.create ~hash:compute_hash ~equal:shallow_equal "value")

(* Memo first; else a shallow mix over (already canonical) children. *)
and compute_hash v =
  match Phys.find_opt hash_memo v with
  | Some h -> h
  | None -> (
      match v with
      | Unit -> 0x11
      | Bool false -> 0x22
      | Bool true -> 0x23
      | Int i -> mix 0x44 i
      | Str r -> mix 0x33 (Rope.hash r)
      | List l -> List.fold_left (fun acc x -> mix acc (compute_hash x)) 0x55 l
      | Pair (a, b) -> mix 0x99 (mix (compute_hash a) (compute_hash b))
      | Tab t ->
          mix 0x66
            (Symtab.hash (Lazy.force value_interner) ~intern_value:intern t)
      | Ext e -> mix 0x77 (ext_hash e))

and shallow_equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Str x, Str y -> x == y
  | List x, List y -> List.compare_lengths x y = 0 && List.for_all2 ( == ) x y
  | Pair (x1, x2), Pair (y1, y2) -> x1 == y1 && x2 == y2
  | Tab x, Tab y -> x == y
  | Ext x, Ext y -> ( try ext_equal x y with Type_error _ -> x == y)
  | (Unit | Bool _ | Int _ | Str _ | List _ | Pair _ | Tab _ | Ext _), _ ->
      false

(* Canonical values are exactly the keys of [hash_memo]; the O(1)
   membership test keeps re-interning of canonical values (and of values
   whose children are canonical) from re-walking shared substructure —
   hash-consed evaluation builds DAG-shaped values, and recursing into
   them as trees is exponential in the sharing depth. *)
and intern v =
  if Phys.mem hash_memo v then v
  else
    match Phys_cache.find_opt canon_memo v with
    | Some c -> c
    | None ->
      let cand =
        match v with
        | Unit | Bool _ | Int _ | Ext _ -> v
        | Str r ->
            let r' = Rope.intern r in
            if r' == r then v else Str r'
        | List l ->
            let l' = List.map intern l in
            if List.for_all2 ( == ) l l' then v else List l'
        | Pair (a, b) ->
            let a' = intern a and b' = intern b in
            if a' == a && b' == b then v else Pair (a', b')
        | Tab t ->
            let t' =
              Symtab.intern (Lazy.force value_interner) ~intern_value:intern t
            in
            if t' == t then v else Tab t'
      in
      let canon = Hcons.intern (Lazy.force arena) cand in
      if not (Phys.mem hash_memo canon) then
        Phys.replace hash_memo canon (compute_hash canon);
      remember v canon;
      canon

(* The arenas are lazy only because [let rec] needs them to be. Build them
   now, at module initialization: two domains forcing the same lazy at
   once raise [Lazy.Undefined], and the parallel paths may reach their
   first [intern] concurrently. *)
let () =
  ignore (Lazy.force arena);
  ignore (Lazy.force value_interner)

let hash v = compute_hash (intern v)

let backref_bytes = 8

(* DAG-encoded wire size, the counterpart of {!byte_size} for transfers
   between two arena-aware peers: distinct canonical subvalues are counted
   once (at their [byte_size] framing), repeats cost a fixed backreference
   when that is cheaper. A sharing-free value costs exactly [byte_size]. *)
let dag_byte_size v =
  let seen : unit Phys.t = Phys.create 64 in
  let rec go v =
    if Phys.mem seen v then backref_bytes
    else
      let s =
        match v with
        | Unit | Bool _ -> 1
        | Int _ -> 4
        | Str r -> Rope.dag_size r
        | List l -> List.fold_left (fun n x -> n + go x) 4 l
        | Pair (a, b) -> go a + go b
        | Tab tab ->
            Symtab.fold
              (fun name x n -> n + String.length name + go x + 4)
              tab 4
        | Ext e -> ext_size e
      in
      if s > backref_bytes then Phys.replace seen v ();
      s
  in
  go (intern v)

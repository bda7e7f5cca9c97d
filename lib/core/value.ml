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

(* Values are interned bottom-up into a weak arena ({!Hcons}): children
   are canonicalized first, so the arena's equality compares them with
   [==]. The arena equality is deliberately FINER than {!equal} — ropes by
   interned identity (shape-preserving), symbol tables by interned node
   identity (shape-preserving), [Ext] payloads by [ext_equal] among those
   the polymorphic hash puts in one bucket — which is
   sound for an optimization: it never merges values that {!equal}
   distinguishes, it merely declines to merge some that {!equal} would.
   Correspondingly {!hash} is consistent with interning, not with
   {!equal}. *)

let mix h1 h2 = (h1 * 0x01000193) lxor (h2 + 0x9e3779b9 + (h1 lsl 6))

let arena =
  Hcons.create ~equal:(fun a b ->
      match (a, b) with
      | Unit, Unit -> true
      | Bool x, Bool y -> x = y
      | Int x, Int y -> x = y
      | Str x, Str y -> x == y
      | List x, List y ->
          List.compare_lengths x y = 0 && List.for_all2 ( == ) x y
      | Pair (x1, x2), Pair (y1, y2) -> x1 == y1 && x2 == y2
      | Tab x, Tab y -> x == y
      | Ext x, Ext y -> ( try ext_equal x y with Type_error _ -> x == y)
      | (Unit | Bool _ | Int _ | Str _ | List _ | Pair _ | Tab _ | Ext _), _ ->
          false)

(* The symbol tables' node arena. *)
let tables : t Symtab.interner = Symtab.interner ()

let rec intern_hash v = Hcons.intern arena ~rebuild v

and rebuild v =
  match v with
  | Unit -> (v, 0x11)
  | Bool false -> (v, 0x22)
  | Bool true -> (v, 0x23)
  | Int i -> (v, mix 0x44 i)
  | Ext e -> (v, mix 0x77 (ext_hash e))
  | Str r ->
      let r' = Rope.intern r in
      ((if r' == r then v else Str r'), mix 0x33 (Rope.hash r))
  | List l ->
      let l' = List.map intern_hash l in
      ( (if List.for_all2 (fun x (x', _) -> x == x') l l' then v
         else List (List.map fst l')),
        List.fold_left (fun acc (_, h) -> mix acc h) 0x55 l' )
  | Pair (a, b) ->
      let a', ha = intern_hash a in
      let b', hb = intern_hash b in
      ( (if a' == a && b' == b then v else Pair (a', b')),
        mix 0x99 (mix ha hb) )
  | Tab t ->
      let t', h = Symtab.intern tables ~intern_value:intern_hash t in
      ((if t' == t then v else Tab t'), mix 0x66 h)

let intern v = fst (intern_hash v)

let hash v = snd (intern_hash v)

let backref_bytes = 8

(* DAG-encoded wire size, the counterpart of {!byte_size} for transfers
   between two arena-aware peers: distinct canonical subvalues are counted
   once (at their [byte_size] framing), repeats cost a fixed backreference
   when that is cheaper. A sharing-free value costs exactly [byte_size]. *)
let dag_byte_size v =
  let seen = Phys_tbl.create 64 in
  let rec go v =
    if Phys_tbl.mem seen v then backref_bytes
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
      if s > backref_bytes then Phys_tbl.replace seen v ();
      s
  in
  go (intern v)

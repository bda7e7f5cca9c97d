type t =
  | Leaf of string
  | Cat of { left : t; right : t; len : int; dep : int }

let empty = Leaf ""

let of_string s = Leaf s

let length = function Leaf s -> String.length s | Cat c -> c.len

let depth = function Leaf _ -> 0 | Cat c -> c.dep

let is_empty r = length r = 0

(* Plain two-child node, no balancing concerns. *)
let cat a b =
  Cat
    {
      left = a;
      right = b;
      len = length a + length b;
      dep = 1 + max (depth a) (depth b);
    }

let rec concat_balanced rs n =
  (* [rs] has [n] elements; split in half to keep the result shallow. *)
  match rs with
  | [] -> empty
  | [ r ] -> r
  | _ ->
      let half = n / 2 in
      let rec split i acc = function
        | rest when i = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | r :: rest -> split (i - 1) (r :: acc) rest
      in
      let l, r = split half [] rs in
      cat (concat_balanced l half) (concat_balanced r (n - half))

let iter_chunks f r =
  let rec go = function
    | [] -> ()
    | Leaf "" :: rest -> go rest
    | Leaf s :: rest ->
        f s;
        go rest
    | Cat c :: rest -> go (c.left :: c.right :: rest)
  in
  go [ r ]

let fold_chunks f init r =
  let acc = ref init in
  iter_chunks (fun s -> acc := f !acc s) r;
  !acc

let leaf_count r = fold_chunks (fun n _ -> n + 1) 0 r

(* ------------------------------------------------------------------ *)
(* Balancing                                                           *)
(* ------------------------------------------------------------------ *)

(* Every rope is height-balanced at all times: the children of a node
   differ in height by at most 2, the invariant of OCaml's [Set], so a rope
   of n leaves is at most about 1.81 log2 n deep. [concat] keeps it with
   [Set]'s join: operands whose heights differ by at most 2 become one
   node; otherwise the join descends the inner spine of the taller operand
   until the two sides are that close, and single or double rotations
   restore the bound on the way back up. A concat thus allocates
   O(height difference) nodes and never copies text beyond a short seam
   leaf.

   Code attributes are built by appending many small fragments, so the
   node made at the bottom of a join also merges the leaves on either side
   of the seam when they fit in [max_leaf] bytes together: a long fold of
   fragments grows the tree once per ~[max_leaf] bytes instead of once per
   fragment. *)

let max_leaf = 128

let short a b = String.length a + String.length b <= max_leaf

(* One node over ropes whose heights differ by at most 2. *)
let node a b =
  match (a, b) with
  | Leaf sa, Leaf sb when short sa sb -> Leaf (sa ^ sb)
  | Cat ({ right = Leaf sr; _ } as c), Leaf sb when short sr sb ->
      Cat { c with right = Leaf (sr ^ sb); len = c.len + String.length sb }
  | Leaf sa, Cat ({ left = Leaf sl; _ } as c) when short sa sl ->
      Cat { c with left = Leaf (sa ^ sl); len = String.length sa + c.len }
  | _ -> cat a b

(* [bal l r] is a node over ropes whose heights differ by at most 3,
   rotated so that every child pair differs by at most 2. *)
let bal l r =
  let hl = depth l and hr = depth r in
  if hl > hr + 2 then
    match l with
    | Cat { left = ll; right = Cat lr; _ } when depth ll < lr.dep ->
        cat (cat ll lr.left) (cat lr.right r)
    | Cat { left = ll; right = lr; _ } -> cat ll (cat lr r)
    | Leaf _ -> assert false
  else if hr > hl + 2 then
    match r with
    | Cat { left = Cat rl; right = rr; _ } when depth rr < rl.dep ->
        cat (cat l rl.left) (cat rl.right rr)
    | Cat { left = rl; right = rr; _ } -> cat (cat l rl) rr
    | Leaf _ -> assert false
  else cat l r

let rec join a b =
  match (a, b) with
  | Cat c, _ when c.dep > depth b + 2 -> bal c.left (join c.right b)
  | _, Cat c when c.dep > depth a + 2 -> bal (join a c.left) c.right
  | _ -> node a b

let concat a b = if is_empty a then b else if is_empty b then a else join a b

let concat_list rs = concat_balanced rs (List.length rs)

let to_string r =
  let buf = Buffer.create (length r) in
  iter_chunks (Buffer.add_string buf) r;
  Buffer.contents buf

let output oc r = iter_chunks (output_string oc) r

(* Chunk-stream comparison: walk both ropes' leaves in lockstep, comparing
   character ranges, so neither rope is flattened. A range both cursors
   read at the same offset of one physical string is equal without a look
   (ropes built from a common value share their leaves), and other ranges
   compare 8 bytes at a time; only the word holding the first difference
   is compared bytewise, so the order is the byte order of [String]. *)
type cursor = { mutable chunks : t list; mutable s : string; mutable pos : int }

let cursor_of r = { chunks = [ r ]; s = ""; pos = 0 }

let rec cursor_refill c =
  if c.pos < String.length c.s then true
  else
    match c.chunks with
    | [] -> false
    | Leaf s :: rest ->
        c.chunks <- rest;
        c.s <- s;
        c.pos <- 0;
        cursor_refill c
    | Cat cat :: rest ->
        c.chunks <- cat.left :: cat.right :: rest;
        cursor_refill c

(* Length of the common prefix of [a] from [i] and [b] from [j], at most
   [n] bytes. *)
let common_prefix a i b j n =
  let k = ref 0 in
  while
    !k + 8 <= n
    && String.get_int64_ne a (i + !k) = String.get_int64_ne b (j + !k)
  do
    k := !k + 8
  done;
  while !k < n && String.unsafe_get a (i + !k) = String.unsafe_get b (j + !k) do
    incr k
  done;
  !k

let compare a b =
  if a == b then 0
  else if length a = 0 && length b = 0 then 0
  else
    let ca = cursor_of a and cb = cursor_of b in
    let rec go () =
      match (cursor_refill ca, cursor_refill cb) with
      | false, false -> 0
      | false, true -> -1
      | true, false -> 1
      | true, true ->
          let n =
            min (String.length ca.s - ca.pos) (String.length cb.s - cb.pos)
          in
          let k =
            if ca.s == cb.s && ca.pos = cb.pos then n
            else common_prefix ca.s ca.pos cb.s cb.pos n
          in
          if k < n then Char.compare ca.s.[ca.pos + k] cb.s.[cb.pos + k]
          else begin
            ca.pos <- ca.pos + n;
            cb.pos <- cb.pos + n;
            go ()
          end
    in
    go ()

let equal a b =
  a == b
  || length a = length b
     &&
     match (a, b) with
     | Leaf x, Leaf y -> String.equal x y
     | _ -> compare a b = 0

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

(* Ropes are interned bottom-up: leaves by their string, interior nodes by
   the physical identity of their (already canonical) children — so the
   canonical form preserves the shape, and two ropes built by the same
   sequence of operations share one representation. *)

let mix h1 h2 = (h1 * 0x01000193) lxor (h2 + 0x9e3779b9 + (h1 lsl 6))

let arena =
  Hcons.create ~equal:(fun a b ->
      match (a, b) with
      | Leaf x, Leaf y -> String.equal x y
      | Cat x, Cat y -> x.left == y.left && x.right == y.right
      | _ -> false)

let rec intern_hash r = Hcons.intern arena ~rebuild r

and rebuild r =
  match r with
  | Leaf s -> (r, mix 0x5eaf (Hashtbl.hash s))
  | Cat c ->
      let l, hl = intern_hash c.left in
      let rt, hr = intern_hash c.right in
      ( (if l == c.left && rt == c.right then r
         else Cat { left = l; right = rt; len = c.len; dep = c.dep }),
        mix hl hr )

let intern r = fst (intern_hash r)

let hash r = snd (intern_hash r)

let backref_bytes = 8

(* DAG-encoded wire size: nodes of the canonical form counted once, a
   repeated node costs a fixed backreference (only when that is cheaper
   than its text, so a sharing-free rope costs exactly [length]). *)
let dag_size r =
  let seen = Phys_tbl.create 64 in
  let rec go r =
    if Phys_tbl.mem seen r then backref_bytes
    else
      let s =
        match r with
        | Leaf s -> String.length s
        | Cat c -> go c.left + go c.right
      in
      if s > backref_bytes then Phys_tbl.replace seen r ();
      s
  in
  go (intern r)

let pp fmt r = Format.pp_print_string fmt (to_string r)

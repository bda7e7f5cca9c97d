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

(* All traversals carry an explicit work list so deep ropes (built by long
   left- or right-leaning concatenation chains) cannot overflow the stack. *)

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

(* Appending many small fragments (code attributes are built exactly that
   way) is kept cheap by two measures working together:

   - short-leaf merging: when the rightmost leaf and the appended string
     fit in [max_leaf] bytes together, they are merged into one leaf, so a
     long fold grows the tree depth once per ~[max_leaf] bytes instead of
     once per fragment;
   - a depth-triggered rebuild: a concat whose result is deeper than
     [depth_trigger] yet shorter than the Fibonacci bound for that depth
     (Boehm's balance criterion) is flattened into a balanced tree.

   Rebuilds copy the text once, and between two rebuilds the rope must
   re-accumulate depth proportional to the trigger, so the copying cost
   amortizes over the bytes appended; ordinary concats stay O(1). *)

let max_leaf = 128

let depth_trigger = 32

(* fib.(d): minimum length at which depth d counts as balanced. *)
let fib =
  let a = Array.make 91 1 in
  for i = 2 to 90 do
    a.(i) <- a.(i - 1) + a.(i - 2)
  done;
  a

let balanced r =
  let d = depth r in
  d <= depth_trigger || length r >= fib.(min d 90)

let rebalance r =
  let leaves = ref [] and n = ref 0 in
  let buf = Buffer.create max_leaf in
  let push l =
    leaves := l :: !leaves;
    incr n
  in
  let flush () =
    if Buffer.length buf > 0 then begin
      push (Leaf (Buffer.contents buf));
      Buffer.clear buf
    end
  in
  iter_chunks
    (fun s ->
      if String.length s >= max_leaf then begin
        flush ();
        push (Leaf s)
      end
      else begin
        if Buffer.length buf + String.length s > max_leaf then flush ();
        Buffer.add_string buf s
      end)
    r;
  flush ();
  concat_balanced (List.rev !leaves) !n

let concat a b =
  if is_empty a then b
  else if is_empty b then a
  else
    let merged =
      (* Merge short rightmost leaves so folds of small fragments do not
         deepen the tree one level per fragment. *)
      match (a, b) with
      | Leaf sa, Leaf sb when String.length sa + String.length sb <= max_leaf
        ->
          Some (Leaf (sa ^ sb))
      | Cat c, Leaf sb -> (
          match c.right with
          | Leaf sr when String.length sr + String.length sb <= max_leaf ->
              Some
                (Cat
                   {
                     left = c.left;
                     right = Leaf (sr ^ sb);
                     len = c.len + String.length sb;
                     dep = c.dep;
                   })
          | _ -> None)
      | Leaf sa, Cat c -> (
          match c.left with
          | Leaf sl when String.length sa + String.length sl <= max_leaf ->
              Some
                (Cat
                   {
                     left = Leaf (sa ^ sl);
                     right = c.right;
                     len = String.length sa + c.len;
                     dep = c.dep;
                   })
          | _ -> None)
      | _ -> None
    in
    let r = match merged with Some r -> r | None -> cat a b in
    if balanced r then r else rebalance r

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

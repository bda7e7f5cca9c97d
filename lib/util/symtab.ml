type 'a t =
  | Empty
  | Node of {
      key : int; (* hash index of the identifiers in [bucket] *)
      bucket : (string * 'a) list;
      left : 'a t;
      right : 'a t;
    }

let empty = Empty

let hash_of_name = Hashtbl.hash

let rec add_at tab key name v =
  match tab with
  | Empty -> Node { key; bucket = [ (name, v) ]; left = Empty; right = Empty }
  | Node n ->
      if key < n.key then Node { n with left = add_at n.left key name v }
      else if key > n.key then Node { n with right = add_at n.right key name v }
      else
        let bucket = (name, v) :: List.remove_assoc name n.bucket in
        Node { n with bucket }

let add tab name v = add_at tab (hash_of_name name) name v

let rec lookup_at tab key name =
  match tab with
  | Empty -> None
  | Node n ->
      if key < n.key then lookup_at n.left key name
      else if key > n.key then lookup_at n.right key name
      else List.assoc_opt name n.bucket

let lookup tab name = lookup_at tab (hash_of_name name) name

let mem tab name = lookup tab name <> None

let rec fold f tab acc =
  match tab with
  | Empty -> acc
  | Node n ->
      let acc = fold f n.left acc in
      let acc =
        List.fold_left (fun acc (name, v) -> f name v acc) acc n.bucket
      in
      fold f n.right acc

let cardinal tab = fold (fun _ _ n -> n + 1) tab 0

let rec height = function
  | Empty -> 0
  | Node n -> 1 + max (height n.left) (height n.right)

let of_list l = List.fold_left (fun tab (name, v) -> add tab name v) empty l

let to_list tab = fold (fun name v acc -> (name, v) :: acc) tab []

let equal veq a b =
  let subset x y =
    fold
      (fun name v ok ->
        ok && match lookup y name with Some w -> veq v w | None -> false)
      x true
  in
  cardinal a = cardinal b && subset a b

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

(* Tables are interned bottom-up, one BST node at a time: children and
   bucket values are canonicalized first, so the arena's equality compares
   them with [==] and each node costs O(bucket) to intern. The canonical
   form preserves the BST shape; since the shape is a function of the
   insertion history, tables built by the same sequence of [add]s (the
   common case for identical declaration subtrees) collapse to one
   representation. Shape-distinct but binding-equal tables merely stay
   [equal] — interning is an optimization, never a semantic change. *)

type 'a interner = 'a t Hcons.t

let mix h1 h2 = (h1 * 0x01000193) lxor (h2 + 0x9e3779b9 + (h1 lsl 6))

let interner () =
  Hcons.create ~equal:(fun a b ->
      match (a, b) with
      | Node x, Node y ->
          x.key = y.key && x.left == y.left && x.right == y.right
          && List.compare_lengths x.bucket y.bucket = 0
          && List.for_all2
               (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && v1 == v2)
               x.bucket y.bucket
      | _ -> false)

let rec intern it ~intern_value tab =
  match tab with
  | Empty -> (Empty, 0x3_1415)
  | Node n ->
      Hcons.intern it tab ~rebuild:(fun _ ->
          let left, hl = intern it ~intern_value n.left in
          let right, hr = intern it ~intern_value n.right in
          let bucket = List.map (fun (nm, v) -> (nm, intern_value v)) n.bucket in
          let h =
            List.fold_left
              (fun acc (nm, (_, hv)) -> mix acc (mix (Hashtbl.hash nm) hv))
              (mix n.key (mix hl hr))
              bucket
          in
          if
            left == n.left && right == n.right
            && List.for_all2 (fun (_, v) (_, (v', _)) -> v == v') n.bucket bucket
          then (tab, h)
          else
            ( Node
                {
                  key = n.key;
                  bucket = List.map (fun (nm, (v, _)) -> (nm, v)) bucket;
                  left;
                  right;
                },
              h ))

type stats = {
  st_hits : int;
  st_misses : int;
  st_live : int;
  st_buckets : int;
}

type 'a t = {
  hname : string;
  hash : 'a -> int;
  equal : 'a -> 'a -> bool;
  mutable buckets : 'a Weak.t array;
  mutable limit : int;  (* resize when an insert scans past this many slots *)
  mutable hits : int;
  mutable misses : int;
}

let count_live t =
  Array.fold_left
    (fun acc w ->
      let n = ref 0 in
      for i = 0 to Weak.length w - 1 do
        if Weak.check w i then incr n
      done;
      acc + !n)
    0 t.buckets

let stats t =
  {
    st_hits = t.hits;
    st_misses = t.misses;
    st_live = count_live t;
    st_buckets = Array.length t.buckets;
  }

let create ?(initial_buckets = 256) ~hash ~equal hname =
  let n = max 8 initial_buckets in
  {
    hname;
    hash;
    equal;
    buckets = Array.init n (fun _ -> Weak.create 0);
    limit = 3;
    hits = 0;
    misses = 0;
  }

let name t = t.hname

let bucket_of t h = (h land max_int) mod Array.length t.buckets

let rec scan_bucket t w v i n =
  if i >= n then None
  else
    match Weak.get w i with
    | Some x when t.equal x v -> Some x
    | _ -> scan_bucket t w v (i + 1) n

let find_opt t v =
  let w = t.buckets.(bucket_of t (t.hash v)) in
  scan_bucket t w v 0 (Weak.length w)

(* Append [v] to bucket [w], reusing a collected slot when one exists;
   returns the (possibly reallocated) bucket. *)
let bucket_add w v =
  let n = Weak.length w in
  let rec free i = if i >= n then -1 else if Weak.check w i then free (i + 1) else i in
  match free 0 with
  | i when i >= 0 ->
      Weak.set w i (Some v);
      w
  | _ ->
      let w' = Weak.create ((2 * n) + 1) in
      Weak.blit w 0 w' 0 n;
      Weak.set w' n (Some v);
      w'

let resize t =
  let old = t.buckets in
  let nb = (2 * Array.length old) + 1 in
  t.buckets <- Array.init nb (fun _ -> Weak.create 0);
  Array.iter
    (fun w ->
      for i = 0 to Weak.length w - 1 do
        match Weak.get w i with
        | Some v ->
            let b = bucket_of t (t.hash v) in
            t.buckets.(b) <- bucket_add t.buckets.(b) v
        | None -> ()
      done)
    old;
  (* Grow the scan limit geometrically: a family of k equal-hash values
     (an imperfect client hash is allowed to collide) then costs O(log k)
     resizes and O(k) buckets. Growing by +1 per resize lets one crowded
     bucket force a resize on every insert, doubling the table each time —
     an exponential cascade in both time and memory. *)
  t.limit <- 2 * t.limit

let intern t v =
  let h = t.hash v in
  let b = bucket_of t h in
  let w = t.buckets.(b) in
  match scan_bucket t w v 0 (Weak.length w) with
  | Some x ->
      t.hits <- t.hits + 1;
      x
  | None ->
      t.misses <- t.misses + 1;
      let w' = bucket_add w v in
      t.buckets.(b) <- w';
      if Weak.length w' > t.limit then resize t;
      v

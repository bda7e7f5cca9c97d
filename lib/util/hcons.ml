(* Slots of the per-domain identity cache in front of each arena. *)
let cache_bits = 8

(* A bucket keeps its canonical values weakly and, in a parallel int
   array, two numbers per slot: the value's polymorphic hash, which chose
   the bucket, and its own hash. The first lets a scan and a rehash skip a
   slot without reading its value: [Weak.get] keeps a value alive through
   the current GC cycle, [Weak.check] and [Weak.blit] do not. *)
type 'a t = {
  equal : 'a -> 'a -> bool;
  lock : Mutex.t;  (* held for one bucket scan or insert, never longer *)
  mutable values : 'a Weak.t array;
  mutable hashes : int array array;
  mutable stored : int;  (* slots filled since the last rehash, plus those it kept *)
  cache : ('a * ('a * int)) option array Domain.DLS.key;
}

(* A bucket with no slot is never written (a full bucket is replaced), so
   one empty weak array serves a whole table. *)
let create ~equal =
  {
    equal;
    lock = Mutex.create ();
    values = Array.make 256 (Weak.create 0);
    hashes = Array.make 256 [||];
    stored = 0;
    cache = Domain.DLS.new_key (fun () -> Array.make (1 lsl cache_bits) None);
  }

let bucket t poly = poly mod Array.length t.values

(* The canonical value in the bucket of polymorphic hash [poly] whose own
   hash passes [hash_ok] and that satisfies [p], with its hash. *)
let find t poly hash_ok p =
  let b = bucket t poly in
  let w = t.values.(b) and hs = t.hashes.(b) in
  let rec go i =
    if i = Weak.length w then None
    else if hs.(2 * i) <> poly || not (hash_ok hs.((2 * i) + 1)) then go (i + 1)
    else
      match Weak.get w i with
      | Some x when p x -> Some (x, hs.((2 * i) + 1))
      | _ -> go (i + 1)
  in
  go 0

(* Claim a slot of bucket [b] for a value of hashes [poly] and [h]: a
   collected slot when one is free, else one more. *)
let claim t b poly h =
  let w = t.values.(b) in
  let n = Weak.length w in
  let rec free i = if i = n || not (Weak.check w i) then i else free (i + 1) in
  let i = free 0 in
  if i = n then begin
    let w' = Weak.create ((2 * n) + 1) and hs = Array.make (2 * ((2 * n) + 1)) 0 in
    Weak.blit w 0 w' 0 n;
    Array.blit t.hashes.(b) 0 hs 0 (2 * n);
    t.values.(b) <- w';
    t.hashes.(b) <- hs
  end;
  t.hashes.(b).(2 * i) <- poly;
  t.hashes.(b).((2 * i) + 1) <- h;
  t.stored <- t.stored + 1;
  i

(* Move the uncollected values to fresh buckets, doubling the table when
   they outnumber its buckets. Values that share one polymorphic hash share
   one bucket whatever the table's size, so only their count sizes it. *)
let rehash t =
  let values = t.values and hashes = t.hashes in
  let live =
    Array.fold_left
      (fun n w ->
        let n = ref n in
        for i = 0 to Weak.length w - 1 do
          if Weak.check w i then incr n
        done;
        !n)
      0 values
  in
  let len = Array.length values in
  let len = if live > len then (2 * len) + 1 else len in
  t.values <- Array.make len (Weak.create 0);
  t.hashes <- Array.make len [||];
  t.stored <- 0;
  Array.iteri
    (fun b w ->
      for i = 0 to Weak.length w - 1 do
        if Weak.check w i then begin
          let poly = hashes.(b).(2 * i) in
          let b' = bucket t poly in
          let j = claim t b' poly hashes.(b).((2 * i) + 1) in
          Weak.blit w i t.values.(b') j 1
        end
      done)
    values

let find_or_add t poly cand h =
  match find t poly (fun h' -> h' = h) (t.equal cand) with
  | Some r -> r
  | None ->
      let b = bucket t poly in
      Weak.set t.values.(b) (claim t b poly h) (Some cand);
      if t.stored > 2 * Array.length t.values then rehash t;
      (cand, h)

let intern t ~rebuild v =
  let poly = Hashtbl.hash v in
  let cache = Domain.DLS.get t.cache in
  let slot = poly land (Array.length cache - 1) in
  match cache.(slot) with
  | Some (k, r) when k == v -> r
  | _ ->
      let r =
        match
          Mutex.protect t.lock (fun () ->
              find t poly (fun _ -> true) (fun x -> x == v))
        with
        | Some r -> r
        | None ->
            (* Outside the lock: [rebuild] interns the children, possibly in
               other arenas. *)
            let cand, h = rebuild v in
            let poly = if cand == v then poly else Hashtbl.hash cand in
            Mutex.protect t.lock (fun () -> find_or_add t poly cand h)
      in
      cache.(slot) <- Some (v, r);
      r

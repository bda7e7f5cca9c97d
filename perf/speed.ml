(* Machine-speed index.

   The 2-vCPU machine this benchmark was sized on drifts: for minutes at a
   time it runs the same op up to 1.6x slower, so medians of one unchanged
   input spread 15-40% between runs. A fixed kernel of the benchmark's own
   slows in proportion: over 10 minutes in which 30-second medians of the
   compile_repetitive op spread 24%, their ratio to the kernel's median
   spread 3.5%. The kernel is a pointer chase and a linear pass over a
   32 MB off-heap array; it allocates nothing on the OCaml heap and runs
   between ops, when no other domain is running, so no change to the
   program under test moves it.

   End-to-end timings are reported in reference seconds: the measured time
   scaled by [reference /. median kernel time of the run]. *)

(* The kernel's median on the sizing machine at its usual speed. *)
let reference = 0.0055

let words = 1 lsl 22

(* A permutation-like successor table, so the chase touches the whole
   array; filling it here also takes the page faults out of the samples. *)
let table =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
     for i = 0 to words - 1 do
       Bigarray.Array1.unsafe_set a i (i * 7919 land (words - 1))
     done;
     a)

let kernel () =
  let a = Lazy.force table in
  let t0 = Unix.gettimeofday () in
  let j = ref 0 and s = ref 0 in
  for _ = 1 to 200_000 do
    j := Bigarray.Array1.unsafe_get a !j;
    s := !s + !j
  done;
  for i = 0 to words - 1 do
    s := !s + Bigarray.Array1.unsafe_get a i
  done;
  ignore (Sys.opaque_identity !s);
  Unix.gettimeofday () -. t0

type t = { mutable samples : float list; mutable last : float }

let create () = { samples = []; last = neg_infinity }

(* Takes a sample when a quarter second has passed since the last one, so
   a run of any op rate gets about 4 samples a second. Call it only while
   no other domain runs. *)
let sample t =
  let now = Unix.gettimeofday () in
  if now -. t.last >= 0.25 then begin
    t.samples <- kernel () :: t.samples;
    t.last <- Unix.gettimeofday ()
  end

let median_kernel t = Pag_parallel.Service.percentile t.samples 0.5

(* Reference seconds per measured second for this run. *)
let scale t = reference /. median_kernel t

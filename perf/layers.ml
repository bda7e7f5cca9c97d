(* Per-layer recorder for the traced run.

   Spans are recorded by the benchmark around its calls into each module's
   public functions; nothing inside the program under test is switched on.
   A span's duration is added to the metric of the same name for the
   current op, so a layer called several times in one op (the service
   ingests 48 tenants) reports its sum. Spans also go to an
   {!Pag_obs.Obs} recorder, which the repository's own exporter renders as
   Chrome-trace JSON. *)

open Pag_obs

type t = {
  live : bool;
  obs : Obs.recorder;
  t0 : float;
  cur : (string, float) Hashtbl.t;  (** this op's values *)
  all : (string, float list) Hashtbl.t;  (** one value per finished op *)
}

let make live =
  {
    live;
    obs = (if live then Obs.create () else Obs.disabled);
    t0 = Unix.gettimeofday ();
    cur = Hashtbl.create 64;
    all = Hashtbl.create 64;
  }

(* The untraced run's recorder: every call is one branch. *)
let null = make false

let create () = make true

let live t = t.live

let set t name v = if t.live then Hashtbl.replace t.cur name v

let add t name v =
  if t.live then
    Hashtbl.replace t.cur name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.cur name))

(* This op's value so far (0 when unset). *)
let get t name = Option.value ~default:0.0 (Hashtbl.find_opt t.cur name)

let span t name f =
  if not t.live then f ()
  else begin
    let s = Unix.gettimeofday () in
    let r = f () in
    let e = Unix.gettimeofday () in
    Obs.span t.obs ~pid:0 ~t0:(s -. t.t0) ~t1:(e -. t.t0) name;
    add t name (e -. s);
    r
  end

let end_op t =
  Hashtbl.iter
    (fun name v ->
      Hashtbl.replace t.all name
        (v :: Option.value ~default:[] (Hashtbl.find_opt t.all name)))
    t.cur;
  Hashtbl.reset t.cur

(* One value per op that recorded [name]. *)
let values t name = Option.value ~default:[] (Hashtbl.find_opt t.all name)

let write_chrome t path =
  let oc = open_out_bin path in
  output_string oc (Export.chrome ~names:(fun _ -> "perf") t.obs);
  close_out oc

type kind = Span | Instant | Flow

type event = {
  e_kind : kind;
  e_pid : int;
  e_dst : int;
  e_t0 : float;
  e_t1 : float;
  e_name : string;
}

(* Struct-of-arrays buffer: one push is a bounds check and five stores, no
   per-event boxing. [disabled] shares immutable empty arrays and bails on
   the [on] flag before touching them. *)
type recorder = {
  on : bool;
  mutable len : int;
  mutable r_kind : int array;  (* 0 span, 1 instant, 2 flow *)
  mutable r_pid : int array;
  mutable r_dst : int array;
  mutable r_t0 : float array;
  mutable r_t1 : float array;
  mutable r_name : string array;
}

let disabled =
  {
    on = false;
    len = 0;
    r_kind = [||];
    r_pid = [||];
    r_dst = [||];
    r_t0 = [||];
    r_t1 = [||];
    r_name = [||];
  }

let initial_capacity = 1024

let create () =
  {
    on = true;
    len = 0;
    r_kind = Array.make initial_capacity 0;
    r_pid = Array.make initial_capacity 0;
    r_dst = Array.make initial_capacity (-1);
    r_t0 = Array.make initial_capacity 0.0;
    r_t1 = Array.make initial_capacity 0.0;
    r_name = Array.make initial_capacity "";
  }

let enabled r = r.on

let length r = r.len

let grow r =
  let cap = max initial_capacity (2 * Array.length r.r_kind) in
  let extend mk a =
    let b = mk cap in
    Array.blit a 0 b 0 r.len;
    b
  in
  r.r_kind <- extend (fun n -> Array.make n 0) r.r_kind;
  r.r_pid <- extend (fun n -> Array.make n 0) r.r_pid;
  r.r_dst <- extend (fun n -> Array.make n (-1)) r.r_dst;
  r.r_t0 <- extend (fun n -> Array.make n 0.0) r.r_t0;
  r.r_t1 <- extend (fun n -> Array.make n 0.0) r.r_t1;
  r.r_name <- extend (fun n -> Array.make n "") r.r_name

let push r kind pid dst t0 t1 name =
  if r.len >= Array.length r.r_kind then grow r;
  let i = r.len in
  r.r_kind.(i) <- kind;
  r.r_pid.(i) <- pid;
  r.r_dst.(i) <- dst;
  r.r_t0.(i) <- t0;
  r.r_t1.(i) <- t1;
  r.r_name.(i) <- name;
  r.len <- i + 1

let span r ~pid ~t0 ~t1 name = if r.on then push r 0 pid (-1) t0 t1 name

let instant r ~pid ~t name = if r.on then push r 1 pid (-1) t t name

let flow r ~src ~dst ~send ~recv name =
  if r.on then push r 2 src dst send recv name

let event_at r i =
  {
    e_kind = (match r.r_kind.(i) with 0 -> Span | 1 -> Instant | _ -> Flow);
    e_pid = r.r_pid.(i);
    e_dst = r.r_dst.(i);
    e_t0 = r.r_t0.(i);
    e_t1 = r.r_t1.(i);
    e_name = r.r_name.(i);
  }

let iter r f =
  for i = 0 to r.len - 1 do
    f (event_at r i)
  done

let merge rs =
  let total = List.fold_left (fun a r -> a + r.len) 0 rs in
  let order = Array.make (max 1 total) (disabled, 0) in
  let n = ref 0 in
  List.iter
    (fun r ->
      for i = 0 to r.len - 1 do
        order.(!n) <- (r, i);
        incr n
      done)
    rs;
  let order = Array.sub order 0 total in
  (* Stable, so simultaneous events keep their per-machine order. *)
  Array.stable_sort
    (fun (ra, ia) (rb, ib) -> Float.compare ra.r_t0.(ia) rb.r_t0.(ib))
    order;
  let out = create () in
  Array.iter
    (fun (r, i) ->
      push out r.r_kind.(i) r.r_pid.(i) r.r_dst.(i) r.r_t0.(i) r.r_t1.(i)
        r.r_name.(i))
    order;
  out

(* ------------------------------------------------------------------ *)

module Metrics = struct
  type counter = { mutable c : int; c_live : bool }

  type histogram = {
    mutable h_count : int;
    mutable h_sum : float;
    mutable h_min : float;
    mutable h_max : float;
    h_buckets : int array;  (* power-of-two buckets by exponent *)
    h_live : bool;
  }

  type metric = C of counter | G of float ref | H of histogram

  type t = {
    m_live : bool;
    tbl : (string, metric) Hashtbl.t;
  }

  let create () = { m_live = true; tbl = Hashtbl.create 32 }

  let null = { m_live = false; tbl = Hashtbl.create 1 }

  let live t = t.m_live

  let labeled name = function
    | [] -> name
    | labels ->
        let body =
          String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
        in
        name ^ "{" ^ body ^ "}"

  let dead_counter = { c = 0; c_live = false }

  let n_buckets = 64

  let dead_histogram =
    {
      h_count = 0;
      h_sum = 0.0;
      h_min = infinity;
      h_max = neg_infinity;
      h_buckets = [||];
      h_live = false;
    }

  let counter t name =
    if not t.m_live then dead_counter
    else
      match Hashtbl.find_opt t.tbl name with
      | Some (C c) -> c
      | Some _ -> invalid_arg ("Obs.Metrics.counter: " ^ name ^ " is not a counter")
      | None ->
          let c = { c = 0; c_live = true } in
          Hashtbl.add t.tbl name (C c);
          c

  let add c n = if c.c_live then c.c <- c.c + n

  let incr c = add c 1

  let value c = c.c

  let counter_value t name =
    match Hashtbl.find_opt t.tbl name with Some (C c) -> c.c | _ -> 0

  let gauge_ref t name =
    match Hashtbl.find_opt t.tbl name with
    | Some (G g) -> g
    | Some _ -> invalid_arg ("Obs.Metrics.gauge: " ^ name ^ " is not a gauge")
    | None ->
        let g = ref 0.0 in
        Hashtbl.add t.tbl name (G g);
        g

  let set_gauge t name v = if t.m_live then gauge_ref t name := v

  let add_gauge t name v =
    if t.m_live then begin
      let g = gauge_ref t name in
      g := !g +. v
    end

  let set_gauge_max t name v =
    if t.m_live then begin
      let g = gauge_ref t name in
      if v > !g then g := v
    end

  let gauge_value t name =
    match Hashtbl.find_opt t.tbl name with Some (G g) -> Some !g | _ -> None

  let histogram t name =
    if not t.m_live then dead_histogram
    else
      match Hashtbl.find_opt t.tbl name with
      | Some (H h) -> h
      | Some _ ->
          invalid_arg ("Obs.Metrics.histogram: " ^ name ^ " is not a histogram")
      | None ->
          let h =
            {
              h_count = 0;
              h_sum = 0.0;
              h_min = infinity;
              h_max = neg_infinity;
              h_buckets = Array.make n_buckets 0;
              h_live = true;
            }
          in
          Hashtbl.add t.tbl name (H h);
          h

  let bucket_of v =
    if v <= 1.0 then 0
    else
      let e = snd (Float.frexp v) in
      min (n_buckets - 1) (max 0 e)

  let observe h v =
    if h.h_live then begin
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      let b = bucket_of v in
      h.h_buckets.(b) <- h.h_buckets.(b) + 1
    end

  let merge ~into src =
    if into.m_live then
      Hashtbl.iter
        (fun name m ->
          match m with
          | C c -> add (counter into name) c.c
          | G g -> add_gauge into name !g
          | H h ->
              let d = histogram into name in
              d.h_count <- d.h_count + h.h_count;
              d.h_sum <- d.h_sum +. h.h_sum;
              if h.h_min < d.h_min then d.h_min <- h.h_min;
              if h.h_max > d.h_max then d.h_max <- h.h_max;
              Array.iteri
                (fun i n -> d.h_buckets.(i) <- d.h_buckets.(i) + n)
                h.h_buckets)
        src.tbl

  let rows t =
    Hashtbl.fold
      (fun name m acc ->
        let v =
          match m with
          | C c -> string_of_int c.c
          | G g ->
              if Float.is_integer !g && Float.abs !g < 1e15 then
                Printf.sprintf "%.0f" !g
              else Printf.sprintf "%.4f" !g
          | H h ->
              if h.h_count = 0 then "0 samples"
              else
                Printf.sprintf "%d samples, sum %.0f, min %.0f, max %.0f"
                  h.h_count h.h_sum h.h_min h.h_max
        in
        (name, v) :: acc)
      t.tbl []
    |> List.sort (fun (a, _) (b, _) ->
           (* Labeled series ("name{k=v}") must group under their base
              name: '{' sorts after '.', so a plain [compare] interleaves
              "x.y" rows between "x{...}" and "x.z{...}". Split at the
              label brace and order by (base, label). *)
           let split n =
             match String.index_opt n '{' with
             | Some i ->
                 (String.sub n 0 i, String.sub n i (String.length n - i))
             | None -> (n, "")
           in
           compare (split a) (split b))
end

(* ------------------------------------------------------------------ *)

type ctx = {
  x_rec : recorder;
  x_metrics : Metrics.t;
  x_pid : int;
  x_clock : unit -> float;
}

let null_ctx =
  { x_rec = disabled; x_metrics = Metrics.null; x_pid = 0; x_clock = (fun () -> 0.0) }

let make_ctx ~pid ~clock =
  { x_rec = create (); x_metrics = Metrics.create (); x_pid = pid; x_clock = clock }

let ctx_enabled x = x.x_rec.on

let with_span x name f =
  if x.x_rec.on then begin
    let t0 = x.x_clock () in
    let r = f () in
    span x.x_rec ~pid:x.x_pid ~t0 ~t1:(x.x_clock ()) name;
    r
  end
  else f ()

let event x name =
  if x.x_rec.on then instant x.x_rec ~pid:x.x_pid ~t:(x.x_clock ()) name

(* ------------------------------------------------------------------ *)

module Json = struct
  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let num v =
    if Float.is_nan v || Float.abs v = infinity then "0"
    else if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.6f" v
end

(* ------------------------------------------------------------------ *)

module Report = struct
  type machine = {
    rm_pid : int;
    rm_name : string;
    rm_active : float;
    rm_idle : float;
    rm_util : float;
    rm_sends : int;
    rm_max_queue : int;
  }

  type t = {
    rp_label : string;
    rp_clock : string;
    rp_horizon : float;
    rp_machines : machine list;
    rp_dynamic_rules : int;
    rp_static_rules : int;
    rp_messages : int;
    rp_bytes : int;
    rp_retransmits : int;
    rp_metrics : Metrics.t;
    rp_domains : int;
  }

  let dynamic_fraction t =
    let total = t.rp_dynamic_rules + t.rp_static_rules in
    if total = 0 then 0.0
    else float_of_int t.rp_dynamic_rules /. float_of_int total

  let render t =
    let b = Buffer.create 1024 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    line "== evaluation report %s" (String.make 43 '=');
    line "%-16s %s" "run" t.rp_label;
    line "%-16s %.3f s (%s)" "finished at" t.rp_horizon t.rp_clock;
    line "%-16s %d" "domains" t.rp_domains;
    if t.rp_machines <> [] then begin
      line "%-16s %-12s %9s %9s %6s %7s %6s" "machines" "" "active" "idle"
        "util" "sends" "maxq";
      List.iter
        (fun m ->
          line "%-16s %-12s %8.3fs %8.3fs %5.1f%% %7d %6s" "" m.rm_name
            m.rm_active m.rm_idle
            (100.0 *. m.rm_util)
            m.rm_sends
            (if m.rm_max_queue < 0 then "-" else string_of_int m.rm_max_queue))
        t.rp_machines
    end;
    let total_rules = t.rp_dynamic_rules + t.rp_static_rules in
    line "%-16s %d static + %d dynamic = %d rules (%.2f%% dynamic)" "attributes"
      t.rp_static_rules t.rp_dynamic_rules total_rules
      (100.0 *. dynamic_fraction t);
    line "%-16s %d messages, %d bytes on the wire, %d retransmissions"
      "network" t.rp_messages t.rp_bytes t.rp_retransmits;
    (match Metrics.gauge_value t.rp_metrics "librarian.bytes" with
    | Some bytes when bytes > 0.0 ->
        line "%-16s %.0f bytes of code shipped exactly once (%.0f fragments)"
          "librarian" bytes
          (Option.value ~default:0.0
             (Metrics.gauge_value t.rp_metrics "librarian.fragments"))
    | _ -> ());
    let rows = Metrics.rows t.rp_metrics in
    if rows <> [] then begin
      line "%-16s" "metrics";
      List.iter (fun (name, v) -> line "  %-34s %s" name v) rows
    end;
    Buffer.contents b
end

type spec = {
  fs_drop : float;
  fs_dup : float;
  fs_reorder : float;
  fs_reorder_window : float;
  fs_delay : float;
  fs_spike : float;
  fs_crashes : (int * float) list;
  fs_seed : int;
}

let none =
  {
    fs_drop = 0.0;
    fs_dup = 0.0;
    fs_reorder = 0.0;
    fs_reorder_window = 0.02;
    fs_delay = 0.0;
    fs_spike = 0.25;
    fs_crashes = [];
    fs_seed = 1;
  }

let parse ?seed str =
  let ( let* ) = Result.bind in
  let prob key v =
    match float_of_string_opt v with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok p
    | _ -> Error (Printf.sprintf "faults: %s wants a probability, got %S" key v)
  in
  let at key v =
    (* "x@y" pairs: delay=p@spike, crash=machine@time *)
    match String.index_opt v '@' with
    | Some i ->
        Ok
          ( String.sub v 0 i,
            String.sub v (i + 1) (String.length v - i - 1) )
    | None -> Error (Printf.sprintf "faults: %s wants the form a@b, got %S" key v)
  in
  let fields =
    String.split_on_char ',' str
    |> List.filter (fun s -> String.trim s <> "")
  in
  let* spec =
    List.fold_left
      (fun acc field ->
        let* s = acc in
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "faults: expected key=value, got %S" field)
        | Some i ->
            let key = String.trim (String.sub field 0 i) in
            let v =
              String.trim (String.sub field (i + 1) (String.length field - i - 1))
            in
            (match key with
            | "drop" ->
                let* p = prob key v in
                Ok { s with fs_drop = p }
            | "dup" ->
                let* p = prob key v in
                Ok { s with fs_dup = p }
            | "reorder" ->
                let* p = prob key v in
                Ok { s with fs_reorder = p }
            | "delay" ->
                let* p, m = at key v in
                let* p = prob key p in
                (match float_of_string_opt m with
                | Some spike when spike >= 0.0 ->
                    Ok { s with fs_delay = p; fs_spike = spike }
                | _ -> Error (Printf.sprintf "faults: bad delay spike %S" m))
            | "crash" ->
                let* machine, time = at key v in
                (match (int_of_string_opt machine, float_of_string_opt time) with
                | Some m, Some t when m >= 0 && t >= 0.0 ->
                    Ok { s with fs_crashes = s.fs_crashes @ [ (m, t) ] }
                | _ ->
                    Error
                      (Printf.sprintf "faults: crash wants machine@time, got %S" v))
            | "seed" ->
                (match int_of_string_opt v with
                | Some n -> Ok { s with fs_seed = n }
                | None -> Error (Printf.sprintf "faults: bad seed %S" v))
            | _ -> Error (Printf.sprintf "faults: unknown key %S" key)))
      (Ok none) fields
  in
  Ok (match seed with None -> spec | Some n -> { spec with fs_seed = n })

let pp fmt s =
  Format.fprintf fmt "drop=%g,dup=%g,reorder=%g,delay=%g@%g" s.fs_drop s.fs_dup
    s.fs_reorder s.fs_delay s.fs_spike;
  List.iter (fun (m, t) -> Format.fprintf fmt ",crash=%d@%g" m t) s.fs_crashes;
  Format.fprintf fmt ",seed=%d" s.fs_seed

type verdict = {
  v_drop : bool;
  v_dup : bool;
  v_reorder : bool;
  v_delay : float;
}

let clean = { v_drop = false; v_dup = false; v_reorder = false; v_delay = 0.0 }

type stats = {
  mutable st_dropped : int;
  mutable st_duplicated : int;
  mutable st_delayed : int;
}

type t = {
  sp : spec;
  streams : (int, Random.State.t) Hashtbl.t;  (* per-sender PRNG *)
  st : stats;
}

let make sp =
  {
    sp;
    streams = Hashtbl.create 8;
    st = { st_dropped = 0; st_duplicated = 0; st_delayed = 0 };
  }

let spec t = t.sp

let stats t = t.st

let stream t src =
  match Hashtbl.find_opt t.streams src with
  | Some s -> s
  | None ->
      (* splitmix-style mixing so neighbouring (seed, src) pairs diverge *)
      let s =
        Random.State.make
          [| t.sp.fs_seed; (src * 0x9e3779b9) lxor (t.sp.fs_seed * 0x85ebca6b) |]
      in
      Hashtbl.add t.streams src s;
      s

let judge t ~src ~dst =
  ignore dst;
  let sp = t.sp in
  if not (sp.fs_drop > 0.0 || sp.fs_dup > 0.0 || sp.fs_reorder > 0.0 || sp.fs_delay > 0.0)
  then clean
  else begin
    let rng = stream t src in
    (* Always draw the same number of variates per message, so a decision on
       one message never shifts the stream seen by the next. *)
    let d = Random.State.float rng 1.0 in
    let u = Random.State.float rng 1.0 in
    let r = Random.State.float rng 1.0 in
    let y = Random.State.float rng 1.0 in
    let drop = d < sp.fs_drop in
    let dup = (not drop) && u < sp.fs_dup in
    let reorder = (not drop) && r < sp.fs_reorder in
    let spike = (not drop) && y < sp.fs_delay in
    let delay =
      (if reorder then sp.fs_reorder_window else 0.0)
      +. if spike then sp.fs_spike else 0.0
    in
    if drop then t.st.st_dropped <- t.st.st_dropped + 1;
    if dup then t.st.st_duplicated <- t.st.st_duplicated + 1;
    if reorder || spike then t.st.st_delayed <- t.st.st_delayed + 1;
    { v_drop = drop; v_dup = dup; v_reorder = reorder; v_delay = delay }
  end

open Pag_obs

let render ?(width = 72) ?(max_arrows = 12) ?(overlay = []) ~names log =
  let buf = Buffer.create 1024 in
  let horizon = ref 0.0 and flows = ref 0 in
  let pid_set = Hashtbl.create 16 in
  let note pid = Hashtbl.replace pid_set pid () in
  Obs.iter log (fun e ->
      match e.Obs.e_kind with
      | Obs.Instant -> ()
      | Obs.Span | Obs.Flow ->
          note e.Obs.e_pid;
          if e.Obs.e_kind = Obs.Flow then begin
            note e.Obs.e_dst;
            incr flows
          end;
          if e.Obs.e_t1 > !horizon then horizon := e.Obs.e_t1);
  let horizon = !horizon in
  if horizon <= 0.0 then "(empty trace)"
  else begin
    let pids =
      List.sort compare (Hashtbl.fold (fun pid () acc -> pid :: acc) pid_set [])
    in
    let name_w =
      List.fold_left (fun w pid -> max w (String.length (names pid))) 4 pids
    in
    let x_of time =
      min (width - 1)
        (int_of_float (time /. horizon *. float_of_int width))
    in
    Buffer.add_string buf
      (Printf.sprintf "%*s 0%s%.3fs\n" name_w ""
         (String.make (width - String.length (Printf.sprintf "%.3fs" horizon) - 1) ' ')
         horizon);
    List.iter
      (fun pid ->
        let row = Bytes.make width ' ' in
        Obs.iter log (fun e ->
            if e.Obs.e_kind = Obs.Span && e.Obs.e_pid = pid then
              let paint c =
                for x = x_of e.Obs.e_t0 to x_of e.Obs.e_t1 do
                  (* active periods win over idle ones at shared cells *)
                  if c = '#' || Bytes.get row x = ' ' then Bytes.set row x c
                done
              in
              match e.Obs.e_name with
              | "active" -> paint '#'
              | "idle" -> paint '.'
              | _ -> ());
        List.iter
          (fun (opid, t0, t1) ->
            if opid = pid then
              for x = x_of t0 to x_of t1 do
                Bytes.set row x '*'
              done)
          overlay;
        Obs.iter log (fun e ->
            if e.Obs.e_kind = Obs.Instant && e.Obs.e_pid = pid then
              Bytes.set row (x_of e.Obs.e_t0) '|');
        Buffer.add_string buf
          (Printf.sprintf "%*s %s\n" name_w (names pid) (Bytes.to_string row)))
      pids;
    let n = !flows in
    Buffer.add_string buf (Printf.sprintf "messages: %d\n" n);
    let i = ref 0 in
    Obs.iter log (fun e ->
        if e.Obs.e_kind = Obs.Flow then begin
          if !i < max_arrows then
            Buffer.add_string buf
              (Printf.sprintf "  %8.4fs  %s -> %s%s\n" e.Obs.e_t0
                 (names e.Obs.e_pid) (names e.Obs.e_dst)
                 (if e.Obs.e_name = "" then ""
                  else "  (" ^ e.Obs.e_name ^ ")"));
          incr i
        end);
    if n > max_arrows then
      Buffer.add_string buf (Printf.sprintf "  ... and %d more\n" (n - max_arrows));
    Obs.iter log (fun e ->
        if e.Obs.e_kind = Obs.Instant then
          Buffer.add_string buf
            (Printf.sprintf "  mark %8.4fs %s: %s\n" e.Obs.e_t0
               (names e.Obs.e_pid) e.Obs.e_name));
    Buffer.contents buf
  end

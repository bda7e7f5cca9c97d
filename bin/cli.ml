(* Command-line values shared by pagc and agrun. A run size out of range is
   a usage error naming its flag (cmdliner's usage exit), never an
   exception from deep inside the run. *)

open Cmdliner

let checked ~what parse pp =
  Arg.conv
    ( (fun s ->
        match parse s with
        | Some v -> Ok v
        | None -> Error (`Msg (Printf.sprintf "%S: expected %s" s what))),
      pp )

(* Machine counts and batch sizes. *)
let positive_int =
  checked ~what:"an integer of at least 1"
    (fun s ->
      match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)
    Format.pp_print_int

(* Scale factors: NaN and infinity are not sizes. *)
let positive_float =
  checked ~what:"a finite number above 0"
    (fun s ->
      match float_of_string_opt s with
      | Some x when Float.is_finite x && x > 0.0 -> Some x
      | _ -> None)
    Format.pp_print_float

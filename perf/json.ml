(* Just enough JSON for the benchmark's own result lines (objects, strings,
   numbers, booleans): numbers are written with every digit, and --compare
   reads the lines back. *)

type t = Bool of bool | Num of float | Str of string | Obj of (string * t) list

exception Error of string

(* Every digit of a finite value; a run without one successful op has none
   to report, prints 0 and is not correct. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let str s = "\"" ^ Pag_obs.Obs.Json.escape s ^ "\""

let obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) kvs) ^ "}"

let parse s =
  let n = String.length s and i = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at offset %d" what !i)) in
  let rec ws () =
    if !i < n && String.contains " \t\r\n" s.[!i] then begin
      incr i;
      ws ()
    end
  in
  let expect c =
    if !i < n && s.[!i] = c then incr i
    else fail (Printf.sprintf "expected %c" c)
  in
  let word w v =
    let len = String.length w in
    if !i + len <= n && String.sub s !i len = w then begin
      i := !i + len;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !i >= n then fail "bad escape";
          let e = s.[!i] in
          incr i;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
        incr i;
        ws ();
        if !i < n && s.[!i] = '}' then (incr i; Obj [])
        else
          let rec fields acc =
            ws ();
            let k = string () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            if !i < n && s.[!i] = ',' then (incr i; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '"' -> Str (string ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | _ ->
        let j = !i in
        while !i < n && String.contains "+-0123456789.eE" s.[!i] do
          incr i
        done;
        (match float_of_string_opt (String.sub s j (!i - j)) with
        | Some v -> Num v
        | None -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !i <> n then fail "trailing characters";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_num = function Num v -> v | _ -> raise (Error "expected a number")

open Pag_util

let qc ?(count = 200) name gen prop = Qc_seed.qc ~count name gen prop

(* Generator for ropes with known flattened content. *)
let rope_gen =
  let open QCheck.Gen in
  let leaf = map Rope.of_string (string_size ~gen:printable (int_bound 12)) in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          (3, map2 Rope.concat (tree (depth - 1)) (tree (depth - 1)));
        ]
  in
  tree 6

let arb_rope = QCheck.make ~print:Rope.to_string rope_gen

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_empty () =
  check_str "empty flattens to \"\"" "" (Rope.to_string Rope.empty);
  check_int "empty length" 0 (Rope.length Rope.empty);
  check_bool "is_empty" true (Rope.is_empty Rope.empty)

let test_of_string () =
  check_str "round trip" "hello" (Rope.to_string (Rope.of_string "hello"));
  check_int "length" 5 (Rope.length (Rope.of_string "hello"))

let test_concat_basic () =
  let r = Rope.concat (Rope.of_string "foo") (Rope.of_string "bar") in
  check_str "foo ^ bar" "foobar" (Rope.to_string r);
  check_int "length" 6 (Rope.length r)

let test_concat_empty_identity () =
  let r = Rope.of_string "x" in
  check_bool "left identity" true (Rope.equal r (Rope.concat Rope.empty r));
  check_bool "right identity" true (Rope.equal r (Rope.concat r Rope.empty));
  (* identity concat must not grow the tree *)
  check_int "no extra depth" (Rope.depth r)
    (Rope.depth (Rope.concat Rope.empty r))

let test_concat_list () =
  let parts = [ "a"; "bb"; "ccc"; "dddd"; "e" ] in
  let r = Rope.concat_list (List.map Rope.of_string parts) in
  check_str "concat_list" (String.concat "" parts) (Rope.to_string r)

let test_concat_list_balanced () =
  let n = 1024 in
  let parts = List.init n (fun _ -> Rope.of_string "x") in
  let r = Rope.concat_list parts in
  check_int "length" n (Rope.length r);
  check_bool "depth is logarithmic" true (Rope.depth r <= 12)

let test_deep_left_lean () =
  (* A pathological left-leaning rope must not blow the stack. *)
  let n = 200_000 in
  let r = ref Rope.empty in
  for _ = 1 to n do
    r := Rope.concat !r (Rope.of_string "a")
  done;
  check_int "length" n (Rope.length !r);
  check_int "flattened length" n (String.length (Rope.to_string !r))

let test_deep_right_lean () =
  let n = 200_000 in
  let r = ref Rope.empty in
  for _ = 1 to n do
    r := Rope.concat (Rope.of_string "b") !r
  done;
  check_int "length" n (Rope.length !r);
  check_bool "equal to itself" true (Rope.equal !r !r)

let test_iter_chunks_order () =
  let r =
    Rope.concat
      (Rope.concat (Rope.of_string "ab") (Rope.of_string "cd"))
      (Rope.of_string "ef")
  in
  let buf = Buffer.create 8 in
  Rope.iter_chunks (Buffer.add_string buf) r;
  check_str "left-to-right" "abcdef" (Buffer.contents buf)

let test_leaf_count () =
  let r = Rope.concat (Rope.of_string "a") (Rope.of_string "") in
  (* empty operand is dropped by concat *)
  check_int "leaf count skips empties" 1 (Rope.leaf_count r)

let test_compare_prefix () =
  let a = Rope.of_string "abc" and b = Rope.of_string "abcd" in
  check_bool "prefix is smaller" true (Rope.compare a b < 0);
  check_bool "reverse" true (Rope.compare b a > 0)

let test_compare_chunk_boundaries () =
  (* Same content, different tree shape: compare must be 0. *)
  let a = Rope.concat (Rope.of_string "ab") (Rope.of_string "cde")
  and b = Rope.concat (Rope.of_string "abcd") (Rope.of_string "e") in
  check_int "equal content across shapes" 0 (Rope.compare a b);
  check_bool "equal" true (Rope.equal a b)

let test_output () =
  let file = Filename.temp_file "rope" ".txt" in
  let oc = open_out file in
  Rope.output oc (Rope.concat (Rope.of_string "he") (Rope.of_string "llo"));
  close_out oc;
  let ic = open_in file in
  let line = input_line ic in
  close_in ic;
  Sys.remove file;
  check_str "output" "hello" line

let prop_flatten_concat =
  qc "to_string distributes over concat"
    QCheck.(pair arb_rope arb_rope)
    (fun (a, b) ->
      Rope.to_string (Rope.concat a b) = Rope.to_string a ^ Rope.to_string b)

let prop_length =
  qc "length = flattened length" arb_rope (fun r ->
      Rope.length r = String.length (Rope.to_string r))

let prop_equal_content =
  qc "equal iff same content"
    QCheck.(pair arb_rope arb_rope)
    (fun (a, b) -> Rope.equal a b = (Rope.to_string a = Rope.to_string b))

let prop_compare_content =
  qc "compare agrees with string compare"
    QCheck.(pair arb_rope arb_rope)
    (fun (a, b) ->
      Stdlib.compare
        (Rope.compare a b > 0, Rope.compare a b < 0)
        ( String.compare (Rope.to_string a) (Rope.to_string b) > 0,
          String.compare (Rope.to_string a) (Rope.to_string b) < 0 )
      = 0)

let prop_assoc =
  qc "concat is associative on content"
    QCheck.(triple arb_rope arb_rope arb_rope)
    (fun (a, b, c) ->
      Rope.equal
        (Rope.concat (Rope.concat a b) c)
        (Rope.concat a (Rope.concat b c)))

(* A rope built through [concat] alone, with its text: a random concat
   tree over leaves of up to 90 bytes (so some seams merge), or a left- or
   right-leaning chain of two-leaf pieces whose leaves are too long to
   merge, the shape of a long code chain. *)
let built_rope =
  let open QCheck.Gen in
  let leaf n = map (fun s -> (Rope.of_string s, s)) (string_size ~gen:printable n) in
  let cat (ra, sa) (rb, sb) = (Rope.concat ra rb, sa ^ sb) in
  let rec tree d =
    if d = 0 then leaf (int_bound 90)
    else
      frequency [ (1, leaf (int_bound 90)); (3, map2 cat (tree (d - 1)) (tree (d - 1))) ]
  in
  let piece = map2 cat (leaf (int_range 65 80)) (leaf (int_range 65 80)) in
  let chain step =
    let* n = int_bound 300 in
    let+ ps = list_repeat n piece in
    List.fold_left step (Rope.empty, "") ps
  in
  oneof [ tree 8; chain cat; chain (fun acc p -> cat p acc) ]

(* Children differ in height by at most 2, so a rope of n leaves is at most
   about 1.81 log2 n deep; 2 log2 (n + 1) bounds every such height. *)
let prop_balanced =
  qc "concat keeps text and a logarithmic depth"
    (QCheck.make
       ~print:(fun (r, s) ->
         Printf.sprintf "%d bytes, depth %d, %d leaves" (String.length s)
           (Rope.depth r) (Rope.leaf_count r))
       built_rope)
    (fun (r, s) ->
      Rope.to_string r = s
      && float_of_int (Rope.depth r)
         <= 2. *. Float.log2 (float_of_int (Rope.leaf_count r + 1)))

(* A left-leaning chain costs O(log n) per step, not a copy of the text so
   far: 6,400 steps allocated about 155M minor words when concat rebuilt
   deep ropes by flattening them. *)
let test_chain_cost () =
  let a = Rope.of_string (String.make 100 'a')
  and b = Rope.of_string (String.make 100 'b') in
  let before = Gc.minor_words () in
  let r = ref Rope.empty in
  for _ = 1 to 6400 do
    r := Rope.concat !r (Rope.concat a b)
  done;
  let words = Gc.minor_words () -. before in
  check_int "length" (6400 * 200) (Rope.length !r);
  check_bool
    (Printf.sprintf "%.0f minor words under 2M" words)
    true (words < 2e6)

(* Rope pairs for the comparison kernels: a base text over a small
   alphabet (long equal runs, bytes on both sides of 0x80) and a variant —
   the same text, one byte changed, a prefix or an extension, each cut
   into leaves at its own random points so leaf boundaries rarely align
   and reusing the base's physical leaf wherever it holds the same bytes
   at the same offset; or the base's own leaves behind a short new prefix,
   so one physical string sits at different offsets of the two texts.
   [concat_list] keeps the leaves as they are. The texts run to 40 bytes
   and a change can fall anywhere, either side of an 8-byte word
   boundary. *)
let kernel_pair =
  let open QCheck.Gen in
  let text n =
    string_size ~gen:(oneofl [ 'a'; 'b'; '\000'; '\255' ]) (return n)
  in
  let cut s =
    let+ cuts = list_size (int_bound 4) (int_bound (String.length s)) in
    let cuts = List.sort_uniq compare (0 :: String.length s :: cuts) in
    let rec go = function
      | a :: (b :: _ as rest) -> String.sub s a (b - a) :: go rest
      | _ -> []
    in
    go cuts
  in
  let* n = int_bound 40 in
  let* s = text n in
  let* la = cut s in
  (* [la]'s leaf where it spells [l] at offset [o], [l] itself else *)
  let share o l =
    let rec find o' = function
      | l' :: rest ->
          if o' = o && String.equal l l' then l'
          else find (o' + String.length l') rest
      | [] -> l
    in
    find 0 la
  in
  let same_offsets t =
    let+ lt = cut t in
    List.rev
      (snd
         (List.fold_left
            (fun (o, acc) l -> (o + String.length l, share o l :: acc))
            (0, []) lt))
  in
  let* lb =
    oneof
      [
        same_offsets s;
        (let* p = int_bound (max 0 (n - 1)) and* c = oneofl [ 'a'; '\255' ] in
         same_offsets (String.mapi (fun i x -> if i = p then c else x) s));
        (let* k = int_bound n in
         same_offsets (String.sub s 0 k));
        (let* e = text 5 in
         same_offsets (s ^ e));
        (let+ e = text 3 in
         e :: la);
      ]
  in
  let rope ls = Rope.concat_list (List.map Rope.of_string ls) in
  return (rope la, rope lb)

let prop_kernels_match_strings =
  qc ~count:1000 "compare/equal = String.compare/equal"
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "%S vs %S" (Rope.to_string a) (Rope.to_string b))
       kernel_pair)
    (fun (a, b) ->
      let sa = Rope.to_string a and sb = Rope.to_string b in
      let sign x = compare x 0 in
      sign (Rope.compare a b) = sign (String.compare sa sb)
      && sign (Rope.compare b a) = sign (String.compare sb sa)
      && Rope.equal a b = String.equal sa sb
      && Rope.equal b a = String.equal sb sa)

let suite =
  [
    ( "rope",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "of_string" `Quick test_of_string;
        Alcotest.test_case "concat basic" `Quick test_concat_basic;
        Alcotest.test_case "concat identity" `Quick test_concat_empty_identity;
        Alcotest.test_case "concat_list" `Quick test_concat_list;
        Alcotest.test_case "concat_list balanced" `Quick
          test_concat_list_balanced;
        Alcotest.test_case "deep left lean" `Quick test_deep_left_lean;
        Alcotest.test_case "deep right lean" `Quick test_deep_right_lean;
        Alcotest.test_case "iter order" `Quick test_iter_chunks_order;
        Alcotest.test_case "leaf count" `Quick test_leaf_count;
        Alcotest.test_case "compare prefix" `Quick test_compare_prefix;
        Alcotest.test_case "compare shapes" `Quick
          test_compare_chunk_boundaries;
        Alcotest.test_case "output" `Quick test_output;
        Alcotest.test_case "chain cost" `Quick test_chain_cost;
        prop_flatten_concat;
        prop_length;
        prop_equal_content;
        prop_compare_content;
        prop_assoc;
        prop_balanced;
        prop_kernels_match_strings;
      ] );
  ]

(* The interning arenas keep no value alive: the live heap after a full
   collection stays bounded while a stream of distinct values, or a
   resident [--dag] session's edits, intern new values. These tests run in
   their own process, which spawns no domain: a full collection in a
   process whose domains interned many new values can spin forever in the
   runtime. *)

open Pag_core
open Pag_eval
open Pag_grammars

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* A stream of distinct values, interned and dropped, in rounds, with a
   full collection after each. An arena that kept them would grow by about
   40 words per value every round; after the first round, the later rounds
   may add less than 4 words per value they interned. The arena's table is
   sized for the values alive at once, here one round's. *)
let test_distinct_stream_bounded () =
  let n = 5_000 and rounds = 20 in
  let first = ref 0 and last = ref 0 in
  for round = 1 to rounds do
    for i = 0 to n - 1 do
      let k = (round * 10_000_000) + i in
      ignore (Value.intern (Value.Pair (Value.Int k, Value.str (string_of_int k))))
    done;
    last := live_words ();
    if round = 1 then first := !last
  done;
  let bound = 4 * n * (rounds - 1) in
  check_bool
    (Printf.sprintf "%d words after round 1 (bound %d)" (!last - !first) bound)
    true
    (!last - !first < bound)

(* A resident [--dag] session over 300 edits, each binding the outermost of
   40 nested lets to a new number: every level's inherited symbol table is
   new, and the DAG interns each as a gate fingerprint. An arena that kept
   them would grow by about a thousand words per edit; from edit 100 to
   300 the live words may grow by 40k words in all. *)
let test_dag_session_bounded () =
  let unit_ () =
    Expr_ag.mul (Expr_ag.add (Expr_ag.var "x1") (Expr_ag.num 7)) (Expr_ag.num 3)
  in
  let program k =
    let rec level j =
      if j > 40 then unit_ ()
      else
        Expr_ag.let_in ("x" ^ string_of_int j)
          (Expr_ag.num (if j = 1 then k else j))
          (Expr_ag.add (unit_ ()) (level (j + 1)))
    in
    Expr_ag.main (level 1)
  in
  let s = Incr.start ~dag:true Expr_ag.grammar (program 0) in
  let at_100 = ref 0 and last = ref 0 in
  for e = 1 to 300 do
    ignore (Incr.edit s (program (1000 + e)));
    if e mod 10 = 0 then last := live_words ();
    if e = 100 then at_100 := !last
  done;
  check_int "root value = reference semantics"
    (Expr_ag.reference_value (Incr.tree s))
    (Value.as_int ~ctx:"test"
       (List.assoc "value" (Store.root_attrs (Incr.store s))));
  check_bool
    (Printf.sprintf "%d words from edit 100 to 300 (bound 40000)" (!last - !at_100))
    true
    (!last - !at_100 < 40_000)

let () =
  Alcotest.run "arena"
    [
      ( "arena",
        [
          Alcotest.test_case "distinct stream: live words bounded" `Quick
            test_distinct_stream_bounded;
          Alcotest.test_case "resident --dag session: live words bounded"
            `Quick test_dag_session_bounded;
        ] );
    ]

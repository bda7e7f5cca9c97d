(* Edit sessions: the distributed wave must preserve the incremental
   invariant (resident values = from-scratch values) while its census and
   latency stay sane — references never beat full shipping on size, the
   wave touches every boundary, and a no-op edit moves nothing. *)

open Pag_core
open Pag_eval
open Pag_grammars
open Pag_parallel

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let expr_of seed =
  Expr_ag.random_program (Random.State.make [| seed |]) ~depth:8

(* Small granularity so the expression tree actually decomposes. *)
let sp machines = Session.spec ~granularity:0.05 ~librarian:false machines

let session_agrees_with_scratch g es fresh =
  let scratch, _ = Dynamic.eval g fresh in
  Test_incr.values_agree g (Session.store es) (Session.tree es) scratch fresh

let test_edit_wave () =
  let g = Expr_ag.grammar in
  let es = Session.open_session (sp 4) g (expr_of 3) in
  let r = Session.edit es (expr_of 4) in
  check_bool "values = scratch" true (session_agrees_with_scratch g es (expr_of 4));
  check_bool "latency advanced" true (r.Session.er_latency > 0.0);
  check_bool "wave carried messages" true (r.Session.er_messages > 0);
  check_bool "boundary census covers the wave" true
    (r.Session.er_boundary_changed <= r.Session.er_boundary_total);
  check_bool "incremental wave smaller than full recompile" true
    (r.Session.er_bytes_incr < r.Session.er_bytes_full)

let test_identity_edit_moves_nothing () =
  let g = Expr_ag.grammar in
  let es = Session.open_session (sp 4) g (expr_of 3) in
  let r = Session.edit es (expr_of 3) in
  check_int "no messages" 0 r.Session.er_messages;
  check_int "no bytes" 0 r.Session.er_bytes_incr;
  check_bool "no latency" true (r.Session.er_latency = 0.0)

let test_edit_sequence () =
  let g = Expr_ag.grammar in
  let es = Session.open_session (sp 3) g (expr_of 10) in
  List.iter
    (fun seed ->
      ignore (Session.edit es (expr_of seed));
      check_bool
        (Printf.sprintf "values = scratch after seed %d" seed)
        true
        (session_agrees_with_scratch g es (expr_of seed)))
    [ 11; 12; 11; 13; 10 ];
  let t = Session.totals es in
  check_int "five edits recorded" 5 t.Incr.tot_edits

let test_single_machine () =
  let g = Expr_ag.grammar in
  let es = Session.open_session (sp 1) g (expr_of 3) in
  let r = Session.edit es (expr_of 4) in
  check_int "owner is the only fragment" 0 r.Session.er_owner;
  check_bool "values = scratch" true
    (session_agrees_with_scratch g es (expr_of 4));
  check_bool "root attrs still reported" true (r.Session.er_messages > 0)

(* A root-production change falls back, re-decomposes, and later subtree
   edits keep working against the fresh plan. *)
let test_root_change_then_edit () =
  let g = Expr_ag.grammar in
  let es = Session.open_session (sp 3) g (Test_incr.expr_a ()) in
  let r1 = Session.edit es (Test_incr.expr_c ()) in
  check_bool "root change fell back" true r1.Session.er_fallback;
  check_bool "values = scratch" true
    (session_agrees_with_scratch g es (Test_incr.expr_c ()));
  let r2 = Session.edit es (expr_of 4) in
  ignore r2;
  check_bool "values = scratch after re-plan" true
    (session_agrees_with_scratch g es (expr_of 4))

(* Successive small edits leave the resident tree carrying appended
   (non-preorder) node ids; re-decomposing between edits must not renumber
   them out from under the store. Pascal single-statement edits force
   Subtree deltas (an Expr random edit usually differs at the root and
   takes the fallback rebuild, which hides id drift). *)
let test_pascal_edit_sequence () =
  let g = Pascal.Pascal_ag.grammar in
  let src k =
    Printf.sprintf
      "program p;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
      \  repeat\n    i := i * %d;\n    s := s + i\n  until i > 100;\n\
      \  write(s)\nend.\n"
      k
  in
  let tree k =
    Pascal.Pascal_ag.tree_of_program g (Pascal.Parser.parse_program (src k))
  in
  let es =
    Session.open_session
      (Session.spec ~granularity:0.1 ~librarian:false 3)
      g (tree 2)
  in
  List.iter
    (fun k ->
      let r = Session.edit es (tree k) in
      check_bool
        (Printf.sprintf "subtree delta for * %d" k)
        false r.Session.er_fallback;
      let scratch, _ = Dynamic.eval g (tree k) in
      let masked st =
        Pascal.Driver.mask_labels
          (Pascal.Pascal_ag.code_of_attrs (Store.root_attrs st))
      in
      check_bool
        (Printf.sprintf "code = scratch after * %d" k)
        true
        (String.equal (masked (Session.store es)) (masked scratch)))
    [ 3; 5; 2; 7 ]

(* Resident-store leak regression: every Subtree edit appends the
   replacement's slots to the flat store and detaches the old ones; before
   dead-weight compaction the store grew without bound while the session
   sat resident. A long alternating edit stream must keep the live
   footprint flat and the backing store within the compaction bound
   (slot_count <= 2x live at the trigger, +1 subtree in flight => 3x). *)
let test_resident_store_stays_bounded () =
  let g = Pascal.Pascal_ag.grammar in
  (* the two bodies differ structurally, so each edit takes the
     append-a-replacement path (a token-level change like [* 2] vs [* 3]
     redefines slots in place and never grows the store) *)
  let src rhs =
    Printf.sprintf
      "program p;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
      \  repeat\n    i := i * 2;\n    s := %s\n  until i > 100;\n\
      \  write(s)\nend.\n"
      rhs
  in
  let tree rhs =
    Pascal.Pascal_ag.tree_of_program g (Pascal.Parser.parse_program (src rhs))
  in
  let es =
    Session.open_session
      (Session.spec ~granularity:0.1 ~librarian:false 2)
      g (tree "s + i")
  in
  let live0 = Session.live_slots es in
  ignore (Session.edit es (tree "s + i * 2"));
  let live1 = Session.live_slots es in
  let cap = 3 * max live0 live1 in
  for i = 2 to 100 do
    ignore (Session.edit es (tree (if i mod 2 = 0 then "s + i" else "s + i * 2")));
    check_int "live slots stable"
      (if i mod 2 = 0 then live0 else live1)
      (Session.live_slots es);
    check_bool
      (Printf.sprintf "store bounded after edit %d" i)
      true
      (Store.slot_count (Session.store es) <= cap)
  done;
  check_bool "compaction actually triggered" true
    ((Session.totals es).Incr.tot_fallbacks >= 1)

(* Batched waves: same finals as serial edits, one priced wave per merged
   cone (fewer messages than per-edit waves), sane census — across all
   three instance schedules. Crafted edits (fresh trees per use — grafting
   renumbers replacement nodes) with a generous frontier so tiny trees
   don't take the rebuild fallback. *)
let test_batched_wave () =
  let g = Expr_ag.grammar in
  (* edit 1 and 2 touch disjoint num leaves and merge into one wave;
     edit 3 replaces the whole left mul, whose old subtree carries edit 1's
     grafted num — structural interference, so it serializes. *)
  let steps =
    [
      (fun () -> Test_incr.indep_base 9 2 3 4);
      (fun () -> Test_incr.indep_base 9 2 7 4);
      (fun () ->
        Expr_ag.(main (add (mul (num 5) (num 6)) (mul (num 7) (num 4)))));
    ]
  in
  let tree step = step () in
  List.iter
    (fun schedule ->
      let spec = Session.spec ~granularity:0.05 ~librarian:false ~schedule 3 in
      let eb =
        Session.open_session ~frontier:1.1 spec g (Test_incr.indep_base 1 2 3 4)
      in
      let es =
        Session.open_session ~frontier:1.1 spec g (Test_incr.indep_base 1 2 3 4)
      in
      let serial_msgs =
        List.fold_left
          (fun acc step ->
            acc + (Session.edit es (tree step)).Session.er_messages)
          0 steps
      in
      let r = Session.edit_batch eb (List.map tree steps) in
      check_int "three edits in the batch" 3 r.Session.br_edits;
      check_bool "batch ran waves" true (r.Session.br_waves >= 1);
      check_bool "conflict serialized into a follow-up wave" true
        (r.Session.br_conflicts >= 1);
      check_bool "latency advanced" true (r.Session.br_latency > 0.0);
      check_bool "boundary census sane" true
        (r.Session.br_boundary_changed <= r.Session.br_boundary_total);
      check_bool "merged waves ship fewer messages than serial edits" true
        (r.Session.br_messages < serial_msgs);
      check_bool "batched finals = serial finals" true
        (Test_incr.values_agree g (Session.store eb) (Session.tree eb)
           (Session.store es) (Session.tree es));
      check_bool "values = scratch" true
        (session_agrees_with_scratch g eb (tree (List.nth steps 2))))
    [ `Static; `Dynamic; `Steal ]

let test_batched_identity () =
  let g = Expr_ag.grammar in
  let es = Session.open_session (sp 4) g (expr_of 3) in
  let r = Session.edit_batch es [ expr_of 3; expr_of 3 ] in
  check_int "no messages" 0 r.Session.br_messages;
  check_int "no bytes" 0 r.Session.br_bytes;
  check_bool "no latency" true (r.Session.br_latency = 0.0)

(* A root-level replacement ships the whole new tree, batched or not: a
   one-edit batch whose diff is [Root] (the program's name and body both
   change) prices at least the new tree's bytes, and no less than the
   same edit applied singly, which ships the tree too. *)
let test_batched_root_ships_tree () =
  let g = Pascal.Pascal_ag.grammar in
  let src name k =
    Printf.sprintf
      "program %s;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
      \  repeat\n    i := i * %d;\n    s := s + i\n  until i > 100;\n\
      \  write(s)\nend.\n"
      name k
  in
  let tree name k =
    Pascal.Pascal_ag.tree_of_program g (Pascal.Parser.parse_program (src name k))
  in
  let open_one () =
    Session.open_session
      (Session.spec ~granularity:0.1 ~librarian:false 3)
      g (tree "p" 2)
  in
  let eb = open_one () and es = open_one () in
  check_bool "a root-level diff" true
    (match Pag_core.Tree.diff (Session.tree eb) (tree "q" 3) with
    | Pag_core.Tree.Root -> true
    | _ -> false);
  let r = Session.edit_batch eb [ tree "q" 3 ] in
  let single = Session.edit es (tree "q" 3) in
  check_int "one rebuild" 1 r.Session.br_fallbacks;
  check_bool "dispatch carries the new tree" true
    (r.Session.br_bytes >= Pag_core.Tree.byte_size (tree "q" 3));
  check_bool "no cheaper than the single edit" true
    (r.Session.br_bytes >= single.Session.er_bytes_incr)

(* A batch whose waves are followed by a rebuild: six independent edit
   sites, site 0 edited twice (the second edit conflicts and flushes a
   wave), then a rename that also edits site 5 (a root-level diff, so a
   rebuild). The rebuild's re-fires run outside the refire rounds, at the
   owner's dynamic-rule cost, so the batch costs at least its root-level
   edit alone. *)
let test_batch_prices_its_rebuild () =
  let g = Pascal.Pascal_ag.grammar in
  let src name cs =
    let stmts = List.map (Printf.sprintf "    s := s + i * %d") cs in
    Printf.sprintf
      "program %s;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
      \  repeat\n    i := i * 2;\n%s\n  until i > 100;\n  write(s)\nend.\n"
      name
      (String.concat ";\n" stmts)
  in
  let tree name cs =
    Pascal.Pascal_ag.tree_of_program g (Pascal.Parser.parse_program (src name cs))
  in
  let open_one () =
    Session.open_session ~frontier:1.0
      (Session.spec ~granularity:0.05 ~librarian:false ~schedule:`Steal 1)
      g
      (tree "p" [ 2; 3; 4; 5; 6; 7 ])
  in
  let renamed () = tree "q" [ 10; 3; 4; 5; 6; 8 ] in
  let r =
    Session.edit_batch (open_one ())
      [ tree "p" [ 9; 3; 4; 5; 6; 7 ]; tree "p" [ 10; 3; 4; 5; 6; 7 ]; renamed () ]
  in
  let alone = Session.edit_batch (open_one ()) [ renamed () ] in
  check_int "one rebuild" 1 r.Session.br_fallbacks;
  check_bool "a conflict flushed a wave" true (r.Session.br_conflicts >= 1);
  check_bool "some re-fires ran in rounds" true (r.Session.br_rounds > 0);
  check_bool
    (Printf.sprintf "batch %.4fs >= its root-level edit alone %.4fs"
       r.Session.br_latency alone.Session.br_latency)
    true
    (r.Session.br_latency >= alone.Session.br_latency)

(* The resident plan a single edit leaves behind is the plan
   [Split.decompose] builds for the edited tree — whether the edit kept it
   (a literal edit cannot move a split point or a byte) or rebuilt it — and
   the full-recompile byte count read off its fragments is the one the
   whole tree's [Tree.byte_size] gives. The stream mixes literal edits,
   a statement that changes size, a rename that keeps the node count but
   not the bytes, swapped statements (a replaced subtree holding split
   points with the same count and bytes), a literal edit of a constant
   whose cone overflows the frontier (a rebuild renumbers nodes that
   earlier grafts left out of preorder), and enough structural edits to
   trigger compaction. *)
let test_kept_plan_is_decompose () =
  let g = Pascal.Pascal_ag.grammar in
  let machines = 3 and granularity = 0.1 in
  let src ~limit ~times ~scale ~a ~b =
    Printf.sprintf
      "program p;\nconst limit = %d;\nvar i, s, total : integer;\n\
       procedure bump(k : integer);\nbegin\n  total := total + k;\n\
      \  total := total * %d\nend;\n\
       begin\n  s := 0;\n  total := 0;\n  i := 1;\n  repeat\n\
      \    i := i * %d;\n    %s;\n    %s;\n    bump(i)\n\
      \  until i > limit;\n  write(s);\n  write(total)\nend.\n"
      limit scale times a b
  in
  let tree ?(limit = 100) ?(times = 2) ?(scale = 2) ?(a = "s := s + i")
      ?(b = "total := total + 1") () =
    Pascal.Pascal_ag.tree_of_program g
      (Pascal.Parser.parse_program (src ~limit ~times ~scale ~a ~b))
  in
  let es =
    Session.open_session ~frontier:0.5
      (Session.spec ~granularity ~librarian:false machines)
      g (tree ())
  in
  check_bool "the program decomposes" true (Split.count (Session.plan es) > 1);
  let same_plan what =
    let kept = Session.plan es in
    let fresh = Split.decompose g (Session.tree es) ~machines ~granularity in
    check_int (what ^ ": count") (Split.count fresh) (Split.count kept);
    Array.iter2
      (fun (k : Split.fragment) (f : Split.fragment) ->
        check_bool (what ^ ": fr_root") true
          (k.Split.fr_root == f.Split.fr_root);
        Alcotest.(check (option int))
          (what ^ ": fr_parent") f.Split.fr_parent k.Split.fr_parent;
        check_int (what ^ ": fr_bytes") f.Split.fr_bytes k.Split.fr_bytes;
        let cuts = Split.cut_nodes kept k.Split.fr_id in
        check_bool (what ^ ": cut_nodes") true
          (List.equal ( == ) (Split.cut_nodes fresh f.Split.fr_id) cuts);
        List.iter
          (fun (c : Tree.t) ->
            Alcotest.(check (option int))
              (what ^ ": cut keyed by its current id")
              (Split.fragment_of_cut_node fresh c.Tree.id)
              (Split.fragment_of_cut_node kept c.Tree.id))
          cuts)
      (Split.fragments kept) (Split.fragments fresh)
  in
  (* [er_bytes_full] as the whole tree's bytes price it *)
  let bytes_full_by_tree () =
    let st = Session.store es and plan = Session.plan es in
    let full (n : Tree.t) kind =
      Array.fold_left
        (fun acc (a : Grammar.attr_decl) ->
          if a.Grammar.a_kind <> kind then acc
          else
            acc
            + Message.size
                (Message.Attr
                   {
                     node = n.Tree.id;
                     attr = a.Grammar.a_name;
                     value = Store.get st n a.Grammar.a_name;
                   }))
        0 (Grammar.symbol g n.Tree.sym).Grammar.s_attrs
    in
    Array.fold_left
      (fun acc (f : Split.fragment) ->
        match f.Split.fr_parent with
        | Some _ ->
            acc
            + full f.Split.fr_root Grammar.Syn
            + full f.Split.fr_root Grammar.Inh
        | None -> acc)
      ((Split.count plan * Message.header_bytes)
      + Tree.byte_size (Session.tree es)
      + full (Session.tree es) Grammar.Syn)
      (Split.fragments plan)
  in
  let edit ?(kept = false) ?(fallback = false) what next =
    let before = Session.plan es in
    let r = Session.edit es next in
    if kept then
      check_bool (what ^ ": plan kept") true (Session.plan es == before);
    if fallback then
      check_bool (what ^ ": fell back") true r.Session.er_fallback;
    same_plan what;
    check_int (what ^ ": bytes_full") (bytes_full_by_tree ())
      r.Session.er_bytes_full;
    r
  in
  ignore (edit ~kept:true "literal" (tree ~times:3 ()));
  ignore (edit ~kept:true "literal in a routine" (tree ~times:3 ~scale:5 ()));
  let a = "s := s + i * 2" in
  ignore (edit "statement grows" (tree ~times:3 ~scale:5 ~a ()));
  let a = "s := s + total * 2" in
  ignore (edit "rename" (tree ~times:3 ~scale:5 ~a ()));
  let a = "total := total + 1" and b = "s := s + total * 2" in
  ignore (edit "swapped statements" (tree ~times:3 ~scale:5 ~a ~b ()));
  ignore
    (edit ~kept:true "literal among grafts" (tree ~times:4 ~scale:5 ~a ~b ()));
  ignore
    (edit ~fallback:true "literal of a constant"
       (tree ~limit:200 ~times:4 ~scale:5 ~a ~b ()));
  (* alternate two sizes of one statement until the dead slots compact *)
  let k = ref 0 and compacted = ref false in
  while (not !compacted) && !k < 100 do
    incr k;
    let a =
      if !k mod 2 = 0 then "total := total + 1" else "total := total + i"
    in
    let r =
      edit (Printf.sprintf "structural edit %d" !k)
        (tree ~limit:200 ~times:4 ~scale:5 ~a ~b ())
    in
    compacted := r.Session.er_fallback
  done;
  check_bool "compaction after a run of grafts" true (!compacted && !k > 2)

let suite =
  [
    ( "session",
      [
        Alcotest.test_case "edit wave" `Quick test_edit_wave;
        Alcotest.test_case "identity edit" `Quick
          test_identity_edit_moves_nothing;
        Alcotest.test_case "edit sequence" `Quick test_edit_sequence;
        Alcotest.test_case "single machine" `Quick test_single_machine;
        Alcotest.test_case "root change then edit" `Quick
          test_root_change_then_edit;
        Alcotest.test_case "pascal edit sequence" `Quick
          test_pascal_edit_sequence;
        Alcotest.test_case "resident store stays bounded" `Quick
          test_resident_store_stays_bounded;
        Alcotest.test_case "batched wave" `Quick test_batched_wave;
        Alcotest.test_case "batched identity" `Quick test_batched_identity;
        Alcotest.test_case "batched root edit ships the tree" `Quick
          test_batched_root_ships_tree;
        Alcotest.test_case "kept plan is the decomposed plan" `Quick
          test_kept_plan_is_decompose;
        Alcotest.test_case "a batch prices its rebuild" `Quick
          test_batch_prices_its_rebuild;
      ] );
  ]

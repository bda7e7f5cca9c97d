(* Incremental re-evaluation: every edit sequence, evaluated incrementally,
   must land on exactly the attribute values a from-scratch evaluation of
   the edited tree computes — with the equality cutoff, the dirty-frontier
   fallback and hash-consing all in play. *)

open Pag_core
open Pag_eval
open Pag_grammars

let qc ?(count = 60) name gen prop = Qc_seed.qc ~count name gen prop

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Walk two structurally equal trees in lockstep and compare every
   attribute instance of the two stores. *)
let values_agree g sa ta sb tb =
  let ok = ref true in
  let rec go (a : Tree.t) (b : Tree.t) =
    (match a.Tree.prod with
    | None -> ()
    | Some _ ->
        let sym = Grammar.symbol g a.Tree.sym in
        Array.iter
          (fun (ad : Grammar.attr_decl) ->
            match
              ( Store.get_opt sa a ad.Grammar.a_name,
                Store.get_opt sb b ad.Grammar.a_name )
            with
            | Some x, Some y -> if not (Value.equal x y) then ok := false
            | _ -> ok := false)
          sym.Grammar.s_attrs);
    Array.iteri (fun i c -> go c b.Tree.children.(i)) a.Tree.children
  in
  go ta tb;
  !ok

(* Incremental session against a from-scratch dynamic evaluation of a
   structurally identical tree (same generator, same seed — never the same
   physical tree: evaluating it twice would renumber the session's nodes). *)
let agrees_with_scratch g session fresh =
  let scratch, _ = Dynamic.eval g fresh in
  values_agree g (Incr.store session) (Incr.tree session) scratch fresh

(* ---------------- deterministic cases (expr grammar) ---------------- *)

let expr_a () = Expr_ag.(main (add (num 1) (mul (num 2) (num 3))))
let expr_b () = Expr_ag.(main (add (num 1) (mul (num 5) (num 3))))
let expr_c () = Expr_ag.(main (let_in "x" (num 4) (add (var "x") (num 2))))

let test_single_edit () =
  let g = Expr_ag.grammar in
  let s = Incr.start g (expr_a ()) in
  let st = Incr.edit s (expr_b ()) in
  (* No fallback certifies the dirty cone stayed under the frontier — the
     edit really was handled incrementally. *)
  check_bool "no fallback" false (st.Incr.wv_fallbacks > 0);
  check_bool "something was dirty" true (st.Incr.wv_dirty > 0);
  check_bool "refired within the cone" true
    (st.Incr.wv_refired <= st.Incr.wv_dirty);
  check_bool "values = scratch" true (agrees_with_scratch g s (expr_b ()))

let test_identity_edit () =
  let g = Expr_ag.grammar in
  let s = Incr.start g (expr_a ()) in
  let st = Incr.edit s (expr_a ()) in
  check_int "nothing dirty" 0 st.Incr.wv_dirty;
  check_int "nothing refired" 0 st.Incr.wv_refired;
  check_bool "root not changed" false
    (Incr.changed s (Incr.tree s) "value")

let test_root_replacement_falls_back () =
  let g = Expr_ag.grammar in
  let s = Incr.start g (expr_a ()) in
  (* A different production at the root's child: the delta has no
     enclosing replacement site below the root. *)
  let _st = Incr.edit s (expr_c ()) in
  check_bool "values = scratch" true (agrees_with_scratch g s (expr_c ()))

let test_fallback_on_demand_is_correct () =
  let g = Expr_ag.grammar in
  let s = Incr.start ~frontier:0.0 g (expr_a ()) in
  let st = Incr.edit s (expr_b ()) in
  check_bool "fallback taken" true (st.Incr.wv_fallbacks > 0);
  check_bool "changed is conservative" true
    (Incr.changed s (Incr.tree s) "value");
  check_bool "values = scratch" true (agrees_with_scratch g s (expr_b ()))

(* ---------------- cutoff (repmin grammar) ---------------- *)

(* Editing a leaf that is not the minimum and stays above it leaves [min]
   at the root unchanged — the equality cutoff must stop propagation
   before the global res recomputation fans back out. *)
let repmin_tree hi =
  Repmin_ag.(root (fork (fork (leaf 1) (leaf hi)) (fork (leaf 7) (leaf 9))))

let test_cutoff_stops_propagation () =
  let g = Repmin_ag.grammar in
  (* The repmin cone is value-blind and spans the whole tree (min feeds
     back down as gmin), so disable the frontier: the cutoff is what keeps
     this edit cheap. *)
  let s = Incr.start ~frontier:1.1 g (repmin_tree 5) in
  let st = Incr.edit s (repmin_tree 6) in
  check_bool "no fallback" false (st.Incr.wv_fallbacks > 0);
  check_bool "cutoff hit" true (st.Incr.wv_cutoff > 0);
  check_bool "root res unchanged" false
    (Incr.changed s (Incr.tree s) "res");
  check_bool "values = scratch" true (agrees_with_scratch g s (repmin_tree 6))

let test_min_change_propagates () =
  let g = Repmin_ag.grammar in
  let s = Incr.start g (repmin_tree 5) in
  (* New global minimum: every res instance in the tree must move. *)
  let st = Incr.edit s (repmin_tree 0) in
  check_bool "root res changed" true (Incr.changed s (Incr.tree s) "res");
  check_bool "values = scratch" true (agrees_with_scratch g s (repmin_tree 0));
  ignore st

(* ---------------- properties ---------------- *)

let seq_arb =
  QCheck.make
    ~print:(fun (s0, edits) ->
      Printf.sprintf "base seed %d, edit seeds [%s]" s0
        (String.concat ";" (List.map string_of_int edits)))
    QCheck.Gen.(
      pair (int_bound 1_000_000) (list_size (1 -- 6) (int_bound 1_000_000)))

let expr_of seed =
  Expr_ag.random_program (Random.State.make [| seed |]) ~depth:5

let prop_expr_edit_sequences dag =
  qc
    (Printf.sprintf "expr edit sequences = from-scratch (dag %b)" dag)
    seq_arb
    (fun (s0, edits) ->
      let g = Expr_ag.grammar in
      let s = Incr.start ~dag g (expr_of s0) in
      List.for_all
        (fun seed ->
          ignore (Incr.edit s (expr_of seed));
          agrees_with_scratch g s (expr_of seed))
        edits)

let prop_random_ag_edit_sequences dag =
  qc ~count:40
    (Printf.sprintf "random AG edit sequences = from-scratch (dag %b)" dag)
    (QCheck.make
       ~print:(fun (gs, ts, edits) ->
         Printf.sprintf "grammar %d, base %d, edits [%s]" gs ts
           (String.concat ";" (List.map string_of_int edits)))
       QCheck.Gen.(
         triple (int_bound 1_000_000) (int_bound 1_000_000)
           (list_size (1 -- 5) (int_bound 1_000_000))))
    (fun (gseed, tseed, edits) ->
      let g = Test_random_ag.build_grammar (Random.State.make [| gseed |]) in
      let tree_of seed =
        Test_random_ag.build_tree (Random.State.make [| seed |]) g
      in
      (* Only noncircular bases are sessions; circular random grammars are
         covered by the evaluator-agreement suite. *)
      match Incr.start ~dag g (tree_of tseed) with
      | exception Engine.Cycle _ -> true
      | s ->
          (* Stop at the first cyclic edit: the session is not usable past
             an evaluation that could not complete. *)
          let rec go = function
            | [] -> true
            | seed :: rest -> (
                match Incr.edit s (tree_of seed) with
                | _ -> agrees_with_scratch g s (tree_of seed) && go rest
                | exception Engine.Cycle _ -> (
                    (* The edited tree is cyclic: scratch must agree. *)
                    match Dynamic.eval g (tree_of seed) with
                    | _ -> false
                    | exception Dynamic.Cycle _ -> true))
          in
          go edits)

let prop_tiny_frontier_always_agrees =
  qc ~count:30 "frontier 0: every edit falls back yet agrees" seq_arb
    (fun (s0, edits) ->
      let g = Expr_ag.grammar in
      let s = Incr.start ~frontier:0.0 g (expr_of s0) in
      List.for_all
        (fun seed ->
          let st = Incr.edit s (expr_of seed) in
          (st.Incr.wv_dirty = 0 || st.Incr.wv_fallbacks > 0)
          && agrees_with_scratch g s (expr_of seed))
        edits)

(* ---------------- batched edits ---------------- *)

(* Two edits under different parents (the two mul nodes): their dirty
   cones overlap only on the spine, which merges — one wave, no
   conflicts — and both application orders land bit-identical stores. *)
let indep_base a b c d =
  Expr_ag.(main (add (mul (num a) (num b)) (mul (num c) (num d))))

let test_batch_independent_pair () =
  let g = Expr_ag.grammar in
  List.iter
    (fun dag ->
      let s = Incr.start ~dag g (indep_base 1 2 3 4) in
      let wv = Incr.edit_batch s [ indep_base 9 2 3 4; indep_base 9 2 7 4 ] in
      check_int "one wave" 1 wv.Incr.wv_waves;
      check_int "no conflicts" 0 wv.Incr.wv_conflicts;
      check_int "two edits" 2 wv.Incr.wv_edits;
      check_int "no fallback" 0 wv.Incr.wv_fallbacks;
      check_bool "values = scratch" true
        (agrees_with_scratch g s (indep_base 9 2 7 4));
      (* the opposite application order lands the same store *)
      let s' = Incr.start ~dag g (indep_base 1 2 3 4) in
      ignore (Incr.edit_batch s' [ indep_base 1 2 7 4; indep_base 9 2 7 4 ]);
      check_bool "orders agree bit-for-bit" true
        (values_agree g (Incr.store s) (Incr.tree s) (Incr.store s')
           (Incr.tree s')))
    [ false; true ]

(* Two edits replacing the two children of the same parent: the second
   edit touches the first's replacement site, so the batch must degrade
   to serialized waves — and still land on the serial result. *)
let test_batch_conflicting_pair () =
  let g = Expr_ag.grammar in
  (* frontier off: a tiny tree's cone always trips the fallback, and a
     fallback rebuild would absorb the wave we want to observe *)
  let s = Incr.start ~frontier:1.1 g (indep_base 1 2 3 4) in
  (* both replacement sites share the add parent node: structural
     interference, so the second edit must flush into its own wave.
     Fresh trees per use — grafting renumbers the replacement nodes. *)
  let next1 () =
    Expr_ag.(main (add (mul (num 5) (num 6)) (mul (num 3) (num 4))))
  in
  let next2 () =
    Expr_ag.(main (add (mul (num 5) (num 6)) (mul (num 7) (num 8))))
  in
  let wv = Incr.edit_batch s [ next1 (); next2 () ] in
  check_int "no fallback" 0 wv.Incr.wv_fallbacks;
  check_bool "conflict detected" true (wv.Incr.wv_conflicts >= 1);
  check_bool "serialized into waves" true (wv.Incr.wv_waves >= 2);
  check_bool "values = scratch" true (agrees_with_scratch g s (next2 ()))

let test_batch_identity_and_root () =
  let g = Expr_ag.grammar in
  let s = Incr.start g (expr_a ()) in
  (* structural no-op inside a batch *)
  let wv = Incr.edit_batch s [ expr_a (); expr_b () ] in
  check_int "both edits counted" 2 wv.Incr.wv_edits;
  check_bool "values = scratch" true (agrees_with_scratch g s (expr_b ()));
  (* root-production change inside a batch falls back, then the batch
     continues *)
  let wv = Incr.edit_batch s [ expr_c (); expr_a () ] in
  check_bool "fallback taken" true (wv.Incr.wv_fallbacks >= 1);
  check_bool "values = scratch after fallback" true
    (agrees_with_scratch g s (expr_a ()))

let prop_batched_matches_serial dag =
  qc ~count:40
    (Printf.sprintf "batched edits = serial (dag %b)" dag)
    seq_arb
    (fun (s0, edits) ->
      let g = Expr_ag.grammar in
      let sb = Incr.start ~dag g (expr_of s0) in
      let ss = Incr.start ~dag g (expr_of s0) in
      List.iter (fun seed -> ignore (Incr.edit ss (expr_of seed))) edits;
      ignore (Incr.edit_batch sb (List.map expr_of edits));
      values_agree g (Incr.store sb) (Incr.tree sb) (Incr.store ss)
        (Incr.tree ss)
      &&
      match List.rev edits with
      | last :: _ -> agrees_with_scratch g sb (expr_of last)
      | [] -> true)

let prop_batched_random_ag =
  qc ~count:30 "random AG batched edits = serial"
    (QCheck.make
       ~print:(fun (gs, ts, edits) ->
         Printf.sprintf "grammar %d, base %d, edits [%s]" gs ts
           (String.concat ";" (List.map string_of_int edits)))
       QCheck.Gen.(
         triple (int_bound 1_000_000) (int_bound 1_000_000)
           (list_size (1 -- 5) (int_bound 1_000_000))))
    (fun (gseed, tseed, edits) ->
      let g = Test_random_ag.build_grammar (Random.State.make [| gseed |]) in
      let tree_of seed =
        Test_random_ag.build_tree (Random.State.make [| seed |]) g
      in
      match
        ( Incr.start g (tree_of tseed),
          Incr.start g (tree_of tseed) )
      with
      | exception Engine.Cycle _ -> true
      | sb, ss -> (
          match
            ( Incr.edit_batch sb (List.map tree_of edits),
              List.iter (fun seed -> ignore (Incr.edit ss (tree_of seed))) edits
            )
          with
          | exception Engine.Cycle _ -> true
          | _ ->
              values_agree g (Incr.store sb) (Incr.tree sb) (Incr.store ss)
                (Incr.tree ss)))

(* A call whose wave raises (an unbound identifier fails its rule) leaves
   the session's wave sets clear: the next edit runs as a wave of its own
   cone (a stale member would leave its consumers waiting and force a
   rebuild), and its values equal a from-scratch evaluation. *)
let test_raising_wave_leaves_no_bits () =
  let g = Expr_ag.grammar in
  (* the padding keeps the edited block small against the tree, so the
     second edit is a wave, not a compacting rebuild *)
  let rec pad k =
    if k = 0 then Expr_ag.num 1 else Expr_ag.add (pad (k - 1)) (Expr_ag.num k)
  in
  let prog n v =
    Expr_ag.(main (add (let_in "x" (num n) (mul (var v) (num 2))) (pad 40)))
  in
  let s = Incr.start ~frontier:1.1 g (prog 4 "x") in
  check_bool "an unbound identifier raises" true
    (match Incr.edit s (prog 4 "y") with
    | _ -> false
    | exception Value.Type_error _ -> true);
  let wv = Incr.edit s (prog 5 "x") in
  check_int "a wave, no rebuild" 0 wv.Incr.wv_fallbacks;
  check_bool "values = scratch" true (agrees_with_scratch g s (prog 5 "x"))

(* ---------------- wave rounds against a level-synchronous pass ---------------- *)

(* The cone pass the wave ran before it moved onto the one
   dependency-counting loop, kept as the oracle for the four fields that
   price a wave: a level-synchronous pass in which every member waits on
   its cone producers, and level [r + 1] is what level [r] released.

   The cone of a call that ran one wave with no fallback is rebuilt from
   the session's engine. The seeds are the grafted subtrees' instances
   (their nodes are numbered past the [old_n] ids the session had) and
   their parents'. A DAG session materializes parked occurrences: those
   around a graft parent before the graft, whose instances join the cone
   only through consumer edges, and those whose inherited gate the cone
   reaches, whose instances all join it. The first are the occurrences
   under the highest ancestor of the parent reachable through nodes that
   had no rules ([ruled] holds the ids that had); with several grafts
   the two are not told apart, and [None] skips the call. The cone is the
   consumer closure. A member re-fires when it is a seed or one of its
   arguments changed in the call ({!Incr.changed}), which no firing order
   moves. *)
let fifo_wave s ~old_n ~old_rules ~ruled =
  let eng = Incr.engine s and store = Incr.store s in
  let g = Store.grammar store in
  let gr = Engine.graph eng in
  let n = Engine.rule_count eng in
  let seed = Array.make n false and dirty = Array.make n false in
  let stack = ref [] in
  let push rid =
    if (not dirty.(rid)) && not (Engine.is_dead eng rid) then begin
      dirty.(rid) <- true;
      stack := rid :: !stack
    end
  in
  let rules_of (node : Tree.t) f =
    match node.Tree.prod with
    | Some p when Engine.has_rules eng node ->
        for ridx = 0 to Array.length p.Grammar.p_rules - 1 do
          f (Engine.rid_at eng node ridx)
        done
    | _ -> ()
  in
  let revived (m : Tree.t) =
    m.Tree.id < old_n
    && (not (Hashtbl.mem ruled m.Tree.id))
    && Engine.has_rules eng m
  in
  let grafts = ref [] and late = ref [] in
  (* [path]: the ancestors of [node], innermost first *)
  let rec walk path (node : Tree.t) =
    Array.iter
      (fun (c : Tree.t) ->
        if node.Tree.id < old_n && c.Tree.id >= old_n then begin
          grafts := (node :: path) :: !grafts;
          rules_of node (fun rid -> seed.(rid) <- true);
          Tree.iter (fun m -> rules_of m (fun rid -> seed.(rid) <- true)) c
        end
        else walk (node :: path) c)
      node.Tree.children
  in
  walk [] (Incr.tree s);
  let top = function
    | [] -> None
    | p :: _ as path when revived p ->
        let rec up last = function
          | a :: rest when revived a -> up a rest
          | _ -> Some last
        in
        up p path
    | _ -> None
  in
  let site = Hashtbl.create 16 in
  (match !grafts with
  | [ path ] ->
      Option.iter
        (Tree.iter (fun (m : Tree.t) -> Hashtbl.replace site m.Tree.id ()))
        (top path)
  | _ -> ());
  let rec gather (node : Tree.t) =
    if revived node && not (Hashtbl.mem site node.Tree.id) then
      rules_of node (fun rid -> late := rid :: !late);
    Array.iter gather node.Tree.children
  in
  gather (Incr.tree s);
  let materialized = ref false in
  for rid = old_rules to n - 1 do
    if not seed.(rid) then materialized := true
  done;
  if List.length !grafts > 1 && !materialized then None
  else begin
    for rid = 0 to n - 1 do
      if seed.(rid) then push rid
    done;
    List.iter push !late;
    let rec close () =
      match !stack with
      | [] -> ()
      | rid :: rest ->
          stack := rest;
          Engine.iter_consumers gr (Engine.target_slot eng rid) push;
          close ()
    in
    close ();
    let changed slot =
      let node, k = Store.slot_owner store slot in
      let sym = Grammar.symbol g node.Tree.sym in
      Incr.changed s node sym.Grammar.s_attrs.(k).Grammar.a_name
    in
    let waiting = Hashtbl.create 16 and ready = ref [] and members = ref 0 in
    for rid = 0 to n - 1 do
      if dirty.(rid) then begin
        incr members;
        let k = ref 0 in
        Engine.iter_slot_args eng rid (fun slot ->
            let p = Engine.producer gr slot in
            if p >= 0 && p <> rid && dirty.(p) then incr k);
        if !k = 0 then ready := rid :: !ready else Hashtbl.replace waiting rid k
      end
    done;
    let rounds = ref [] and refired = ref 0 and cutoff = ref 0 in
    let fired = ref 0 in
    let rec level = function
      | [] -> ()
      | now ->
          let next = ref [] and count = ref 0 in
          List.iter
            (fun rid ->
              incr fired;
              let must = ref seed.(rid) in
              Engine.iter_slot_args eng rid (fun slot ->
                  if changed slot then must := true);
              if !must then incr count else incr cutoff;
              Engine.iter_consumers gr (Engine.target_slot eng rid) (fun c ->
                  if c <> rid && dirty.(c) then
                    match Hashtbl.find_opt waiting c with
                    | Some k ->
                        decr k;
                        if !k = 0 then next := c :: !next
                    | None -> ()))
            now;
          refired := !refired + !count;
          rounds := !count :: !rounds;
          level !next
    in
    level !ready;
    if !fired < !members then None
    else Some (!refired, !cutoff, Array.of_list (List.rev !rounds))
  end

(* Run one call and hold its wave to the oracle; a call that ran several
   waves or fell back is checked only for its values. *)
let oracle_call s call =
  let old_n = Store.node_count (Incr.store s)
  and old_rules = Engine.rule_count (Incr.engine s) in
  let ruled = Hashtbl.create 64 in
  Tree.iter
    (fun (m : Tree.t) ->
      if m.Tree.prod <> None && Engine.has_rules (Incr.engine s) m then
        Hashtbl.replace ruled m.Tree.id ())
    (Incr.tree s);
  let wv = call () in
  wv.Incr.wv_waves <> 1
  || wv.Incr.wv_fallbacks > 0
  ||
  match fifo_wave s ~old_n ~old_rules ~ruled with
  | None -> true
  | Some (refired, cutoff, rounds) ->
      let ok =
        wv.Incr.wv_refired = refired
        && wv.Incr.wv_cutoff = cutoff
        && wv.Incr.wv_rounds = Array.length rounds
        && wv.Incr.wv_round_refired = rounds
      in
      if not ok then
        QCheck.Test.fail_reportf
          "wave: refired %d cutoff %d rounds [%s]; level-synchronous: \
           refired %d cutoff %d rounds [%s]"
          wv.Incr.wv_refired wv.Incr.wv_cutoff
          (String.concat ";"
             (Array.to_list (Array.map string_of_int wv.Incr.wv_round_refired)))
          refired cutoff
          (String.concat ";" (Array.to_list (Array.map string_of_int rounds)));
      ok

(* A random-AG tree with the subtree at preorder position [k] regrown
   from [st]: a subtree edit, where two whole random trees mostly differ
   at the root. *)
let regrow g st tree k =
  let pos = ref (-1) in
  let rec grow nt budget =
    let prods = Grammar.prods_for g nt in
    let p =
      if budget <= 0 then List.hd prods
      else List.nth prods (Random.State.int st (List.length prods))
    in
    Tree.node g p.Grammar.p_name
      (List.map
         (fun sym ->
           if sym = "T" then
             Tree.leaf g "T" [ ("v", Value.Int (Random.State.int st 10)) ]
           else grow sym (budget / 2))
         (Array.to_list p.Grammar.p_rhs))
  in
  let rec copy (t : Tree.t) =
    incr pos;
    match t.Tree.prod with
    | None -> Tree.leaf g "T" [ ("v", Tree.term_attr t "v") ]
    | Some p ->
        if !pos = k then grow t.Tree.sym 4
        else
          Tree.node g p.Grammar.p_name
            (List.map copy (Array.to_list t.Tree.children))
  in
  copy tree

let prop_random_ag_rounds dag =
  qc ~count:60
    (Printf.sprintf "random AG waves = level-synchronous pass (dag %b)" dag)
    (QCheck.make
       ~print:(fun (gs, ts, edits) ->
         Printf.sprintf "grammar %d, base %d, edits [%s]" gs ts
           (String.concat ";"
              (List.map (fun (k, e) -> Printf.sprintf "%d@%d" e k) edits)))
       QCheck.Gen.(
         triple (int_bound 1_000_000) (int_bound 1_000_000)
           (list_size (1 -- 6) (pair (int_bound 40) (int_bound 1_000_000)))))
    (fun (gseed, tseed, edits) ->
      let g = Test_random_ag.build_grammar (Random.State.make [| gseed |]) in
      let base = Test_random_ag.build_tree (Random.State.make [| tseed |]) g in
      match Incr.start ~dag ~frontier:1.1 g base with
      | exception Engine.Cycle _ -> true
      | s ->
          let rec go = function
            | [] -> true
            | (k, e) :: rest -> (
                let next = regrow g (Random.State.make [| e |]) (Incr.tree s) k in
                match oracle_call s (fun () -> Incr.edit s next) with
                | ok -> ok && go rest
                | exception Engine.Cycle _ -> true)
          in
          go edits)

(* An Expr program over literal leaves: [let x = l0 in <a balanced add/mul
   tree over the rest, every third leaf reading x> ni]. Literals drawn
   from a few values repeat subtrees, which a DAG session shares. *)
let lits_tree lits =
  let n = Array.length lits in
  let rec body lo hi d =
    if lo = hi then
      if lo mod 3 = 0 then Expr_ag.var "x" else Expr_ag.num lits.(lo)
    else
      let mid = (lo + hi) / 2 in
      (if d mod 2 = 0 then Expr_ag.add else Expr_ag.mul)
        (body lo mid (d + 1))
        (body (mid + 1) hi (d + 1))
  in
  Expr_ag.(main (let_in "x" (num lits.(0)) (body 1 (n - 1) 0)))

let prop_expr_batch_rounds dag =
  qc ~count:60
    (Printf.sprintf "expr batches: waves = level-synchronous pass (dag %b)" dag)
    (QCheck.make
       ~print:(fun (base, batches) ->
         Printf.sprintf "base [%s], batches [%s]"
           (String.concat ";" (List.map string_of_int base))
           (String.concat " | "
              (List.map
                 (fun b ->
                   String.concat ";"
                     (List.map (fun (k, v) -> Printf.sprintf "%d:=%d" k v) b))
                 batches)))
       QCheck.Gen.(
         pair
           (list_size (12 -- 24) (int_bound 3))
           (list_size (1 -- 4)
              (list_size (1 -- 4) (pair (int_bound 23) (int_bound 3))))))
    (fun (base, batches) ->
      let lits = Array.of_list base in
      let g = Expr_ag.grammar in
      let s = Incr.start ~dag ~frontier:1.1 g (lits_tree lits) in
      List.for_all
        (fun batch ->
          let nexts =
            List.map
              (fun (k, v) ->
                lits.(k mod Array.length lits) <- v;
                lits_tree lits)
              batch
          in
          oracle_call s (fun () -> Incr.edit_batch s nexts)
          && agrees_with_scratch g s (lits_tree lits))
        batches)

(* A replacement that closes a dependency cycle: [pass] copies its
   inherited [i] to its synthesized [s], and the root feeds [s] back into
   [i]. The wave's cone has no ready member, so the loop fires nothing;
   the rebuild then evaluates the circular tree and raises. *)
let loop_grammar =
  let open Grammar in
  make ~name:"loop" ~start:"r"
    [
      terminal "T" [];
      nonterminal "r" [ syn "out" ];
      nonterminal "x" [ syn "s"; inh "i" ];
    ]
    [
      production ~name:"root" ~lhs:"r" ~rhs:[ "x" ]
        [
          rule (rhs 1 "i") ~deps:[ rhs 1 "s" ] (fun a -> a.(0));
          rule (lhs "out") ~deps:[ rhs 1 "s" ] (fun a -> a.(0));
        ];
      production ~name:"const" ~lhs:"x" ~rhs:[ "T" ]
        [ rule (lhs "s") ~deps:[] (fun _ -> Value.Int 0) ];
      production ~name:"pass" ~lhs:"x" ~rhs:[ "T" ]
        [ rule (lhs "s") ~deps:[ lhs "i" ] (fun a -> a.(0)) ];
    ]

let test_cycle_edit_raises () =
  let g = loop_grammar in
  let tree x = Tree.node g "root" [ Tree.node g x [ Tree.leaf g "T" [] ] ] in
  let s = Incr.start ~frontier:1.1 g (tree "const") in
  check_bool "the cycle raises" true
    (match Incr.edit s (tree "pass") with
    | _ -> false
    | exception Engine.Cycle _ -> true)

let suite =
  [
    ( "incr",
      [
        Alcotest.test_case "single edit" `Quick test_single_edit;
        Alcotest.test_case "identity edit" `Quick test_identity_edit;
        Alcotest.test_case "root replacement" `Quick
          test_root_replacement_falls_back;
        Alcotest.test_case "forced fallback" `Quick
          test_fallback_on_demand_is_correct;
        Alcotest.test_case "equality cutoff" `Quick
          test_cutoff_stops_propagation;
        Alcotest.test_case "min change propagates" `Quick
          test_min_change_propagates;
        Alcotest.test_case "batch: independent pair merges" `Quick
          test_batch_independent_pair;
        Alcotest.test_case "batch: conflicting pair serializes" `Quick
          test_batch_conflicting_pair;
        Alcotest.test_case "batch: no-op and root fallback" `Quick
          test_batch_identity_and_root;
        prop_expr_edit_sequences false;
        prop_expr_edit_sequences true;
        prop_random_ag_edit_sequences false;
        prop_random_ag_edit_sequences true;
        prop_tiny_frontier_always_agrees;
        prop_batched_matches_serial false;
        prop_batched_matches_serial true;
        prop_batched_random_ag;
        Alcotest.test_case "an edit closing a cycle raises" `Quick
          test_cycle_edit_raises;
        Alcotest.test_case "a raising wave leaves no wave bit set" `Quick
          test_raising_wave_leaves_no_bits;
        prop_random_ag_rounds false;
        prop_random_ag_rounds true;
        prop_expr_batch_rounds false;
        prop_expr_batch_rounds true;
      ] );
  ]

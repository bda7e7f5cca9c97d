open Pag_core
open Pag_parallel
open Pag_grammars

let qc ?(count = 60) name gen prop = Qc_seed.qc ~count name gen prop

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let big_tree seed =
  Stackcode_ag.random_program (Random.State.make [| seed |]) ~depth:8 ~blocks:6

let test_single_machine_one_fragment () =
  let t = big_tree 1 in
  let plan = Split.decompose Stackcode_ag.grammar t ~machines:1 ~granularity:1.0 in
  check_int "one fragment" 1 (Split.count plan);
  let f = (Split.fragments plan).(0) in
  check_bool "root fragment is the tree" true (f.Split.fr_root == t);
  check_bool "no parent" true (f.Split.fr_parent = None);
  Alcotest.(check (list int)) "no cuts" [] (Split.cuts_of plan 0)

let test_fragments_bounded_by_machines () =
  let t = big_tree 2 in
  for m = 1 to 8 do
    let plan = Split.decompose Stackcode_ag.grammar t ~machines:m ~granularity:1.0 in
    check_bool
      (Printf.sprintf "machines=%d" m)
      true
      (Split.count plan >= 1 && Split.count plan <= m)
  done

let test_cut_roots_are_splittable () =
  let t = big_tree 3 in
  let plan = Split.decompose Stackcode_ag.grammar t ~machines:5 ~granularity:1.0 in
  Array.iter
    (fun (f : Split.fragment) ->
      if f.Split.fr_id <> 0 then begin
        let sym = Grammar.symbol Stackcode_ag.grammar f.Split.fr_root.Tree.sym in
        check_bool "cut at splittable symbol" true (sym.Grammar.s_split <> None);
        check_bool "has a parent" true (f.Split.fr_parent <> None)
      end)
    (Split.fragments plan)

let test_cut_consistency () =
  let t = big_tree 4 in
  let plan = Split.decompose Stackcode_ag.grammar t ~machines:6 ~granularity:1.0 in
  (* Every non-root fragment appears exactly once as a cut of its parent. *)
  Array.iter
    (fun (f : Split.fragment) ->
      match f.Split.fr_parent with
      | None -> ()
      | Some p ->
          let cuts = Split.cuts_of plan p in
          check_bool "registered as parent's cut" true
            (List.mem f.Split.fr_root.Tree.id cuts);
          check_int "cut maps back to fragment"
            f.Split.fr_id
            (Option.get (Split.fragment_of_cut_node plan f.Split.fr_root.Tree.id)))
    (Split.fragments plan)

let test_granularity_disables_splitting () =
  let t = big_tree 5 in
  (* Gigantic minimum size: nothing qualifies. *)
  let plan =
    Split.decompose Stackcode_ag.grammar t ~machines:6 ~granularity:1e9
  in
  check_int "no split at huge granularity" 1 (Split.count plan)

let test_balance_quality () =
  (* On a list-like program with many split points (the shape of a real
     source file: a long sequence of procedure-sized blocks), 5 fragments
     should come out roughly equal — the paper's "subtrees of about equal
     size". The balance bound is necessarily loose on lumpy trees, so this
     uses a regular chain of 64 equal blocks. *)
  let st = Random.State.make [| 42 |] in
  let body () =
    Stackcode_ag.(
      add (num (Random.State.int st 10)) (mul (num 2) (num (Random.State.int st 10))))
  in
  let t =
    (* nested blocks: each block contains the rest of the program, like a
       statement list whose suffix node covers the remaining statements *)
    Stackcode_ag.main
      (List.fold_left
         (fun acc i ->
           Stackcode_ag.(let_in (Printf.sprintf "p%d" i) i (add (body ()) acc)))
         (Stackcode_ag.num 0)
         (List.init 64 (fun i -> i)))
  in
  let plan = Split.decompose Stackcode_ag.grammar t ~machines:5 ~granularity:1.0 in
  check_int "five fragments" 5 (Split.count plan);
  let sizes =
    Array.to_list (Array.map (fun f -> f.Split.fr_bytes) (Split.fragments plan))
  in
  let mn = List.fold_left min max_int sizes
  and mx = List.fold_left max 0 sizes in
  check_bool (Printf.sprintf "balance %d..%d" mn mx) true (mx <= 3 * mn)

let test_pp_runs () =
  let t = big_tree 6 in
  let plan = Split.decompose Stackcode_ag.grammar t ~machines:4 ~granularity:1.0 in
  let s = Format.asprintf "%a" Split.pp plan in
  check_bool "pp nonempty" true (String.length s > 20)

let arb_seed_machines =
  QCheck.make
    ~print:(fun (s, m) -> Printf.sprintf "seed=%d machines=%d" s m)
    QCheck.Gen.(pair (int_bound 10_000) (int_range 1 7))

let prop_residuals_sum_to_total =
  qc "fragment residuals partition the tree" arb_seed_machines (fun (seed, m) ->
      let t = big_tree seed in
      let plan = Split.decompose Stackcode_ag.grammar t ~machines:m ~granularity:1.0 in
      let total =
        Array.fold_left (fun a f -> a + f.Split.fr_bytes) 0 (Split.fragments plan)
      in
      (* total of residuals = whole tree's byte size *)
      let whole =
        let plan1 = Split.decompose Stackcode_ag.grammar t ~machines:1 ~granularity:1.0 in
        (Split.fragments plan1).(0).Split.fr_bytes
      in
      total = whole)

let prop_fragments_disjoint =
  qc "fragments own disjoint node sets" arb_seed_machines (fun (seed, m) ->
      let t = big_tree seed in
      let plan = Split.decompose Stackcode_ag.grammar t ~machines:m ~granularity:1.0 in
      (* walk each fragment, stopping at its cuts; count total visited *)
      let seen = Hashtbl.create 1024 in
      let ok = ref true in
      Array.iter
        (fun (f : Split.fragment) ->
          let cuts = Split.cuts_of plan f.Split.fr_id in
          let rec walk (n : Tree.t) =
            if List.mem n.Tree.id cuts then () (* another fragment's root *)
            else begin
              if Hashtbl.mem seen n.Tree.id then ok := false
              else Hashtbl.replace seen n.Tree.id ();
              Array.iter walk n.Tree.children
            end
          in
          walk f.Split.fr_root)
        (Split.fragments plan);
      !ok && Hashtbl.length seen = Tree.size t)

(* A plan in preorder terms: per fragment its root, parent, residual bytes
   and cut roots, nodes given by their preorder position (not by id). *)
let plan_shape t plan =
  let pos = Hashtbl.create 1024 and k = ref 0 in
  Tree.iter
    (fun n ->
      Hashtbl.replace pos n.Tree.id !k;
      incr k)
    t;
  Array.to_list (Split.fragments plan)
  |> List.map (fun (f : Split.fragment) ->
         ( Hashtbl.find pos f.Split.fr_root.Tree.id,
           f.Split.fr_parent,
           f.Split.fr_bytes,
           List.map
             (fun (c : Tree.t) -> Hashtbl.find pos c.Tree.id)
             (Split.cut_nodes plan f.Split.fr_id) ))

let arb_gapped =
  QCheck.make
    ~print:(fun (s, m, spread) ->
      Printf.sprintf "seed=%d machines=%d id-spread=%d" s m spread)
    QCheck.Gen.(
      triple (int_bound 10_000) (int_range 1 7) (oneofl [ 1; 2; 3; 9 ]))

(* Ids as edits leave them: unique, gapped and out of preorder. A spread of
   9 leaves the range sparse enough for the hash-table index. *)
let prop_gapped_ids =
  qc "gapped, non-preorder ids split like preorder ids" arb_gapped
    (fun (seed, m, spread) ->
      let t = big_tree seed in
      let n = Tree.number t in
      let st = Random.State.make [| seed |] in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- x
      done;
      Tree.iter (fun nd -> nd.Tree.id <- 5 + (spread * perm.(nd.Tree.id))) t;
      let decompose () =
        Split.decompose Stackcode_ag.grammar t ~machines:m ~granularity:1.0
      in
      let gapped = plan_shape t (decompose ()) in
      let ids = ref [] in
      Tree.iter (fun nd -> ids := nd.Tree.id :: !ids) t;
      ignore (Tree.number t);
      let renumbered = plan_shape t (decompose ()) in
      gapped = renumbered
      && (* decompose kept the gapped ids *)
      List.sort compare !ids
      = List.init n (fun i -> 5 + (spread * i)))

(* [Split.wire_size] counts exactly the bytes [Split.encode] writes, with
   and without sharing, on every fragment: random Pascal programs at 2-4
   machines and the paper program at 2. *)
let test_wire_size_is_encoded_length () =
  let g = Pascal.Pascal_ag.grammar in
  let check_tree name prog machines =
    let tree = Pascal.Pascal_ag.tree_of_program g prog in
    ignore (Tree.number tree);
    let plan = Split.decompose g tree ~machines ~granularity:1.0 in
    let sh = Tree.sharing tree in
    check_bool (name ^ ": split") true (Split.count plan > 1);
    Array.iter
      (fun (f : Split.fragment) ->
        List.iter
          (fun sharing ->
            check_int
              (Printf.sprintf "%s, %d machines, fragment %d%s" name machines
                 f.Split.fr_id
                 (if sharing = None then "" else ", shared"))
              (String.length (Split.encode ?sharing plan f))
              (Split.wire_size ?sharing plan f))
          [ None; Some sh ])
      (Split.fragments plan)
  in
  for seed = 1 to 6 do
    let prog, _ =
      Pascal.Progen.gen (Random.State.make [| seed |]) Pascal.Progen.medium
    in
    check_tree (Printf.sprintf "seed %d" seed) prog (2 + (seed mod 3))
  done;
  check_tree "paper program" (Pascal.Progen.paper_program ()) 2

let suite =
  [
    ( "split",
      [
        Alcotest.test_case "single machine" `Quick test_single_machine_one_fragment;
        Alcotest.test_case "bounded by machines" `Quick
          test_fragments_bounded_by_machines;
        Alcotest.test_case "cuts splittable" `Quick test_cut_roots_are_splittable;
        Alcotest.test_case "cut consistency" `Quick test_cut_consistency;
        Alcotest.test_case "granularity" `Quick test_granularity_disables_splitting;
        Alcotest.test_case "balance" `Quick test_balance_quality;
        Alcotest.test_case "pp" `Quick test_pp_runs;
        Alcotest.test_case "wire_size = encoded length" `Quick
          test_wire_size_is_encoded_length;
        prop_residuals_sum_to_total;
        prop_fragments_disjoint;
        prop_gapped_ids;
      ] );
  ]

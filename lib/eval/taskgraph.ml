open Pag_core
open Pag_analysis
open Pag_obs

(* The combined evaluator's task graph (paper, section 2.4): rule instances
   of the spine, static visits of the subtrees hanging off it, and
   receives of boundary attributes. Each item produces slots; an item
   waits for the producers of the slots it reads, and a visit also waits
   for the visit before it. Edges are in CSR form over item ids. *)

type item = Rule of int | Visit of Tree.t * int | Recv of Tree.t * string

(* Items are numbered rules first, then visits, then receives, and kept
   unboxed: item [i < nr] is rule [rids.(i)], item [nr + j] is visit
   [visit_no.(j)] of [visit_node.(j)]. *)
type t = {
  tg_engine : Engine.t;
  tg_plan : Kastens.plan option;
  tg_rids : int array;
  tg_visit_node : Tree.t array;
  tg_visit_no : int array;
  tg_recvs : (Tree.t * string) array;
  tg_unmet : int array;  (* item -> producer edges into it *)
  tg_off : int array;  (* item -> first consumer in [tg_adj]; length n + 1 *)
  tg_adj : int array;
  tg_producer : int array;  (* slot -> item defining it, -1 when none *)
}

let count tg = Array.length tg.tg_unmet

let item tg id =
  let nr = Array.length tg.tg_rids and nv = Array.length tg.tg_visit_no in
  if id < nr then Rule tg.tg_rids.(id)
  else if id < nr + nv then
    Visit (tg.tg_visit_node.(id - nr), tg.tg_visit_no.(id - nr))
  else
    let n, a = tg.tg_recvs.(id - nr - nv) in
    Recv (n, a)

let unmet tg id = tg.tg_unmet.(id)

let edges tg = tg.tg_off.(count tg)

let producer tg slot = tg.tg_producer.(slot)

let iter_consumers tg id f =
  for k = tg.tg_off.(id) to tg.tg_off.(id + 1) - 1 do
    f tg.tg_adj.(k)
  done

let build eng plan ~rules ~visits ~recvs =
  let store = Engine.store eng and g = Engine.grammar eng in
  let slot (node : Tree.t) a = Store.slot_of store node ~attr_idx:a in
  (* a symbol's visit partitions as attribute indices, resolved once *)
  let parts = Array.make (Array.length (Grammar.symbols g)) [||] in
  let partitions (node : Tree.t) =
    let s = node.Tree.sym_id in
    if Array.length parts.(s) = 0 then begin
      let p =
        match plan with
        | Some p -> p
        | None -> invalid_arg "Taskgraph.build: static visits need a plan"
      in
      let sym = node.Tree.sym in
      let idx = List.map (fun attr -> Grammar.attr_pos g ~sym ~attr) in
      parts.(s) <-
        Array.init (Kastens.visit_count p sym) (fun i ->
            let inh, syn = Kastens.visit_attrs p ~sym ~visit:(i + 1) in
            (Array.of_list (idx inh), Array.of_list (idx syn)))
    end;
    parts.(s)
  in
  let rules_of (n : Tree.t) =
    match n.Tree.prod with None -> 0 | Some p -> Array.length p.Grammar.p_rules
  in
  let nr = List.fold_left (fun a n -> a + rules_of n) 0 rules in
  let nv =
    List.fold_left (fun a c -> a + Array.length (partitions c)) 0 visits
  in
  let recvs = Array.of_list recvs in
  let total = nr + nv + Array.length recvs in
  let producers = Array.make (max 1 (Store.slot_count store)) (-1) in
  let rids = Array.make nr 0 and k = ref 0 in
  List.iter
    (fun node ->
      for ridx = 0 to rules_of node - 1 do
        let rid = Engine.rid_at eng node ridx in
        rids.(!k) <- rid;
        producers.(Engine.target_slot eng rid) <- !k;
        incr k
      done)
    rules;
  let visit_node = Array.make nv (Store.root store)
  and visit_no = Array.make nv 0 in
  List.iter
    (fun (c : Tree.t) ->
      Array.iteri
        (fun i (_, syn) ->
          visit_node.(!k - nr) <- c;
          visit_no.(!k - nr) <- i + 1;
          Array.iter (fun a -> producers.(slot c a) <- !k) syn;
          incr k)
        (partitions c))
    visits;
  Array.iter
    (fun ((node : Tree.t), attr) ->
      producers.(slot node (Grammar.attr_pos g ~sym:node.Tree.sym ~attr)) <- !k;
      incr k)
    recvs;
  (* Wiring: [edge p id] once per slot item [id] reads from producer [p]
     (and from a visit to the next). A slot with no producer is available
     only when it is already set. *)
  let wire edge =
    let cur = ref 0 in
    let need s =
      match producers.(s) with
      | -1 ->
          if not (Store.slot_is_set store s) then begin
            let node, k = Store.slot_owner store s in
            let sym = Grammar.symbol_of_id g node.Tree.sym_id in
            raise
              (Engine.Cycle
                 (Printf.sprintf "no producer for %s.%s (node %d)" node.Tree.sym
                    sym.Grammar.s_attrs.(k).Grammar.a_name node.Tree.id))
          end
      | p -> edge p !cur
    in
    for id = 0 to nr - 1 do
      cur := id;
      Engine.iter_slot_args eng rids.(id) need
    done;
    for j = 0 to nv - 1 do
      let id = nr + j and c = visit_node.(j) and v = visit_no.(j) in
      cur := id;
      let inh, _ = (partitions c).(v - 1) in
      Array.iter (fun a -> need (slot c a)) inh;
      (* the visits of one node are consecutive items *)
      if v > 1 then edge (id - 1) id
    done
  in
  (* CSR in two passes, each producer's consumers latest-wired first *)
  let unmet = Array.make total 0 and off = Array.make (total + 1) 0 in
  wire (fun p id ->
      off.(p + 1) <- off.(p + 1) + 1;
      unmet.(id) <- unmet.(id) + 1);
  for i = 1 to total do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let adj = Array.make (max 1 off.(total)) 0 in
  let fill = Array.sub off 1 total in
  wire (fun p id ->
      fill.(p) <- fill.(p) - 1;
      adj.(fill.(p)) <- id);
  {
    tg_engine = eng;
    tg_plan = plan;
    tg_rids = rids;
    tg_visit_node = visit_node;
    tg_visit_no = visit_no;
    tg_recvs = recvs;
    tg_unmet = unmet;
    tg_off = off;
    tg_adj = adj;
    tg_producer = producers;
  }

(* {1 The whole tree on domains} *)

(* The spine is every node with rows whose ancestors all have rows; the
   static roots are the interior children of spine nodes without rows,
   or the root itself when it has none. *)
let of_store eng plan =
  let store = Engine.store eng in
  let spine = Array.make (Store.node_count store) false in
  let rules = ref [] and visits = ref [] in
  let hang (n : Tree.t) =
    if n.Tree.prod <> None then
      if Engine.has_rules eng n then spine.(Store.dense_index store n) <- true
      else visits := n :: !visits
  in
  hang (Store.root store);
  (* dense order is preorder: a node's parent comes before it *)
  Store.iter_nodes store (fun n ->
      if spine.(Store.dense_index store n) then begin
        rules := n :: !rules;
        Array.iter hang n.Tree.children
      end);
  build eng plan ~rules:(List.rev !rules) ~visits:(List.rev !visits) ~recvs:[]

let heavy store ~parts =
  let w = Array.make (Store.node_count store) 0 in
  let rec weigh (n : Tree.t) =
    match n.Tree.prod with
    | None -> 0
    | Some p ->
        let k =
          Array.fold_left
            (fun a c -> a + weigh c)
            (Array.length p.Grammar.p_rules)
            n.Tree.children
        in
        w.(Store.dense_index store n) <- k;
        k
  in
  let grain = weigh (Store.root store) / max 1 parts in
  fun n -> w.(Store.dense_index store n) > grain

(* The steal loop's view: task id = item id, and a finished task releases
   its own id. *)
let tasks tg =
  {
    Engine.tk_count = count tg;
    tk_unmet = (fun id -> tg.tg_unmet.(id));
    tk_release = (fun id f -> iter_consumers tg id f);
  }

type fired = {
  mutable f_rules : int;
  mutable f_static_rules : int;
  mutable f_visits : int;
}

let run_steal ?(domains = 2) ?uid_base ?prov ?(prov_clock = fun () -> 0.0) tg
    =
  let eng = tg.tg_engine in
  let store = Engine.store eng in
  let fired =
    Array.init (Pag_util.Placement.count domains) (fun _ ->
        { f_rules = 0; f_static_rules = 0; f_visits = 0 })
  in
  let nr = Array.length tg.tg_rids and nv = Array.length tg.tg_visit_no in
  let fire d ~poke ~release =
    let ring = match prov with Some ps -> ps.(d) | None -> Prov.disabled in
    let f = fired.(d) in
    fun id ->
      if id < nr then begin
        Engine.fire_quiet eng ~ring ~pid:d ~clock:prov_clock ~poke
          tg.tg_rids.(id);
        f.f_rules <- f.f_rules + 1
      end
      else if id < nr + nv then begin
        let visits, evals =
          Static_eval.visit_poked (Option.get tg.tg_plan) store ~poke
            tg.tg_visit_node.(id - nr)
            tg.tg_visit_no.(id - nr)
        in
        f.f_visits <- f.f_visits + visits;
        f.f_static_rules <- f.f_static_rules + evals
      end
      else invalid_arg "Taskgraph.run_steal: a receive item";
      release id
  in
  let _, stats = Engine.run_tasks ~domains ?uid_base eng (tasks tg) ~fire in
  (stats, fired)

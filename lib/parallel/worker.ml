open Pag_core
open Pag_analysis
open Pag_eval
open Pag_obs

type mode = [ `Dynamic | `Combined ]

type config = {
  wc_grammar : Grammar.t;
  wc_plan : Kastens.plan option;
  wc_mode : mode;
  wc_use_priority : bool;
  wc_librarian : int option;
  wc_phase_label : int -> string option;
  wc_obs : Obs.ctx;
  wc_sharing : Tree.sharing option;
  wc_prov : Prov.t;
  wc_prov_dwell : bool;
  wc_engine_hook : Engine.t -> unit;
}

type task = {
  t_frag_id : int;
  t_root : Tree.t;
  t_cuts : (Tree.t * int) list;
  t_parent_machine : int;
  t_root_is_tree_root : bool;
}

type stats = {
  ws_dynamic_rules : int;
  ws_static_rules : int;
  ws_visits : int;
  ws_graph_nodes : int;
  ws_graph_edges : int;
  ws_sends : int;
  ws_spine_len : int;
  ws_idle_wait : float;
  ws_bytes_flattened : int;
}

exception Stuck of string

let stuck fmt = Printf.ksprintf (fun s -> raise (Stuck s)) fmt

(* Coordinator ordered an abort (it recovered from a fault locally). *)
exception Aborted

let zero_stats =
  {
    ws_dynamic_rules = 0;
    ws_static_rules = 0;
    ws_visits = 0;
    ws_graph_nodes = 0;
    ws_graph_edges = 0;
    ws_sends = 0;
    ws_spine_len = 0;
    ws_idle_wait = 0.0;
    ws_bytes_flattened = 0;
  }

let run_protocol (env : Transport.env) cfg task =
  let g = cfg.wc_grammar in
  let obs = cfg.wc_obs in
  let obs_on = Obs.ctx_enabled obs in
  let plan =
    match (cfg.wc_mode, cfg.wc_plan) with
    | `Combined, Some p -> Some p
    | `Combined, None -> stuck "combined mode requires an evaluation plan"
    | `Dynamic, _ -> None
  in
  (* DAG sharing: subtree memo for static visits (shared classes computed
     once on the whole tree, valid inside any fragment thanks to the
     store's slot-range contiguity check). *)
  let memo = Option.map Memo.create cfg.wc_sharing in
  (* ---- 1. Await the subtree assignment; stash early attribute msgs. ---- *)
  let stash = ref [] in
  let uid_base =
    let rec wait () =
      match env.Transport.e_recv () with
      | Message.Subtree s ->
          env.Transport.e_delay
            (float_of_int s.bytes *. Cost.default.Cost.rebuild_per_byte);
          s.uid_base
      | Message.Stop -> raise Aborted
      | other ->
          stash := other :: !stash;
          wait ()
    in
    wait ()
  in
  let uid_cursor = ref uid_base in
  let graph_t0 = if obs_on then obs.Obs.x_clock () else 0.0 in
  (* ---- 2. Fragment structure. ---- *)
  let cut_machine = Hashtbl.create 8 in
  List.iter
    (fun ((c : Tree.t), m) -> Hashtbl.replace cut_machine c.Tree.id m)
    task.t_cuts;
  let is_cut (n : Tree.t) = Hashtbl.mem cut_machine n.Tree.id in
  let store = Store.create_shared ~stop:is_cut g task.t_root in
  (* Owned nodes: fragment nodes excluding the stubs. The same walk finds
     the ancestors of cuts: [collect] answers whether a cut lies below [n],
     and every node on the path from the root down to a cut says yes. *)
  let owned = ref [] and cut_ancestors = ref [] in
  let rec collect (n : Tree.t) =
    owned := n :: !owned;
    if is_cut n then true
    else begin
      let below = ref false in
      Array.iter (fun c -> if collect c then below := true) n.Tree.children;
      if !below then cut_ancestors := n :: !cut_ancestors;
      !below
    end
  in
  ignore (collect task.t_root);
  let owned = List.rev !owned in
  (* ---- 3. Spine. ---- *)
  (* Membership over the fragment's node ids, packed into a bitset: the ids
     of one fragment are near-contiguous (trees are numbered in creation
     order), so one bit per id in the owned range beats hashing. *)
  let id_lo, id_hi =
    List.fold_left
      (fun (lo, hi) (n : Tree.t) -> (min lo n.Tree.id, max hi n.Tree.id))
      (max_int, min_int) owned
  in
  let spine = Pag_util.Bitset.make ~lo:id_lo ~hi:id_hi in
  (match cfg.wc_mode with
  | `Dynamic ->
      List.iter
        (fun (n : Tree.t) ->
          if n.Tree.prod <> None && not (is_cut n) then
            Pag_util.Bitset.add spine n.Tree.id)
        owned
  | `Combined ->
      List.iter
        (fun (n : Tree.t) -> Pag_util.Bitset.add spine n.Tree.id)
        !cut_ancestors);
  let on_spine (n : Tree.t) = Pag_util.Bitset.mem spine n.Tree.id in
  (* The engine resolves the rule instances the item graph names by rid,
     the spine's (static visits need none), or every owned one when a
     provenance ring names firings by rid; stubs' rules run elsewhere. *)
  let eng =
    Engine.create g store ~rules_for:(fun n ->
        (not (is_cut n)) && (Prov.enabled cfg.wc_prov || on_spine n))
  in
  (* Provenance: one ring per machine, pids are machine ids, the clock is
     the transport's. The simulator's clock does not advance inside a
     firing (costs are charged after), so sim runs price durations from
     the cost model; the domains transport reads wall time twice. *)
  if Prov.enabled cfg.wc_prov then begin
    let dwell_dynamic =
      if cfg.wc_prov_dwell then Some (Cost.rule_cost Cost.default ~dynamic:true)
      else None
    and dwell_static =
      if cfg.wc_prov_dwell then Some Cost.default.Cost.static_rule else None
    in
    Engine.set_prov ~pid:env.Transport.e_id ?dwell_dynamic ?dwell_static
      ~clock:env.Transport.e_time eng cfg.wc_prov
  end;
  cfg.wc_engine_hook eng;
  (* ---- 4. Items and wiring: the combined evaluator's task graph. ---- *)
  let slot_of (n : Tree.t) attr =
    Store.slot_of store n ~attr_idx:(Grammar.attr_pos g ~sym:n.Tree.sym ~attr)
  in
  (* Static roots: non-spine, non-stub interior children of spine nodes,
     plus the fragment root itself when there is no spine at all. *)
  let static_roots = ref [] in
  List.iter
    (fun (n : Tree.t) ->
      if on_spine n then
        Array.iter
          (fun (c : Tree.t) ->
            if c.Tree.prod <> None && (not (is_cut c)) && not (on_spine c) then
              static_roots := c :: !static_roots)
          n.Tree.children)
    owned;
  if
    cfg.wc_mode = `Combined
    && (not (on_spine task.t_root))
    && task.t_root.Tree.prod <> None
  then static_roots := [ task.t_root ];
  (* Receive items: inherited attrs of the fragment root (unless it is the
     whole tree's root), synthesized attrs of every stub. *)
  let root_sym = Grammar.symbol g task.t_root.Tree.sym in
  let attrs_of kind (n : Tree.t) =
    Array.to_list (Grammar.symbol g n.Tree.sym).Grammar.s_attrs
    |> List.filter_map (fun (a : Grammar.attr_decl) ->
           if a.a_kind = kind then Some (n, a.a_name) else None)
  in
  let recvs =
    if task.t_root_is_tree_root then begin
      Array.iter
        (fun (a : Grammar.attr_decl) ->
          if a.a_kind = Grammar.Inh then
            stuck "the start symbol has inherited attribute %S with no producer"
              a.a_name)
        root_sym.Grammar.s_attrs;
      []
    end
    else attrs_of Grammar.Inh task.t_root
  in
  let recvs =
    recvs @ List.concat_map (fun (c, _) -> attrs_of Grammar.Syn c) task.t_cuts
  in
  let tg =
    try
      Taskgraph.build eng plan ~rules:(List.filter on_spine owned)
        ~visits:!static_roots ~recvs
    with Engine.Cycle msg -> stuck "%s" msg
  in
  let total = Taskgraph.count tg in
  let items = Array.init total (Taskgraph.item tg) in
  let waiting = Array.init total (Taskgraph.unmet tg) in
  (* ---- 5. Boundary sends. ---- *)
  let sends = Array.make (max 1 (Store.slot_count store)) (-1) in
  Array.iter
    (fun (a : Grammar.attr_decl) ->
      if a.a_kind = Grammar.Syn then
        sends.(slot_of task.t_root a.a_name) <- task.t_parent_machine)
    root_sym.Grammar.s_attrs;
  List.iter
    (fun ((c : Tree.t), machine) ->
      Array.iter
        (fun (a : Grammar.attr_decl) ->
          if a.a_kind = Grammar.Inh then sends.(slot_of c a.a_name) <- machine)
        (Grammar.symbol g c.Tree.sym).Grammar.s_attrs)
    task.t_cuts;
  let frag_seq = ref 0 in
  let alloc_frag () =
    let id = ((task.t_frag_id + 1) * 100_000) + !frag_seq in
    incr frag_seq;
    id
  in
  let n_sends = ref 0 in
  let bytes_flattened = ref 0 in
  let bytes_hist =
    Obs.Metrics.histogram obs.Obs.x_metrics "net.bytes_per_attr"
  in
  let send_instance (n : Tree.t) attr dst =
    let v = Store.get store n attr in
    let v =
      match (cfg.wc_librarian, v) with
      | Some lib, Value.Ext (Codestr.V c)
        when n.Tree.id = task.t_root.Tree.id && Codestr.length c > 0 ->
          (* string librarian: ship the text once, pass up a descriptor *)
          let desc, frags = Codestr.extract_texts ~alloc:alloc_frag c in
          List.iter
            (fun (id, text) ->
              incr n_sends;
              let m = Message.Code_frag { id; text } in
              bytes_flattened := !bytes_flattened + Message.size m;
              env.Transport.e_send ~dst:lib m)
            frags;
          Codestr.value desc
      | _ -> v
    in
    incr n_sends;
    let m = Message.Attr { node = n.Tree.id; attr; value = v } in
    let sz = Message.size m in
    bytes_flattened := !bytes_flattened + sz;
    if obs_on then Obs.Metrics.observe bytes_hist (float_of_int sz);
    env.Transport.e_send ~dst m
  in
  (* ---- 6. Charge graph-construction cost. ---- *)
  env.Transport.e_delay
    ((float_of_int total *. Cost.default.Cost.build_node)
    +. (float_of_int (Taskgraph.edges tg) *. Cost.default.Cost.build_edge));
  if obs_on then
    Obs.span obs.Obs.x_rec ~pid:obs.Obs.x_pid ~t0:graph_t0
      ~t1:(obs.Obs.x_clock ()) "graph-build";
  (* ---- 7. Execution. ---- *)
  let hi = Queue.create () and lo = Queue.create () in
  let is_priority_item = function
    | Taskgraph.Rule rid ->
        let tnode, tattr = Engine.target_instance eng rid in
        Grammar.is_priority g ~sym:tnode.Tree.sym ~attr:tattr
    | Taskgraph.Visit _ | Taskgraph.Recv _ -> false
  in
  let enqueue id =
    if cfg.wc_use_priority && is_priority_item items.(id) then
      Queue.add id hi
    else Queue.add id lo
  in
  for id = 0 to total - 1 do
    match items.(id) with
    | Taskgraph.Recv _ -> ()
    | Taskgraph.Rule _ | Taskgraph.Visit _ ->
        if waiting.(id) = 0 then enqueue id
  done;
  let completed = ref 0 in
  let dynamic_rules = ref 0
  and static_rules = ref 0
  and visits = ref 0 in
  let marked = Hashtbl.create 4 in
  let products_of id =
    match items.(id) with
    | Taskgraph.Rule rid -> [ Engine.target_instance eng rid ]
    | Taskgraph.Visit (c, v) -> (
        match plan with
        | None -> assert false
        | Some p ->
            let _, syn_attrs = Kastens.visit_attrs p ~sym:c.Tree.sym ~visit:v in
            List.map (fun a -> (c, a)) syn_attrs)
    | Taskgraph.Recv (n, a) -> [ (n, a) ]
  in
  let complete id =
    incr completed;
    List.iter
      (fun ((n : Tree.t), attr) ->
        match sends.(slot_of n attr) with
        | -1 -> ()
        | dst -> send_instance n attr dst)
      (products_of id);
    Taskgraph.iter_consumers tg id (fun c ->
        waiting.(c) <- waiting.(c) - 1;
        if waiting.(c) = 0 then enqueue c)
  in
  let execute id =
    match items.(id) with
    | Taskgraph.Rule rid ->
        Uid.with_counter uid_cursor (fun () -> Engine.fire eng rid);
        env.Transport.e_delay (Cost.rule_cost Cost.default ~dynamic:true);
        incr dynamic_rules;
        if obs_on then begin
          let tnode, tattr = Engine.target_instance eng rid in
          Obs.instant obs.Obs.x_rec ~pid:obs.Obs.x_pid
            ~t:(obs.Obs.x_clock ())
            (Printf.sprintf "dyn-rule %s.%s" tnode.Tree.sym tattr)
        end
    | Taskgraph.Visit (c, v) ->
        (match cfg.wc_phase_label v with
        | Some lbl when not (Hashtbl.mem marked v) ->
            Hashtbl.replace marked v ();
            env.Transport.e_mark lbl
        | _ -> ());
        let visit_t0 = if obs_on then obs.Obs.x_clock () else 0.0 in
        let nv, ne =
          match plan with
          | None -> assert false
          | Some p ->
              Uid.with_counter uid_cursor (fun () ->
                  Static_eval.visit ?memo p eng c v)
        in
        env.Transport.e_delay (Cost.visit_cost Cost.default ~visits:nv ~evals:ne);
        if obs_on then
          Obs.span obs.Obs.x_rec ~pid:obs.Obs.x_pid ~t0:visit_t0
            ~t1:(obs.Obs.x_clock ())
            (Printf.sprintf "visit %s/%d" c.Tree.sym v);
        static_rules := !static_rules + ne;
        visits := !visits + nv
    | Taskgraph.Recv (n, a) ->
        stuck "receive item %s.%s executed locally" n.Tree.sym a
  in
  let handle_msg = function
    | Message.Attr { node; attr; value } -> (
        match Store.find_node store node with
        | None -> stuck "received attribute for unknown node %d" node
        | Some n -> (
            Store.set store n attr value;
            match Taskgraph.producer tg (slot_of n attr) with
            | -1 -> stuck "no receive item for %s.%s" n.Tree.sym attr
            | id -> complete id))
    | Message.Stop -> raise Aborted
    | other -> stuck "unexpected message %s" (Format.asprintf "%a" Message.pp other)
  in
  List.iter handle_msg (List.rev !stash);
  stash := [];
  let idle_wait = ref 0.0 in
  let eval_t0 = if obs_on then obs.Obs.x_clock () else 0.0 in
  let rec loop () =
    if !completed < total then begin
      let next =
        match Queue.take_opt hi with
        | Some id -> Some id
        | None -> Queue.take_opt lo
      in
      match next with
      | Some id ->
          execute id;
          complete id;
          loop ()
      | None ->
          let w0 = env.Transport.e_time () in
          let msg = env.Transport.e_recv () in
          idle_wait := !idle_wait +. (env.Transport.e_time () -. w0);
          handle_msg msg;
          loop ()
    end
  in
  loop ();
  let left = Store.missing store in
  if left > 0 then stuck "%d attribute instances unevaluated in fragment %d" left task.t_frag_id;
  env.Transport.e_flush ();
  let spine_len = Pag_util.Bitset.cardinal spine in
  if obs_on then begin
    Obs.span obs.Obs.x_rec ~pid:obs.Obs.x_pid ~t0:eval_t0
      ~t1:(obs.Obs.x_clock ()) "evaluate";
    let reg = obs.Obs.x_metrics in
    let bump name n = Obs.Metrics.add (Obs.Metrics.counter reg name) n in
    bump "worker.dynamic_rules" !dynamic_rules;
    bump "worker.static_rules" !static_rules;
    bump "worker.visits" !visits;
    bump "worker.sends" !n_sends;
    bump "worker.graph_nodes" total;
    bump "worker.graph_edges" (Taskgraph.edges tg);
    bump "worker.spine_nodes" spine_len;
    bump "net.bytes" !bytes_flattened;
    (match memo with
    | Some mm ->
        let st = Memo.stats mm in
        bump "eval.memo_hits" st.Memo.st_hits;
        bump "eval.memo_misses" st.Memo.st_misses;
        bump "eval.memo_replayed_slots" st.Memo.st_replayed_slots
    | None -> ());
    Obs.Metrics.add_gauge reg "store.reads" (float_of_int (Store.reads store));
    Obs.Metrics.add_gauge reg "store.writes" (float_of_int (Store.sets store));
    Obs.Metrics.add_gauge reg "worker.idle_wait" !idle_wait
  end;
  {
    ws_dynamic_rules = !dynamic_rules;
    ws_static_rules = !static_rules;
    ws_visits = !visits;
    ws_graph_nodes = total;
    ws_graph_edges = Taskgraph.edges tg;
    ws_sends = !n_sends;
    ws_spine_len = spine_len;
    ws_idle_wait = !idle_wait;
    ws_bytes_flattened = !bytes_flattened;
  }

(* A [Stop] at any point means the coordinator gave up on the parallel run
   and recovered locally; the worker abandons its fragment quietly. *)
let run env cfg task =
  match run_protocol env cfg task with
  | stats -> stats
  | exception Aborted -> zero_stats

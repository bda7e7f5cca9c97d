open Pag_core
open Pag_obs

(* Incremental re-evaluation: edit-driven recompilation on top of the
   shared {!Engine}.

   A session keeps the evaluated tree, its store, engine and slot-level
   dependency graph alive between edits. An edit is a subtree replacement
   (found by {!Tree.diff}, applied by {!Tree.replace_subtree}): the
   replacement's nodes are numbered past the existing id range and appended
   to the store and engine, the detached subtree's instances are marked
   dead, and the edit site's parent is re-resolved in place. Change then
   propagates through the dependency graph self-adjusting-computation
   style:

   - phase 1 computes the dirty cone: every rule instance reachable from
     the seed rules (the appended subtree's rules plus the parent's)
     through consumer edges;
   - phase 2 re-fires the cone in local topological order, with an
     equality cutoff — a rule whose argument slots all kept their values is
     skipped, and a re-fired rule whose target value is unchanged
     ({!Store.redefine_slot}) stops propagation below it.

   When the dirty cone exceeds a fraction of all live rules the session
   falls back to from-scratch evaluation: past that point propagation
   bookkeeping costs more than it saves, and repeated edits have riddled
   the flat arrays with dead weight anyway. The fallback renumbers the
   tree and rebuilds store, engine and graph, compacting everything.

   Unique labels ({!Uid}) are drawn from the session's own cursor, so
   re-fired label-allocating rules produce fresh labels rather than the
   ones a from-scratch run would pick: incremental output is equivalent to
   from-scratch output up to label renaming (exactly equal when no rule in
   the dirty cone allocates labels). *)

type edit_stats = {
  ed_dirty : int;
  ed_refired : int;
  ed_cutoff : int;
  ed_fallback : bool;
  ed_prop_ms : float;
}

type totals = {
  tot_edits : int;
  tot_dirty : int;
  tot_refired : int;
  tot_cutoff : int;
  tot_fallbacks : int;
}

type wave_stats = {
  wv_edits : int;
  wv_waves : int;
  wv_conflicts : int;
  wv_dirty : int;
  wv_refired : int;
  wv_cutoff : int;
  wv_fallbacks : int;
  wv_rounds : int;
  wv_round_refired : int array;
  wv_bytes : int;
  wv_prop_ms : float;
}

type session = {
  s_g : Grammar.t;
  s_obs : Obs.ctx;
  s_prov : Prov.t;
  s_frontier : float;
  s_cursor : int ref;
  s_use_dag : bool;
  mutable s_dag : Dag.t option;  (* the run's DAG runtime when [s_use_dag] *)
  mutable s_tree : Tree.t;
  mutable s_store : Store.t;
  mutable s_engine : Engine.t;
  mutable s_graph : Engine.graph;
  mutable s_next_id : int;  (* next unused node id *)
  mutable s_live_rules : int;
  mutable s_live_slots : int;  (* slots owned by live tree nodes *)
  mutable s_epoch : int;
  mutable s_epoch0 : int;  (* epoch before the current edit/batch began:
                              {!changed} answers for stamps above it, so a
                              multi-wave batch reports every wave's changes *)
  mutable s_changed : int array;  (* slot -> epoch its value last changed *)
  mutable s_last_fallback : bool;
  mutable s_edits : int;
  mutable s_dirty : int;
  mutable s_refired : int;
  mutable s_cutoff : int;
  mutable s_fallbacks : int;
}

let tree s = s.s_tree

let store s = s.s_store

let engine s = s.s_engine

let prov s = s.s_prov

let live_slots s = s.s_live_slots

let dag_stats s = Option.map Dag.stats s.s_dag

(* Attribute instances a (sub)tree owns in the store: one slot per
   declared attribute of each node's symbol (see {!Store.create}). *)
let tree_slots g t =
  Tree.fold
    (fun acc (n : Tree.t) ->
      acc + Array.length (Grammar.symbol g n.Tree.sym).Grammar.s_attrs)
    0 t

let totals s =
  {
    tot_edits = s.s_edits;
    tot_dirty = s.s_dirty;
    tot_refired = s.s_refired;
    tot_cutoff = s.s_cutoff;
    tot_fallbacks = s.s_fallbacks;
  }

let no_edit =
  {
    ed_dirty = 0;
    ed_refired = 0;
    ed_cutoff = 0;
    ed_fallback = false;
    ed_prop_ms = 0.0;
  }

(* Evaluate [tree] from scratch: store, DAG plan when [dag], engine,
   dependency graph, then the topological (or DAG) run drawing labels from
   [cursor]. A provenance ring outlives the engines of a session, so it is
   attached to every engine built here; the clock is the session's obs
   clock when live, CPU time otherwise. *)
let evaluate ~obs ~prov ~dag ~cursor g tree =
  let store = Store.create g tree in
  let dplan = if dag then Some (Dag.plan g store (Tree.dag tree)) else None in
  let eng =
    Engine.create ?rules_for:(Option.map Dag.rules_for dplan) g store
  in
  (if Prov.enabled prov then
     let clock = if Obs.ctx_enabled obs then obs.Obs.x_clock else Sys.time in
     Engine.set_prov ~pid:obs.Obs.x_pid ~clock eng prov);
  let gr = Engine.graph eng in
  let rt = Option.map (fun p -> Dag.make p eng gr) dplan in
  Uid.with_counter cursor (fun () ->
      match rt with
      | None -> ignore (Engine.run_topo eng gr)
      | Some rt -> ignore (Dag.run_topo rt eng gr));
  (store, eng, gr, rt)

let build s =
  (* The compacting rebuild renumbers slots: stale records would resolve
     against the wrong instances. Clear the ring — the from-scratch
     re-evaluation below repopulates it consistently with the new engine. *)
  Prov.clear s.s_prov;
  let store, eng, gr, rt =
    evaluate ~obs:s.s_obs ~prov:s.s_prov ~dag:s.s_use_dag ~cursor:s.s_cursor
      s.s_g s.s_tree
  in
  s.s_dag <- rt;
  s.s_store <- store;
  s.s_engine <- eng;
  s.s_graph <- gr;
  s.s_next_id <- Store.node_count store;
  s.s_live_rules <- Engine.rule_count eng;
  s.s_live_slots <- Store.slot_count store;
  s.s_changed <- Array.make (max 1 (Store.slot_count store)) 0

let start ?(obs = Obs.null_ctx) ?(dag = false) ?(prov = Prov.disabled)
    ?(frontier = 0.6) g tree =
  let cursor = ref 0 in
  let store, eng, gr, rt = evaluate ~obs ~prov ~dag ~cursor g tree in
  {
    s_g = g;
    s_obs = obs;
    s_prov = prov;
    s_frontier = frontier;
    s_cursor = cursor;
    s_use_dag = dag;
    s_dag = rt;
    s_tree = tree;
    s_store = store;
    s_engine = eng;
    s_graph = gr;
    s_next_id = Store.node_count store;
    s_live_rules = Engine.rule_count eng;
    s_live_slots = Store.slot_count store;
    s_epoch = 0;
    s_epoch0 = 0;
    s_changed = Array.make (max 1 (Store.slot_count store)) 0;
    s_last_fallback = false;
    s_edits = 0;
    s_dirty = 0;
    s_refired = 0;
    s_cutoff = 0;
    s_fallbacks = 0;
  }

let record s st =
  s.s_edits <- s.s_edits + 1;
  s.s_dirty <- s.s_dirty + st.ed_dirty;
  s.s_refired <- s.s_refired + st.ed_refired;
  s.s_cutoff <- s.s_cutoff + st.ed_cutoff;
  if st.ed_fallback then s.s_fallbacks <- s.s_fallbacks + 1;
  s.s_last_fallback <- st.ed_fallback;
  let obs = s.s_obs in
  if Obs.ctx_enabled obs then begin
    let reg = obs.Obs.x_metrics in
    let bump name n = Obs.Metrics.add (Obs.Metrics.counter reg name) n in
    bump "incr.edits" 1;
    bump "incr.dirty_rules" st.ed_dirty;
    bump "incr.refired" st.ed_refired;
    bump "incr.cutoff_hits" st.ed_cutoff;
    if st.ed_fallback then bump "incr.fallbacks" 1;
    Obs.Metrics.observe
      (Obs.Metrics.histogram reg "incr.prop_ms")
      st.ed_prop_ms
  end;
  st

(* From-scratch fallback: renumber and rebuild, compacting away dead
   instances accumulated by previous edits. *)
let fallback s ~dirty t0 =
  build s;
  record s
    {
      ed_dirty = dirty;
      ed_refired = Engine.rule_count s.s_engine;
      ed_cutoff = 0;
      ed_fallback = true;
      ed_prop_ms = (Sys.time () -. t0) *. 1e3;
    }

let in_set set rid =
  Char.code (Bytes.unsafe_get set (rid lsr 3)) land (1 lsl (rid land 7)) <> 0

let add_set set rid =
  let b = rid lsr 3 in
  Bytes.set set b (Char.chr (Char.code (Bytes.get set b) lor (1 lsl (rid land 7))))

(* Grow a rule-id bitset to cover [n] rules. DAG sessions materialize
   instances mid-edit (see {!revive_site}), so the rule table can outgrow
   bitsets sized at the edit's start. *)
let ensure b n =
  let need = (n + 7) / 8 in
  if Bytes.length !b < need then begin
    let nb = Bytes.make (max need (2 * Bytes.length !b)) '\000' in
    Bytes.blit !b 0 nb 0 (Bytes.length !b);
    b := nb
  end

(* Rule instances a detached subtree actually owned: parked occurrences
   inside it never had theirs resolved. *)
let killed_rules eng old =
  Tree.fold
    (fun acc (n : Tree.t) ->
      match n.Tree.prod with
      | None -> acc
      | Some p ->
          if Engine.has_rules eng n then acc + Array.length p.Grammar.p_rules
          else acc)
    0 old

(* An edit inside a projected occurrence splits it off its class before
   any surgery: the covering region materializes (sticky — it never
   re-projects), so the nodes about to be killed and the parent about to
   be re-resolved have live rule instances. Must run before
   {!Tree.replace_subtree} — materialization walks the region's current
   subtree. *)
let revive_site s gr (parent : Tree.t) =
  match s.s_dag with
  | None -> ()
  | Some rt -> (
      match Dag.revive_node rt gr parent.Tree.id with
      | None -> ()
      | Some (lo, hi) -> s.s_live_rules <- s.s_live_rules + (hi - lo))

(* The dirty cone is reaching an inherited gate of a projected occurrence:
   its context may diverge from its class's, so split it off and return
   the fresh instances for the cone (non-seeds — the equality cutoff
   discards them when the gate value turns out unchanged). *)
let revive_slot s gr slot =
  match s.s_dag with
  | None -> None
  | Some rt -> (
      match Dag.revive_gate rt gr slot with
      | None -> None
      | Some (lo, hi) as r ->
          s.s_live_rules <- s.s_live_rules + (hi - lo);
          r)

let replace s ~parent ~pos repl =
  let t0 = Sys.time () in
  s.s_epoch0 <- s.s_epoch;
  let eng = s.s_engine and gr = s.s_graph in
  revive_site s gr parent;
  s.s_next_id <- Tree.number_from repl s.s_next_id;
  let old = Tree.replace_subtree s.s_g ~parent ~pos repl in
  let added = tree_slots s.s_g repl in
  s.s_live_slots <- s.s_live_slots + added - tree_slots s.s_g old;
  if Store.slot_count s.s_store + added > 2 * s.s_live_slots then
    (* Dead weight from detached subtrees would outweigh the live tree:
       compact with a from-scratch rebuild instead of appending. Nothing
       else ever reclaims dead slots — before this trigger a long stream of
       small edits grew the flat arrays (and the resident store's heap)
       without bound, a leak per edit session. The 2x threshold amortizes:
       a rebuild costs O(live), and reaching the trigger again requires
       detaching at least O(live) slots' worth of edits. *)
    fallback s ~dirty:s.s_live_rules t0
  else begin
  Store.append_subtree s.s_store repl;
  let total = Store.slot_count s.s_store in
  if Array.length s.s_changed < total then begin
    let a = Array.make (max total (2 * Array.length s.s_changed)) 0 in
    Array.blit s.s_changed 0 a 0 (Array.length s.s_changed);
    s.s_changed <- a
  end;
  (* Detach the old subtree's instances, append the replacement's, rewire
     the edit site. *)
  let killed = killed_rules eng old in
  Engine.kill_subtree eng old;
  let rid_lo, rid_hi = Engine.append eng repl in
  Engine.graph_note_range eng gr ~rid_lo ~rid_hi;
  Engine.reresolve_node eng ~graph:gr parent;
  s.s_live_rules <- s.s_live_rules + (rid_hi - rid_lo) - killed;
  (* Seeds: the appended instances (their slots are all unset) and the edit
     site's own instances (their references moved). *)
  let n = Engine.rule_count eng in
  let seed = ref (Bytes.make (max 1 ((n + 7) / 8)) '\000') in
  let dirty = ref (Bytes.make (max 1 ((n + 7) / 8)) '\000') in
  let cone = ref [] and cone_n = ref 0 in
  let stack = ref [] in
  let push rid =
    if not (in_set !dirty rid) then begin
      add_set !dirty rid;
      cone := rid :: !cone;
      incr cone_n;
      stack := rid :: !stack
    end
  in
  for rid = rid_lo to rid_hi - 1 do
    add_set !seed rid;
    push rid
  done;
  (match parent.Tree.prod with
  | None -> ()
  | Some p ->
      for ridx = 0 to Array.length p.Grammar.p_rules - 1 do
        let rid = Engine.rid_at eng parent ridx in
        add_set !seed rid;
        push rid
      done);
  (* Phase 1: dirty cone = consumer-edge closure of the seeds. *)
  let rec close () =
    match !stack with
    | [] -> ()
    | rid :: rest ->
        stack := rest;
        let tgt = Engine.target_slot eng rid in
        (match revive_slot s gr tgt with
        | None -> ()
        | Some (lo, hi) ->
            ensure seed (Engine.rule_count eng);
            ensure dirty (Engine.rule_count eng);
            for r = lo to hi - 1 do
              push r
            done);
        Engine.iter_consumers gr tgt (fun c ->
            if not (Engine.is_dead eng c) then push c);
        close ()
  in
  close ();
  if float_of_int !cone_n > s.s_frontier *. float_of_int s.s_live_rules then
    fallback s ~dirty:!cone_n t0
  else begin
    (* Phase 2: local Kahn over the cone. A rule waits only on cone
       producers; ready rules fire in ascending rule-id order for
       determinism. Cutoff: skip rules none of whose arguments changed
       this epoch; a re-fired rule marks its target changed only when the
       stored value actually moved. *)
    s.s_epoch <- s.s_epoch + 1;
    let epoch = s.s_epoch in
    let cone = Array.of_list !cone in
    Array.sort compare cone;
    let pending = Hashtbl.create (2 * Array.length cone) in
    Array.iter
      (fun rid ->
        let w = ref 0 in
        Engine.iter_slot_args eng rid (fun slot ->
            let p = Engine.producer gr slot in
            if p >= 0 && (not (Engine.is_dead eng p)) && in_set !dirty p then
              incr w);
        Hashtbl.replace pending rid !w)
      cone;
    let queue = Queue.create () in
    Array.iter
      (fun rid -> if Hashtbl.find pending rid = 0 then Queue.add rid queue)
      cone;
    let refired = ref 0 and cutoff = ref 0 and processed = ref 0 in
    Uid.with_counter s.s_cursor (fun () ->
        while not (Queue.is_empty queue) do
          let rid = Queue.take queue in
          incr processed;
          let must =
            in_set !seed rid
            ||
            let hit = ref false in
            Engine.iter_slot_args eng rid (fun slot ->
                if s.s_changed.(slot) = epoch then hit := true);
            !hit
          in
          (if must then begin
             incr refired;
             if Engine.refire eng rid then
               s.s_changed.(Engine.target_slot eng rid) <- epoch
           end
           else incr cutoff);
          Engine.iter_consumers gr (Engine.target_slot eng rid) (fun c ->
              if (not (Engine.is_dead eng c)) && in_set !dirty c then begin
                let w = Hashtbl.find pending c - 1 in
                Hashtbl.replace pending c w;
                if w = 0 then Queue.add c queue
              end)
        done);
    if !processed < Array.length cone then
      (* A cycle through the dirty set (possible only for pathological
         grammars): give up on propagation and rebuild. *)
      fallback s ~dirty:!cone_n t0
    else
      record s
        {
          ed_dirty = !cone_n;
          ed_refired = !refired;
          ed_cutoff = !cutoff;
          ed_fallback = false;
          ed_prop_ms = (Sys.time () -. t0) *. 1e3;
        }
  end
  end

let edit s next =
  match Tree.diff s.s_tree next with
  | Tree.Equal ->
      (* Nothing moved; bump the epoch so stale change marks from the
         previous edit stop answering {!changed}. *)
      s.s_epoch <- s.s_epoch + 1;
      s.s_epoch0 <- s.s_epoch;
      record s no_edit
  | Tree.Root ->
      let t0 = Sys.time () in
      s.s_epoch0 <- s.s_epoch;
      s.s_tree <- next;
      fallback s ~dirty:s.s_live_rules t0
  | Tree.Subtree { parent; pos; repl } -> replace s ~parent ~pos repl

(* ------------------------------------------------------------------ *)
(* Batched edits: merged cones and refire waves                        *)
(* ------------------------------------------------------------------ *)

(* Apply a set of edits in waves, re-firing each wave's merged dirty cone
   once instead of propagating edit by edit.

   Semantic rules are pure, so change propagation is confluent: as long as
   two co-grafted edits are structurally compatible — neither grafts into
   a region the other replaced — a single Kahn pass over the union of
   their dirty cones reaches exactly the store the serial application
   would, in any order. Overlapping cones (every edit's cone reaches the
   root's synthesized attributes) therefore MERGE; what forces
   serialization is structural interference only:

   - the new edit's graft site lies inside a region an accepted edit
     replaced (parent or detached nodes touched by an accepted edit's
     parent/old/replacement node set);
   - the new edit detaches instances already in the pending merged cone
     (their re-fire is owed to an earlier edit and must happen first);
   - the new edit shares its parent node with an accepted edit (the
     re-resolved frontier slots at the graft interface are shared).

   All three are decided before grafting, against a touched-node table and
   the merged dirty bitset. A conflicting edit flushes the pending wave
   (one merged refire, its own epoch) and starts the next one — batches
   degrade to serial waves, preserving submission order. Compaction,
   frontier overflow and whole-tree replacement fall back to a rebuild as
   in {!replace}; a rebuild subsumes the pending wave (from-scratch
   evaluation recomputes everything the wave owed). *)

let edit_batch s nexts =
  let t0 = Sys.time () in
  s.s_epoch0 <- s.s_epoch;
  let edits = ref 0 and waves = ref 0 and conflicts = ref 0 in
  let dirty_tot = ref 0 and refired = ref 0 and cutoff = ref 0 in
  let fallbacks = ref 0 and rounds = ref 0 in
  let round_refired = ref [] in
  let bytes = ref 0 in
  (* Pending-wave state. Bitsets are indexed by rule id and grow with the
     engine; [w_touched] holds node ids structurally claimed by accepted
     edits. *)
  let w_seed = ref (Bytes.make 1 '\000') in
  let w_dirty = ref (Bytes.make 1 '\000') in
  let w_cone = ref [] and w_cone_n = ref 0 and w_edits = ref 0 in
  let w_touched : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let reset_wave () =
    let n = (Engine.rule_count s.s_engine + 7) / 8 in
    w_seed := Bytes.make (max 1 n) '\000';
    w_dirty := Bytes.make (max 1 n) '\000';
    w_cone := [];
    w_cone_n := 0;
    w_edits := 0;
    Hashtbl.reset w_touched
  in
  (* From-scratch rebuild subsuming whatever wave is pending. *)
  let rebuild ~dirty =
    incr fallbacks;
    dirty_tot := !dirty_tot + dirty;
    build s;
    refired := !refired + Engine.rule_count s.s_engine;
    reset_wave ()
  in
  let flush () =
    if !w_cone_n > 0 then begin
      s.s_epoch <- s.s_epoch + 1;
      let epoch = s.s_epoch in
      let cone = Array.of_list !w_cone in
      Array.sort compare cone;
      let seedb = !w_seed in
      let is_seed rid = in_set seedb rid in
      (match
         Uid.with_counter s.s_cursor (fun () ->
             Engine.refire_set s.s_engine s.s_graph ~cone ~is_seed
               ~changed:s.s_changed ~epoch)
       with
      | exception Engine.Cycle _ -> rebuild ~dirty:!w_cone_n
      | rf ->
          dirty_tot := !dirty_tot + !w_cone_n;
          refired := !refired + rf.Engine.rf_refired;
          cutoff := !cutoff + rf.Engine.rf_cutoff;
          rounds := !rounds + rf.Engine.rf_rounds;
          Array.iter
            (fun r -> round_refired := r :: !round_refired)
            rf.Engine.rf_round_refired;
          incr waves;
          reset_wave ())
    end
  in
  (* Structural interference of a new edit with the pending wave. *)
  let conflicts_with ~parent ~pos =
    !w_edits > 0
    && (Hashtbl.mem w_touched parent.Tree.id
       ||
       let eng = s.s_engine in
       let bad = ref false in
       Tree.iter
         (fun (n : Tree.t) ->
           if Hashtbl.mem w_touched n.Tree.id then bad := true;
           match n.Tree.prod with
           | None -> ()
           | Some p ->
               (* Parked occurrences own no instances; their rid base is
                  stale and must not be consulted. *)
               if Engine.has_rules eng n then
                 for ridx = 0 to Array.length p.Grammar.p_rules - 1 do
                   if in_set !w_dirty (Engine.rid_at eng n ridx) then
                     bad := true
                 done)
         parent.Tree.children.(pos);
       !bad)
  in
  (* Graft one accepted edit and extend the merged cone (the front half of
     {!replace}, with the refire deferred to the wave flush). *)
  let graft ~parent ~pos repl =
    let eng = s.s_engine and gr = s.s_graph in
    revive_site s gr parent;
    s.s_next_id <- Tree.number_from repl s.s_next_id;
    let old = Tree.replace_subtree s.s_g ~parent ~pos repl in
    let added = tree_slots s.s_g repl in
    s.s_live_slots <- s.s_live_slots + added - tree_slots s.s_g old;
    if Store.slot_count s.s_store + added > 2 * s.s_live_slots then
      rebuild ~dirty:s.s_live_rules
    else begin
      Store.append_subtree s.s_store repl;
      let total = Store.slot_count s.s_store in
      if Array.length s.s_changed < total then begin
        let a = Array.make (max total (2 * Array.length s.s_changed)) 0 in
        Array.blit s.s_changed 0 a 0 (Array.length s.s_changed);
        s.s_changed <- a
      end;
      let killed = killed_rules eng old in
      Engine.kill_subtree eng old;
      let rid_lo, rid_hi = Engine.append eng repl in
      Engine.graph_note_range eng gr ~rid_lo ~rid_hi;
      Engine.reresolve_node eng ~graph:gr parent;
      s.s_live_rules <- s.s_live_rules + (rid_hi - rid_lo) - killed;
      incr w_edits;
      let n = Engine.rule_count eng in
      ensure w_seed n;
      ensure w_dirty n;
      let stack = ref [] in
      let push rid =
        if not (in_set !w_dirty rid) then begin
          add_set !w_dirty rid;
          w_cone := rid :: !w_cone;
          incr w_cone_n;
          stack := rid :: !stack
        end
      in
      for rid = rid_lo to rid_hi - 1 do
        add_set !w_seed rid;
        push rid
      done;
      (match parent.Tree.prod with
      | None -> ()
      | Some p ->
          for ridx = 0 to Array.length p.Grammar.p_rules - 1 do
            let rid = Engine.rid_at eng parent ridx in
            add_set !w_seed rid;
            push rid
          done);
      let rec close () =
        match !stack with
        | [] -> ()
        | rid :: rest ->
            stack := rest;
            let tgt = Engine.target_slot eng rid in
            (match revive_slot s gr tgt with
            | None -> ()
            | Some (lo, hi) ->
                ensure w_seed (Engine.rule_count eng);
                ensure w_dirty (Engine.rule_count eng);
                for r = lo to hi - 1 do
                  push r
                done);
            Engine.iter_consumers gr tgt (fun c ->
                if not (Engine.is_dead eng c) then push c);
            close ()
      in
      close ();
      Hashtbl.replace w_touched parent.Tree.id ();
      Tree.iter (fun (n : Tree.t) -> Hashtbl.replace w_touched n.Tree.id ()) old;
      Tree.iter (fun (n : Tree.t) -> Hashtbl.replace w_touched n.Tree.id ()) repl;
      bytes := !bytes + Tree.byte_size repl;
      if float_of_int !w_cone_n > s.s_frontier *. float_of_int s.s_live_rules
      then rebuild ~dirty:!w_cone_n
    end
  in
  List.iter
    (fun next ->
      incr edits;
      match Tree.diff s.s_tree next with
      | Tree.Equal -> ()
      | Tree.Root ->
          s.s_tree <- next;
          rebuild ~dirty:s.s_live_rules
      | Tree.Subtree { parent; pos; repl } ->
          if conflicts_with ~parent ~pos then begin
            incr conflicts;
            flush ()
          end;
          graft ~parent ~pos repl)
    nexts;
  flush ();
  let wv =
    {
      wv_edits = !edits;
      wv_waves = !waves;
      wv_conflicts = !conflicts;
      wv_dirty = !dirty_tot;
      wv_refired = !refired;
      wv_cutoff = !cutoff;
      wv_fallbacks = !fallbacks;
      wv_rounds = !rounds;
      wv_round_refired = Array.of_list (List.rev !round_refired);
      wv_bytes = !bytes;
      wv_prop_ms = (Sys.time () -. t0) *. 1e3;
    }
  in
  s.s_edits <- s.s_edits + wv.wv_edits;
  s.s_dirty <- s.s_dirty + wv.wv_dirty;
  s.s_refired <- s.s_refired + wv.wv_refired;
  s.s_cutoff <- s.s_cutoff + wv.wv_cutoff;
  s.s_fallbacks <- s.s_fallbacks + wv.wv_fallbacks;
  s.s_last_fallback <- wv.wv_fallbacks > 0;
  let obs = s.s_obs in
  if Obs.ctx_enabled obs then begin
    let reg = obs.Obs.x_metrics in
    let bump name n = Obs.Metrics.add (Obs.Metrics.counter reg name) n in
    bump "incr.edits" wv.wv_edits;
    bump "incr.dirty_rules" wv.wv_dirty;
    bump "incr.refired" wv.wv_refired;
    bump "incr.cutoff_hits" wv.wv_cutoff;
    bump "incr.fallbacks" wv.wv_fallbacks;
    bump "incr.waves" wv.wv_waves;
    bump "incr.conflicts" wv.wv_conflicts;
    Obs.Metrics.observe
      (Obs.Metrics.histogram reg "incr.prop_ms")
      wv.wv_prop_ms
  end;
  wv

let changed s node attr =
  s.s_last_fallback
  ||
  let idx = Grammar.attr_pos s.s_g ~sym:node.Tree.sym ~attr in
  let slot = Store.slot_of s.s_store node ~attr_idx:idx in
  s.s_changed.(slot) > s.s_epoch0

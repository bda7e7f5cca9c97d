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
   style, in one wave for one edit or many:

   - each graft extends the wave's dirty cone: every rule instance
     reachable from the seed rules (the appended subtree's rules plus the
     parent's) through consumer edges;
   - the wave re-fires its cone in local topological order, on the one
     dependency-counting loop ({!Engine.steal_loop}) every from-scratch
     run uses, with an equality cutoff — a rule whose argument slots all
     kept their values is skipped, and a re-fired rule whose target value
     is unchanged ({!Store.redefine_slot}) stops propagation below it.

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
  mutable s_seeds : Bytes.t;  (* the pending wave's seeds and cone, *)
  mutable s_cone : Bytes.t;  (* by rule id: see {!reset_wave} *)
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
      | Some rt -> ignore (Dag.run_topo rt));
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
    s_seeds = Bytes.empty;
    s_cone = Bytes.empty;
    s_last_fallback = false;
    s_edits = 0;
    s_dirty = 0;
    s_refired = 0;
    s_cutoff = 0;
    s_fallbacks = 0;
  }

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

(* ------------------------------------------------------------------ *)
(* One wave                                                            *)
(* ------------------------------------------------------------------ *)

(* Every edit runs through one wave. {!replace}, {!edit} and {!edit_batch}
   only differ in how they feed it: one pre-diffed tree, one tree diffed
   here, or a list of them.

   Semantic rules are pure, so change propagation is confluent: as long as
   two co-grafted edits are structurally compatible — neither grafts into
   a region the other replaced — a single dependency-counting pass over
   the union of their dirty cones reaches exactly the store the serial
   application would, in any order. Overlapping cones (every edit's cone
   reaches the root's synthesized attributes) therefore MERGE; what forces
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
   frontier overflow and whole-tree replacement fall back to a rebuild; a
   rebuild subsumes the pending wave (from-scratch evaluation recomputes
   everything the wave owed). A single edit is a wave of one: it never
   consults the touched-node table, so the table is built only when a
   second edit arrives. *)

type wave = {
  (* the pending wave: the merged cone (its bits set in the session's
     [s_cone], its seeds' also in [s_seeds]), and the accepted edits'
     (parent, old, replacement) not yet entered in [w_touched] *)
  mutable w_cone : int list;
  mutable w_cone_n : int;
  mutable w_grafts : int;
  mutable w_claims : (Tree.t * Tree.t * Tree.t) list;
  mutable w_touched : (int, unit) Hashtbl.t option;
  (* the call's counters, across its waves *)
  mutable w_edits : int;
  mutable w_waves : int;
  mutable w_conflicts : int;
  mutable w_dirty_n : int;
  mutable w_refired : int;
  mutable w_cutoff : int;
  mutable w_fallbacks : int;
  mutable w_rounds : int list;  (* refires per round, newest first *)
  mutable w_bytes : int;
}

(* The session's wave bitsets are kept between waves with only the cone's
   bits set, so clearing them costs the cone: sets sized to the rule table
   anew cost the session on every wave (about 0.9 ms on the paper's). *)
let reset_wave s w =
  List.iter
    (fun r -> Engine.bit_clear s.s_seeds r; Engine.bit_clear s.s_cone r)
    w.w_cone;
  w.w_cone <- [];
  w.w_cone_n <- 0;
  w.w_grafts <- 0;
  w.w_claims <- [];
  Option.iter Hashtbl.reset w.w_touched

(* Grow the wave's bitsets to cover every rule id. DAG sessions
   materialize instances mid-edit (see {!revive_site}), so the rule table
   can outgrow bitsets covered at the wave's first graft. *)
let cover s =
  let n = Engine.rule_count s.s_engine in
  s.s_seeds <- Engine.bits_cover s.s_seeds n;
  s.s_cone <- Engine.bits_cover s.s_cone n

(* From-scratch fallback subsuming whatever wave is pending: renumber and
   rebuild, compacting away dead instances accumulated by previous edits. *)
let rebuild s w ~dirty =
  w.w_fallbacks <- w.w_fallbacks + 1;
  w.w_dirty_n <- w.w_dirty_n + dirty;
  build s;
  w.w_refired <- w.w_refired + Engine.rule_count s.s_engine;
  reset_wave s w

(* Graft one accepted edit and extend the pending wave's cone. *)
let graft s w ~parent ~pos repl =
  let eng = s.s_engine and gr = s.s_graph in
  revive_site s gr parent;
  s.s_next_id <- Tree.number_from repl s.s_next_id;
  let old = Tree.replace_subtree s.s_g ~parent ~pos repl in
  w.w_bytes <- w.w_bytes + Tree.byte_size repl;
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
    rebuild s w ~dirty:s.s_live_rules
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
    w.w_grafts <- w.w_grafts + 1;
    cover s;
    (* Seeds: the appended instances (their slots are all unset) and the
       edit site's own instances (their references moved). The dirty cone
       is their consumer-edge closure. *)
    let stack = ref [] in
    let push rid =
      if not (Engine.bit_mem s.s_cone rid) then begin
        Engine.bit_add s.s_cone rid;
        w.w_cone <- rid :: w.w_cone;
        w.w_cone_n <- w.w_cone_n + 1;
        stack := rid :: !stack
      end
    in
    let seed rid =
      Engine.bit_add s.s_seeds rid;
      push rid
    in
    for rid = rid_lo to rid_hi - 1 do
      seed rid
    done;
    (match parent.Tree.prod with
    | None -> ()
    | Some p ->
        for ridx = 0 to Array.length p.Grammar.p_rules - 1 do
          seed (Engine.rid_at eng parent ridx)
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
              cover s;
              for r = lo to hi - 1 do
                push r
              done);
          Engine.iter_consumers gr tgt (fun c ->
              if not (Engine.is_dead eng c) then push c);
          close ()
    in
    close ();
    w.w_claims <- (parent, old, repl) :: w.w_claims;
    if float_of_int w.w_cone_n > s.s_frontier *. float_of_int s.s_live_rules
    then rebuild s w ~dirty:w.w_cone_n
  end

(* The node ids accepted edits structurally claimed: each graft's parent,
   detached and replacement nodes. Built on first use. *)
let touched w =
  let t =
    match w.w_touched with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 64 in
        w.w_touched <- Some t;
        t
  in
  let claim (n : Tree.t) = Hashtbl.replace t n.Tree.id () in
  List.iter
    (fun (parent, old, repl) ->
      claim parent;
      Tree.iter claim old;
      Tree.iter claim repl)
    w.w_claims;
  w.w_claims <- [];
  t

(* Structural interference of a new edit with the pending wave. *)
let conflicts s w ~parent ~pos =
  w.w_grafts > 0
  &&
  let touched = touched w in
  Hashtbl.mem touched parent.Tree.id
  ||
  let eng = s.s_engine in
  let bad = ref false in
  Tree.iter
    (fun (n : Tree.t) ->
      if Hashtbl.mem touched n.Tree.id then bad := true;
      match n.Tree.prod with
      | None -> ()
      | Some p ->
          (* Parked occurrences own no instances; their rid base is stale
             and must not be consulted. *)
          if Engine.has_rules eng n then
            for ridx = 0 to Array.length p.Grammar.p_rules - 1 do
              if Engine.bit_mem s.s_cone (Engine.rid_at eng n ridx) then
                bad := true
            done)
    parent.Tree.children.(pos);
  !bad

(* Re-fire the pending wave's merged cone on {!Engine.steal_loop}'s
   one-machine set. Task [t] is member [cone.(t)] of the sorted cone, found
   from a rule id by binary search; it waits only on its cone producers.
   Cutoff: a member that is not a seed and none of whose arguments changed
   this epoch is skipped, and a re-fired member stamps its target changed
   only when the stored value moved ({!Store.redefine_slot}). Members fire
   through {!Engine.refire}, provenance included, so [--profile] blames
   across a wave. The loop fires depth-first and labels follow that order.

   A member's round, one plus the highest round among its cone producers,
   is its longest-path depth in the cone, which no order changes: a
   release raises the consumer's round before the consumer can fire. The
   per-round refire counts are those of a level-synchronous schedule,
   which prices a merged wave's parallel rounds. *)
let flush s w =
  if w.w_cone_n > 0 then begin
    s.s_epoch <- s.s_epoch + 1;
    let epoch = s.s_epoch in
    let eng = s.s_engine and gr = s.s_graph in
    let seed = s.s_seeds and dirty = s.s_cone in
    let cone = Array.of_list w.w_cone in
    Array.sort compare cone;
    let m = Array.length cone in
    (* the cone's bits name live instances: a graft that would kill one
       conflicts, and the pending wave is flushed first *)
    let member ~self c = c >= 0 && c <> self && Engine.bit_mem dirty c in
    let task rid =
      let lo = ref 0 and hi = ref (m - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cone.(mid) < rid then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let round = Array.make m 0 and refires = Array.make m 0 in
    let unmet t =
      let rid = cone.(t) and n = ref 0 in
      Engine.iter_slot_args eng rid (fun slot ->
          if member ~self:rid (Engine.producer gr slot) then incr n);
      !n
    in
    let release t f =
      let rid = cone.(t) and r = round.(t) + 1 in
      Engine.iter_consumers gr (Engine.target_slot eng rid) (fun c ->
          if member ~self:rid c then begin
            let u = task c in
            if round.(u) < r then round.(u) <- r;
            f u
          end)
    in
    let fire t =
      let rid = cone.(t) in
      if
        Engine.bit_mem seed rid
        ||
        let hit = ref false in
        Engine.iter_slot_args eng rid (fun slot ->
            if s.s_changed.(slot) = epoch then hit := true);
        !hit
      then begin
        refires.(round.(t)) <- refires.(round.(t)) + 1;
        if Engine.refire eng rid then
          s.s_changed.(Engine.target_slot eng rid) <- epoch
      end
    in
    match
      Uid.with_counter s.s_cursor (fun () ->
          Engine.steal_loop eng
            { Engine.tk_count = m; tk_unmet = unmet; tk_release = release }
            ~owner:(fun _ -> 0)
            (Engine.one_machine ~key:Fun.id ~fire))
    with
    | fired, _ when fired = m ->
        let refired = Array.fold_left ( + ) 0 refires in
        w.w_dirty_n <- w.w_dirty_n + m;
        w.w_refired <- w.w_refired + refired;
        w.w_cutoff <- w.w_cutoff + m - refired;
        for r = 0 to Array.fold_left max 0 round do
          w.w_rounds <- refires.(r) :: w.w_rounds
        done;
        w.w_waves <- w.w_waves + 1;
        reset_wave s w
    | _ | (exception Engine.Cycle _) ->
        (* A cycle through the dirty set (possible only for pathological
           grammars): give up on propagation and rebuild, which raises
           {!Engine.Cycle} when the tree itself is circular. *)
        rebuild s w ~dirty:m
  end

(* Run one call's edits through the wave, flush it, and record the call. *)
let run s feed =
  let t0 = Sys.time () in
  s.s_epoch0 <- s.s_epoch;
  let w =
    {
      w_cone = [];
      w_cone_n = 0;
      w_grafts = 0;
      w_claims = [];
      w_touched = None;
      w_edits = 0;
      w_waves = 0;
      w_conflicts = 0;
      w_dirty_n = 0;
      w_refired = 0;
      w_cutoff = 0;
      w_fallbacks = 0;
      w_rounds = [];
      w_bytes = 0;
    }
  in
  (* a call that raises leaves no bit set for the next *)
  Fun.protect ~finally:(fun () -> reset_wave s w) (fun () -> feed w; flush s w);
  let rounds = Array.of_list (List.rev w.w_rounds) in
  let wv =
    {
      wv_edits = w.w_edits;
      wv_waves = w.w_waves;
      wv_conflicts = w.w_conflicts;
      wv_dirty = w.w_dirty_n;
      wv_refired = w.w_refired;
      wv_cutoff = w.w_cutoff;
      wv_fallbacks = w.w_fallbacks;
      wv_rounds = Array.length rounds;
      wv_round_refired = rounds;
      wv_bytes = w.w_bytes;
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

(* One edit of a call: [d] is [Tree.diff] of the session's tree and
   [next]. *)
let apply s w next (d : Tree.delta) =
  w.w_edits <- w.w_edits + 1;
  match d with
  | Tree.Equal -> ()
  | Tree.Root ->
      s.s_tree <- next;
      w.w_bytes <- w.w_bytes + Tree.byte_size next;
      rebuild s w ~dirty:s.s_live_rules
  | Tree.Subtree { parent; pos; repl } ->
      if conflicts s w ~parent ~pos then begin
        w.w_conflicts <- w.w_conflicts + 1;
        flush s w
      end;
      graft s w ~parent ~pos repl

let replace s ~next d = run s (fun w -> apply s w next d)

let edit_batch s nexts =
  run s (fun w ->
      List.iter (fun next -> apply s w next (Tree.diff s.s_tree next)) nexts)

let edit s next = edit_batch s [ next ]

let changed s node attr =
  s.s_last_fallback
  ||
  let idx = Grammar.attr_pos s.s_g ~sym:node.Tree.sym ~attr in
  let slot = Store.slot_of s.s_store node ~attr_idx:idx in
  s.s_changed.(slot) > s.s_epoch0

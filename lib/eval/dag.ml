open Pag_core

(* DAG-native evaluation. See dag.mli for the model; in short:

   - the PLAN parks every non-first occurrence of a shared subtree class
     (a "follower region"): the engine resolves no rules for its nodes;
   - at runtime each parked region resolves once its GATE (the root's
     inherited slots) is defined: project the class leader's slot range if
     the inherited fingerprint matches and the leader's evaluation consumed
     no unique identifiers, materialize the region's own instances
     otherwise;
   - first occurrences of shared classes are CANDIDATE leader ranges: the
     runtime fingerprints them, counts their range completion and tracks
     uid taint, and registers each completed (class x fingerprint) so
     followers can project from it. A materialized follower registers as
     the leader for its own divergent fingerprint.

   Follower regions NEST: the planner keeps walking inside a parked
   occurrence, so repeated subtrees inside it are parked regions of their
   own. Nesting is what keeps sharing alive when an outer region cannot
   share: a follower whose inherited fingerprint diverges materializes
   only its spine — the repeated subtrees inside it still project from
   their own class leaders. When an outer region projects, its nested
   regions are subsumed (their slots arrive with the outer copy), so they
   never resolve twice. Candidate ranges nest too (a class's
   representative can sit inside another's); each slot keeps its innermost
   region/candidate and both keep parent links, so completion counting
   walks the chains. Representatives are never inside follower regions:
   any node inside a follower has an earlier structural twin inside the
   leader range, so the first occurrence of its class is always
   elsewhere. *)

let mix h1 h2 = (h1 * 0x01000193) lxor (h2 + 0x9e3779b9 + (h1 lsl 6))

(* ------------------------------------------------------------------ *)
(* Plan                                                                *)
(* ------------------------------------------------------------------ *)

type region = {
  rg_root : Tree.t;
  rg_class : int;
  rg_slot_lo : int;
  rg_slot_hi : int;
  rg_parent : int;  (* innermost enclosing region, -1 *)
}

type cand = {
  cd_class : int;
  cd_slot_lo : int;
  cd_slot_hi : int;
  cd_parent : int;  (* innermost enclosing candidate, -1 *)
}

type plan = {
  p_store : Store.t;
  p_regions : region array;  (* ascending root id *)
  p_cands : cand array;  (* ascending root id: parents precede children *)
  p_node_region : int array;  (* node id -> region idx, -1 *)
  p_node_cand : int array;  (* node id -> innermost candidate idx, -1 *)
  p_slot_region : int array;  (* slot -> region idx, -1 *)
  p_slot_cand : int array;  (* slot -> innermost candidate idx, -1 *)
  p_slot_gate : int array;  (* slot -> gate idx, -1 *)
  p_gates : gate array;
  p_class_cand : int array;  (* class -> candidate idx, -1 *)
  p_region_kids : int array array;  (* region idx -> direct child regions *)
}

and gkind = Lead of int | Follow of int

and gate = { g_kind : gkind; g_slots : int array }

(* Inherited slots of an occurrence root, in declaration order — the
   fingerprint domain. Everything else a subtree evaluation can read is
   part of the shape class (terminal attributes) or derived from these. *)
let inh_slots g store (node : Tree.t) =
  let sym = Grammar.symbol_of_id g node.Tree.sym_id in
  let acc = ref [] in
  Array.iteri
    (fun idx (a : Grammar.attr_decl) ->
      if a.Grammar.a_kind = Grammar.Inh then
        acc := Store.slot_of store node ~attr_idx:idx :: !acc)
    sym.Grammar.s_attrs;
  Array.of_list (List.rev !acc)

let plan ?(min_size = 2) g store (dag : Tree.dag) =
  let sh = dag.Tree.dg_sharing in
  let n = Array.length sh.Tree.sh_class in
  let range_of id cls =
    match Store.slot_range store ~id_lo:id ~id_count:sh.Tree.sh_size.(cls) with
    | Some r -> r
    | None ->
        invalid_arg "Dag.plan: store does not cover the tree contiguously"
  in
  (* Class eligibility is decided once, so representatives and followers
     always agree: shared, big enough, and with a nonempty slot range
     (an all-leaf class has nothing to project or park). *)
  let eligible =
    Array.init sh.Tree.sh_classes (fun c ->
        sh.Tree.sh_occurs.(c) >= 2
        && sh.Tree.sh_size.(c) >= min_size
        &&
        let rep = sh.Tree.sh_rep.(c) in
        match Store.find_node store rep with
        | Some node when node.Tree.prod <> None ->
            let lo, hi = range_of rep c in
            hi > lo
        | _ -> false)
  in
  let regions = ref [] and nregions = ref 0 in
  let cands = ref [] and ncands = ref 0 in
  let class_cand = Array.make (max 1 sh.Tree.sh_classes) (-1) in
  let rec walk cand_idx reg_idx (node : Tree.t) =
    match node.Tree.prod with
    | None -> ()
    | Some _ ->
        let id = node.Tree.id in
        let c = sh.Tree.sh_class.(id) in
        if eligible.(c) && sh.Tree.sh_rep.(c) <> id then begin
          (* follower: park the whole occurrence — and keep walking, so
             repeated subtrees inside it park as nested regions of their
             own (they still share even if this region materializes) *)
          let lo, hi = range_of id c in
          let ri = !nregions in
          regions :=
            {
              rg_root = node;
              rg_class = c;
              rg_slot_lo = lo;
              rg_slot_hi = hi;
              rg_parent = reg_idx;
            }
            :: !regions;
          incr nregions;
          Array.iter (walk cand_idx ri) node.Tree.children
        end
        else begin
          let cand_idx =
            if eligible.(c) then begin
              let lo, hi = range_of id c in
              cands :=
                {
                  cd_class = c;
                  cd_slot_lo = lo;
                  cd_slot_hi = hi;
                  cd_parent = cand_idx;
                }
                :: !cands;
              let k = !ncands in
              incr ncands;
              class_cand.(c) <- k;
              k
            end
            else cand_idx
          in
          Array.iter (walk cand_idx reg_idx) node.Tree.children
        end
  in
  walk (-1) (-1) (Store.root store);
  let regions = Array.of_list (List.rev !regions) in
  let cands = Array.of_list (List.rev !cands) in
  let node_region = Array.make (max 1 n) (-1) in
  let node_cand = Array.make (max 1 n) (-1) in
  let total = Store.slot_count store in
  let slot_region = Array.make (max 1 total) (-1) in
  let slot_cand = Array.make (max 1 total) (-1) in
  let slot_gate = Array.make (max 1 total) (-1) in
  (* Candidates in preorder: an inner (nested) range is written after its
     enclosing one, leaving the innermost index in the node/slot maps. *)
  Array.iteri
    (fun ci cd ->
      let root = sh.Tree.sh_rep.(cd.cd_class) in
      for id = root to root + sh.Tree.sh_size.(cd.cd_class) - 1 do
        node_cand.(id) <- ci
      done;
      for s = cd.cd_slot_lo to cd.cd_slot_hi - 1 do
        slot_cand.(s) <- ci
      done)
    cands;
  (* Regions in preorder too: nested regions overwrite their enclosing
     one, leaving the innermost index in the maps (parent links recover
     the chain). *)
  Array.iteri
    (fun ri r ->
      let root = r.rg_root.Tree.id in
      for id = root to root + sh.Tree.sh_size.(r.rg_class) - 1 do
        node_region.(id) <- ri
      done;
      for s = r.rg_slot_lo to r.rg_slot_hi - 1 do
        slot_region.(s) <- ri
      done)
    regions;
  let region_kids =
    let acc = Array.make (max 1 (Array.length regions)) [] in
    Array.iteri
      (fun ri r ->
        if r.rg_parent >= 0 then acc.(r.rg_parent) <- ri :: acc.(r.rg_parent))
      regions;
    Array.map (fun l -> Array.of_list (List.rev l)) acc
  in
  let gates = ref [] and ngates = ref 0 in
  let add_gate kind node =
    let slots = inh_slots g store node in
    let gi = !ngates in
    incr ngates;
    gates := { g_kind = kind; g_slots = slots } :: !gates;
    Array.iter (fun s -> slot_gate.(s) <- gi) slots
  in
  Array.iteri
    (fun ci cd ->
      match Store.find_node store sh.Tree.sh_rep.(cd.cd_class) with
      | Some node -> add_gate (Lead ci) node
      | None -> assert false)
    cands;
  Array.iteri (fun ri r -> add_gate (Follow ri) r.rg_root) regions;
  {
    p_store = store;
    p_regions = regions;
    p_cands = cands;
    p_node_region = node_region;
    p_node_cand = node_cand;
    p_slot_region = slot_region;
    p_slot_cand = slot_cand;
    p_slot_gate = slot_gate;
    p_gates = Array.of_list (List.rev !gates);
    p_class_cand = class_cand;
    p_region_kids = region_kids;
  }

let rules_for p (node : Tree.t) =
  let id = node.Tree.id in
  id >= Array.length p.p_node_region || p.p_node_region.(id) < 0

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

(* Leader table key: (class, canonical inherited values). Values are
   interned, so equality is physical and hashing O(1). *)
module Fp_key = struct
  type t = int * Value.t array

  let equal (c1, a) (c2, b) =
    c1 = c2
    && Array.length a = Array.length b
    &&
    let n = Array.length a in
    let rec go i = i >= n || (a.(i) == b.(i) && go (i + 1)) in
    go 0

  let hash (c, a) = Array.fold_left (fun h v -> mix h (Value.hash v)) c a
end

module Fp_tbl = Hashtbl.Make (Fp_key)

type lead = LCand of int | LRegion of int

(* Region lifecycle. *)
let st_parked = 0

and st_waiting = 1

and st_projected = 2

and st_live = 3

type t = {
  r_plan : plan;
  r_eng : Engine.t;
  r_gr : Engine.graph;
  (* per-region state *)
  r_state : int array;
  r_src : int array;  (* projection source slot lo, -1 *)
  r_rdef : int array;  (* slots defined in range *)
  r_rtaint : bool array;
  r_rreg : bool array;  (* registered as a dynamic leader *)
  r_rwait : int list ref array;  (* follower idxs waiting on this leader *)
  r_rgate : int array;  (* gate slots still unset *)
  (* per-candidate state *)
  r_cdef : int array;
  r_ctaint : bool array;
  r_creg : bool array;
  r_cwait : int list ref array;
  r_cgate : int array;
  r_leaders : lead Fp_tbl.t;
  r_class_pending : (int, int list ref) Hashtbl.t;
  (* linearized cascade processing *)
  r_queue : int Queue.t;
  mutable r_processing : bool;
  (* where projected slots and materialized rule ranges go: the loop's
     [release] and [seed], set when a wired machine set starts *)
  mutable r_on_defined : int -> unit;
  mutable r_on_new_rids : int -> int -> unit;
  (* stats *)
  mutable r_projected : int;
  mutable r_materialized : int;
  mutable r_projected_slots : int;
  mutable r_materialized_rids : int;
  mutable r_tainted_classes : int;
}

type stats = {
  dg_regions : int;
  dg_projected : int;
  dg_materialized : int;
  dg_projected_slots : int;
  dg_materialized_rids : int;
  dg_tainted_classes : int;
}

let stats rt =
  {
    dg_regions = Array.length rt.r_plan.p_regions;
    dg_projected = rt.r_projected;
    dg_materialized = rt.r_materialized;
    dg_projected_slots = rt.r_projected_slots;
    dg_materialized_rids = rt.r_materialized_rids;
    dg_tainted_classes = rt.r_tainted_classes;
  }

let make p eng gr =
  let nr = Array.length p.p_regions and nc = Array.length p.p_cands in
  {
    r_plan = p;
    r_eng = eng;
    r_gr = gr;
    r_state = Array.make (max 1 nr) st_parked;
    r_src = Array.make (max 1 nr) (-1);
    r_rdef = Array.make (max 1 nr) 0;
    r_rtaint = Array.make (max 1 nr) false;
    r_rreg = Array.make (max 1 nr) false;
    r_rwait = Array.init (max 1 nr) (fun _ -> ref []);
    r_rgate =
      Array.init (max 1 nr) (fun i ->
          if i < nr then
            Array.length p.p_gates.(nc + i).g_slots
          else 0);
    r_cdef = Array.make (max 1 nc) 0;
    r_ctaint = Array.make (max 1 nc) false;
    r_creg = Array.make (max 1 nc) false;
    r_cwait = Array.init (max 1 nc) (fun _ -> ref []);
    r_cgate =
      Array.init (max 1 nc) (fun i ->
          if i < nc then Array.length p.p_gates.(i).g_slots else 0);
    r_leaders = Fp_tbl.create 64;
    r_class_pending = Hashtbl.create 16;
    r_queue = Queue.create ();
    r_processing = false;
    r_on_defined = ignore;
    r_on_new_rids = (fun _ _ -> ());
    r_projected = 0;
    r_materialized = 0;
    r_projected_slots = 0;
    r_materialized_rids = 0;
    r_tainted_classes = 0;
  }

let lead_complete rt = function
  | LCand ci ->
      let cd = rt.r_plan.p_cands.(ci) in
      rt.r_cdef.(ci) = cd.cd_slot_hi - cd.cd_slot_lo
  | LRegion ri ->
      let r = rt.r_plan.p_regions.(ri) in
      rt.r_state.(ri) = st_live && rt.r_rdef.(ri) = r.rg_slot_hi - r.rg_slot_lo

let lead_tainted rt = function
  | LCand ci -> rt.r_ctaint.(ci)
  | LRegion ri -> rt.r_rtaint.(ri)

let lead_src rt = function
  | LCand ci -> rt.r_plan.p_cands.(ci).cd_slot_lo
  | LRegion ri -> rt.r_plan.p_regions.(ri).rg_slot_lo

let lead_waiters rt = function
  | LCand ci -> rt.r_cwait.(ci)
  | LRegion ri -> rt.r_rwait.(ri)

(* Fingerprint of a completed gate: canonical inherited values. *)
let gate_fp rt (g : gate) =
  Array.map
    (fun s -> Value.intern (Store.slot_value rt.r_plan.p_store s))
    g.g_slots

(* Walk a projection chain back to the slot a rule actually defined: the
   source range may itself contain projected sub-ranges. Returns (rid,
   origin slot); rid < 0 when no producer exists (preset slots). *)
let rec origin rt slot =
  let rid = Engine.producer rt.r_gr slot in
  if rid >= 0 then (rid, slot)
  else
    let ri = rt.r_plan.p_slot_region.(slot) in
    if ri >= 0 && rt.r_state.(ri) = st_projected && rt.r_src.(ri) >= 0 then
      origin rt (slot - rt.r_plan.p_regions.(ri).rg_slot_lo + rt.r_src.(ri))
    else (-1, slot)

(* Class-level provenance with occurrence fan-out: a projected slot gets a
   zero-duration replay record whose rid is the class-level (leader)
   instance and whose argument slots are the leader rule's arguments
   translated into the occurrence's range — the record a per-occurrence
   evaluation would have produced, pointing at the shared evaluation. *)
let prov_project rt dst =
  let p = Engine.prov rt.r_eng in
  if Pag_obs.Prov.enabled p then begin
    let rid, src = origin rt dst in
    if rid >= 0 then begin
      let t = Engine.prov_clock rt.r_eng () in
      Pag_obs.Prov.record p ~rid ~pid:(Engine.prov_pid rt.r_eng) ~target:dst
        ~t0:t ~t1:t ~replay:true;
      let delta = dst - src in
      Engine.iter_slot_args rt.r_eng rid (fun a ->
          Pag_obs.Prov.arg p (a + delta))
    end
  end

let push_slot rt s = Queue.add s rt.r_queue

(* The mutually recursive resolution machinery. Everything below runs
   inside [process] (from [note_define] or [prime]), so cascaded slot
   definitions are handled iteratively. *)

let rec handle_slot rt s =
  let p = rt.r_plan in
  (let gi = p.p_slot_gate.(s) in
   if gi >= 0 then
     match p.p_gates.(gi).g_kind with
     | Lead ci ->
         if rt.r_cgate.(ci) > 0 then begin
           rt.r_cgate.(ci) <- rt.r_cgate.(ci) - 1;
           if rt.r_cgate.(ci) = 0 then complete_lead_gate rt ci
         end
     | Follow ri ->
         if rt.r_rgate.(ri) > 0 then begin
           rt.r_rgate.(ri) <- rt.r_rgate.(ri) - 1;
           if rt.r_rgate.(ri) = 0 then complete_follow_gate rt ri
         end);
  (let ri = ref p.p_slot_region.(s) in
   while !ri >= 0 do
     let i = !ri in
     rt.r_rdef.(i) <- rt.r_rdef.(i) + 1;
     let r = p.p_regions.(i) in
     if
       rt.r_rdef.(i) = r.rg_slot_hi - r.rg_slot_lo
       && rt.r_state.(i) = st_live
       && rt.r_rreg.(i)
     then leader_done rt (LRegion i);
     ri := r.rg_parent
   done);
  let ci = ref p.p_slot_cand.(s) in
  while !ci >= 0 do
    let i = !ci in
    rt.r_cdef.(i) <- rt.r_cdef.(i) + 1;
    let cd = p.p_cands.(i) in
    if rt.r_cdef.(i) = cd.cd_slot_hi - cd.cd_slot_lo && rt.r_creg.(i) then
      leader_done rt (LCand i);
    ci := cd.cd_parent
  done

and complete_lead_gate rt ci =
  let p = rt.r_plan in
  let cd = p.p_cands.(ci) in
  let fp = gate_fp rt p.p_gates.(ci) in
  let key = (cd.cd_class, fp) in
  if not (Fp_tbl.mem rt.r_leaders key) then
    Fp_tbl.add rt.r_leaders key (LCand ci);
  rt.r_creg.(ci) <- true;
  (* followers whose gates completed before the representative's resolve
     now, in occurrence order *)
  match Hashtbl.find_opt rt.r_class_pending cd.cd_class with
  | None -> ()
  | Some pending ->
      let waiting = List.sort compare !pending in
      Hashtbl.remove rt.r_class_pending cd.cd_class;
      List.iter
        (fun ri -> if rt.r_state.(ri) = st_waiting then resolve rt ri)
        waiting

and complete_follow_gate rt ri =
  (* the region may already be live: demand materialization breaks
     inherited-depends-on-own-synthesized feedback cycles before the gate
     can complete *)
  if rt.r_state.(ri) = st_parked then begin
    rt.r_state.(ri) <- st_waiting;
    resolve rt ri
  end

(* A follower's inherited context is known: project, wait, or split. *)
and resolve rt ri =
  let p = rt.r_plan in
  let r = p.p_regions.(ri) in
  let fp = gate_fp rt p.p_gates.(Array.length p.p_cands + ri) in
  let key = (r.rg_class, fp) in
  match Fp_tbl.find_opt rt.r_leaders key with
  | Some lead ->
      if lead_tainted rt lead then materialize rt ri
      else if lead_complete rt lead then project rt ri (lead_src rt lead)
      else begin
        let w = lead_waiters rt lead in
        w := ri :: !w
      end
  | None ->
      let ci = p.p_class_cand.(r.rg_class) in
      if ci >= 0 && not rt.r_creg.(ci) then begin
        (* the class representative has not fingerprinted yet: hold the
           follower rather than splitting the class prematurely *)
        let pending =
          match Hashtbl.find_opt rt.r_class_pending r.rg_class with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.add rt.r_class_pending r.rg_class l;
              l
        in
        pending := ri :: !pending
      end
      else begin
        (* divergent fingerprint: split the class — this occurrence
           evaluates its own instances and leads its new (class, fp) *)
        materialize rt ri;
        Fp_tbl.add rt.r_leaders key (LRegion ri);
        rt.r_rreg.(ri) <- true
      end

and leader_done rt lead =
  let w = lead_waiters rt lead in
  let waiting =
    List.sort compare (List.filter (fun ri -> rt.r_state.(ri) = st_waiting) !w)
  in
  w := [];
  if lead_tainted rt lead then List.iter (fun ri -> materialize rt ri) waiting
  else begin
    let src = lead_src rt lead in
    List.iter (fun ri -> project rt ri src) waiting
  end

and project rt ri src_lo =
  let p = rt.r_plan in
  let r = p.p_regions.(ri) in
  rt.r_state.(ri) <- st_projected;
  rt.r_src.(ri) <- src_lo;
  rt.r_projected <- rt.r_projected + 1;
  (* Subsume nested regions first: their slots arrive with this copy, so
     they must never resolve on their own. Their src offsets keep
     [origin]'s projection-chain walk valid through the nesting. *)
  let rec subsume j =
    Array.iter
      (fun k ->
        if rt.r_state.(k) < st_projected then begin
          let c = p.p_regions.(k) in
          rt.r_state.(k) <- st_projected;
          rt.r_src.(k) <- src_lo + (c.rg_slot_lo - r.rg_slot_lo);
          rt.r_projected <- rt.r_projected + 1;
          subsume k
        end)
      p.p_region_kids.(j)
  in
  subsume ri;
  Store.project_range p.p_store ~src_lo ~dst_lo:r.rg_slot_lo
    ~len:(r.rg_slot_hi - r.rg_slot_lo) (fun dst ->
      rt.r_projected_slots <- rt.r_projected_slots + 1;
      prov_project rt dst;
      push_slot rt dst;
      rt.r_on_defined dst)

and materialize rt ri =
  let p = rt.r_plan in
  let r = p.p_regions.(ri) in
  rt.r_state.(ri) <- st_live;
  (* Materialize only this region's spine: nested regions stay parked —
     their inherited context will be defined by the spine's firings, and
     they still project from their own class leaders. (A nested region
     that already resolved keeps its state; its root prunes the walk
     either way.) *)
  let prune (node : Tree.t) =
    let id = node.Tree.id in
    id < Array.length p.p_node_region
    &&
    let j = p.p_node_region.(id) in
    j >= 0 && j <> ri && p.p_regions.(j).rg_root == node
  in
  let rid_lo, rid_hi = Engine.materialize_subtree ~prune rt.r_eng r.rg_root in
  Engine.graph_note_range rt.r_eng rt.r_gr ~rid_lo ~rid_hi;
  rt.r_materialized <- rt.r_materialized + 1;
  rt.r_materialized_rids <- rt.r_materialized_rids + (rid_hi - rid_lo);
  rt.r_on_new_rids rid_lo rid_hi

(* Run [f], then every slot definition queued meanwhile, cascades
   included. A call made while another is processing only queues. *)
let process rt f =
  if not rt.r_processing then begin
    rt.r_processing <- true;
    (try
       f ();
       while not (Queue.is_empty rt.r_queue) do
         handle_slot rt (Queue.take rt.r_queue)
       done
     with e ->
       rt.r_processing <- false;
       raise e);
    rt.r_processing <- false
  end

let note_define rt slot =
  push_slot rt slot;
  process rt ignore

(* Demand materialization: a grammar can feed a subtree's own synthesized
   output back into its inherited context (repmin's gmin), in which case a
   parked occurrence's gate can never complete — the evaluation stalls
   with its synthesized attributes undefined. When the scheduler runs dry
   with the store incomplete, materializing the lowest unresolved region
   (deterministic) lets its rules fire bottom-up and breaks the cycle;
   occurrences on such a feedback path simply do not share. *)
let force_stalled rt =
  let n = Array.length rt.r_plan.p_regions in
  let rec go ri =
    if ri >= n then false
    else if rt.r_state.(ri) < st_projected then begin
      materialize rt ri;
      true
    end
    else go (ri + 1)
  in
  go 0

let note_taint rt id =
  let p = rt.r_plan in
  if id < Array.length p.p_node_region then begin
    (let ri = ref p.p_node_region.(id) in
     while !ri >= 0 do
       rt.r_rtaint.(!ri) <- true;
       ri := p.p_regions.(!ri).rg_parent
     done);
    let ci = ref p.p_node_cand.(id) in
    while !ci >= 0 do
      if not rt.r_ctaint.(!ci) then begin
        rt.r_ctaint.(!ci) <- true;
        rt.r_tainted_classes <- rt.r_tainted_classes + 1
      end;
      ci := p.p_cands.(!ci).cd_parent
    done
  end

(* Gates with no inherited slots are complete before any firing. Runs in
   plan (preorder) order: representatives first, so followers of a
   zero-inherited class find their leader registered. *)
let prime rt =
  process rt (fun () ->
      for ci = 0 to Array.length rt.r_plan.p_cands - 1 do
        if rt.r_cgate.(ci) = 0 then complete_lead_gate rt ci
      done;
      for ri = 0 to Array.length rt.r_plan.p_regions - 1 do
        if rt.r_rgate.(ri) = 0 && rt.r_state.(ri) = st_parked then
          complete_follow_gate rt ri
      done)

(* ------------------------------------------------------------------ *)
(* Incremental editing support                                         *)
(* ------------------------------------------------------------------ *)

let revive rt gr ri =
  if rt.r_state.(ri) = st_live then None
  else begin
    let r = rt.r_plan.p_regions.(ri) in
    rt.r_state.(ri) <- st_live;
    (* An edit wants the whole occurrence live, nested regions included:
       mark them so they never resolve on their own after the revive. *)
    let rec wake j =
      Array.iter
        (fun k ->
          rt.r_state.(k) <- st_live;
          wake k)
        rt.r_plan.p_region_kids.(j)
    in
    wake ri;
    let rid_lo, rid_hi = Engine.materialize_subtree rt.r_eng r.rg_root in
    Engine.graph_note_range rt.r_eng gr ~rid_lo ~rid_hi;
    rt.r_materialized <- rt.r_materialized + 1;
    rt.r_materialized_rids <- rt.r_materialized_rids + (rid_hi - rid_lo);
    Some (rid_lo, rid_hi)
  end

(* Reviving an edited node must wake the whole nesting chain: the edit's
   new value propagates through every enclosing region's spine, so each
   still-suppressed ancestor materializes too (innermost first; the
   appended rid ranges are consecutive, so the merge stays one range). *)
let revive_chain rt gr ri0 =
  let p = rt.r_plan in
  let acc = ref None in
  let ri = ref ri0 in
  while !ri >= 0 do
    (match revive rt gr !ri with
    | Some (lo, hi) ->
        acc :=
          Some
            (match !acc with
            | None -> (lo, hi)
            | Some (l, h) -> (min l lo, max h hi))
    | None -> ());
    ri := p.p_regions.(!ri).rg_parent
  done;
  !acc

let revive_node rt gr id =
  let p = rt.r_plan in
  if id >= Array.length p.p_node_region then None
  else
    let ri = p.p_node_region.(id) in
    if ri < 0 then None else revive_chain rt gr ri

let revive_gate rt gr slot =
  let p = rt.r_plan in
  if slot >= Array.length p.p_slot_gate then None
  else
    let gi = p.p_slot_gate.(slot) in
    if gi < 0 then None
    else
      match p.p_gates.(gi).g_kind with
      | Lead _ -> None
      | Follow ri -> revive_chain rt gr ri

(* ------------------------------------------------------------------ *)
(* Scheduler wiring                                                    *)
(* ------------------------------------------------------------------ *)

(* The runtime inside a machine set of {!Engine.steal_loop} over
   {!Engine.rule_tasks}. Machine [d]'s firing marks the uid cursor inside
   the set's bracket, so a rule that draws labels taints the class
   evaluations around its node; its released target then reaches the
   runtime. Projected slots and materialized rule ranges land on the
   machine whose firing began last, which on the simulator need not be
   the one whose release cascaded: a fiber's firing suspends for its cost
   before it releases. *)
let machines rt build =
  let eng = rt.r_eng in
  let fire rid =
    let u0 = Uid.mark () in
    Engine.fire eng rid;
    if Uid.mark () <> u0 then note_taint rt (Engine.node_of eng rid).Tree.id
  in
  let ms = build ~fire in
  let cur = ref 0 in
  {
    ms with
    Engine.ms_start =
      (fun ~seed ~release body ->
        rt.r_on_defined <- (fun slot -> release !cur slot);
        rt.r_on_new_rids <- (fun lo hi -> seed !cur lo hi);
        prime rt;
        ms.Engine.ms_start ~seed ~release body);
    ms_fire =
      (fun d ~release ->
        let fire =
          ms.Engine.ms_fire d ~release:(fun slot ->
              release slot;
              note_define rt slot)
        in
        fun rid ->
          cur := d;
          fire rid);
    ms_refill =
      (fun d ->
        Store.missing (Engine.store eng) > 0
        && begin
             cur := d;
             force_stalled rt
           end);
  }

let run_topo rt =
  let eng = rt.r_eng in
  fst
    (Engine.steal_loop eng
       (Engine.rule_tasks eng rt.r_gr)
       ~owner:(fun _ -> 0)
       (machines rt (Engine.one_machine ~key:(Engine.target_slot eng))))

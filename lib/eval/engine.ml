open Pag_core
open Pag_obs

(* The shared evaluation engine.

   Every evaluator in this library — dynamic topo-sort, static visit
   sequences, the parallel worker's spine, incremental re-evaluation — fires
   the same thing: one semantic-rule instance at one node, reading argument
   slots and defining a target slot in a flat {!Store}. The engine owns that
   core once: a flat table of rule instances (rule, owning node, target
   slot, argument codes). Schedulers differ only in the order they call
   {!fire}/{!fire_at}/{!refire} — the plan's visit sequences
   ({!Static_eval}), the parallel worker's message-driven loop, or the
   dependency-counting loop here ({!steal_loop}) over a machine set: the
   calling domain alone ({!run_topo}, and the dirty cone of an edit in
   {!Incr}), real domains or simulated machines.

   Layout mirrors the store's dense slot ids: instances of one node are
   consecutive, [rid_base] maps a node's dense index to its first rule id,
   so [rid_at node ridx] is two array reads. Argument codes >= 0 are slot
   ids; negative codes are [-ci - 1] indices into [consts], terminal
   intrinsics resolved once at build time. Arrays are growable so an edit
   can {!append} a replacement subtree's instances without rebuilding. *)

exception Cycle of string

let dummy_rule = Grammar.rule (Grammar.lhs "") ~deps:[] (fun _ -> Value.Unit)

type t = {
  e_g : Grammar.t;
  e_store : Store.t;
  mutable e_n : int;  (* rule instances allocated *)
  mutable e_rules : Grammar.rule array;  (* rid -> rule *)
  mutable e_node : Tree.t array;  (* rid -> node the rule applies at *)
  mutable e_target : int array;  (* rid -> target slot *)
  mutable e_arg_off : int array;  (* rid -> first arg index; length e_n + 1 *)
  mutable e_args : int;  (* arg entries used *)
  mutable e_arg_code : int array;  (* >= 0 slot id, < 0 const [-c - 1] *)
  mutable e_nconsts : int;
  mutable e_consts : Value.t array;
  mutable e_dead : Bytes.t;  (* rid -> detached by an edit? *)
  mutable e_norules : Bytes.t;
      (* dense node index -> production node whose rules were suppressed by
         [rules_for] (remote stubs, parked DAG occurrences, statically
         visited nodes): its rid_base entry is meaningless and must not be
         used until {!materialize_subtree} resolves the node *)
  mutable e_rid_base : int array;  (* dense node index -> first rid *)
  mutable e_nodes_covered : int;  (* length of the rid_base prefix in use *)
  mutable e_slot_args : int;  (* non-const args: the classic "edges" stat *)
  mutable e_fired : int;
  (* provenance attachment: every firing appends one record when a ring is
     attached; [Prov.disabled] keeps the hot path at one branch *)
  mutable e_prov : Prov.t;
  mutable e_prov_pid : int;
  mutable e_prov_clock : unit -> float;
  mutable e_prov_dwell_dyn : float;  (* priced duration of a fire/refire... *)
  mutable e_prov_dwell_stat : float;  (* ...and of a fire_at; < 0 = wall *)
  mutable e_prov_arg : int -> unit;  (* [Prov.arg ring], hoisted: one
                                        closure per attachment, not one per
                                        firing *)
}

let store e = e.e_store

let grammar e = e.e_g

let rule_count e = e.e_n

let slot_args e = e.e_slot_args

let fired e = e.e_fired

let rule_of e rid = e.e_rules.(rid)

let node_of e rid = e.e_node.(rid)

let target_slot e rid = e.e_target.(rid)

let target_instance e rid =
  let t = e.e_rules.(rid).Grammar.r_rtarget in
  let node = e.e_node.(rid) in
  let tn =
    if t.Grammar.rr_pos = 0 then node
    else node.Tree.children.(t.Grammar.rr_pos - 1)
  in
  (tn, t.Grammar.rr_name)

(* Byte bitsets: bit [i] is bit [i land 7] of byte [i lsr 3]. The dead
   and suppressed-node flags use them, and so do {!Incr}'s wave sets. *)
let bit_mem b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_add b i =
  let k = i lsr 3 in
  Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lor (1 lsl (i land 7))))

let bit_clear b i =
  let k = i lsr 3 in
  Bytes.set b k
    (Char.chr (Char.code (Bytes.get b k) land lnot (1 lsl (i land 7))))

let is_dead e rid = bit_mem e.e_dead rid

let has_rules e node =
  not (bit_mem e.e_norules (Store.dense_index e.e_store node))

let rid_at e node ridx =
  e.e_rid_base.(Store.dense_index e.e_store node) + ridx

let iter_slot_args e rid f =
  for k = e.e_arg_off.(rid) to e.e_arg_off.(rid + 1) - 1 do
    let c = e.e_arg_code.(k) in
    if c >= 0 then f c
  done

(* ------------------------------------------------------------------ *)
(* Growable arrays                                                     *)
(* ------------------------------------------------------------------ *)

let grow a used need def =
  let len = Array.length a in
  if used + need <= len then a
  else begin
    let a' = Array.make (max (used + need) (2 * max 1 len)) def in
    Array.blit a 0 a' 0 used;
    a'
  end

let bits_cover b need =
  let bytes_needed = (need + 7) / 8 in
  if Bytes.length b >= bytes_needed then b
  else begin
    let b' = Bytes.make (max bytes_needed (2 * max 1 (Bytes.length b))) '\000' in
    Bytes.blit b 0 b' 0 (Bytes.length b);
    b'
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Resolve one node's rule instances into the flat tables. [rid_base] for
   the node must already point at the first rid; rules of one node are
   consecutive in production-rule order. *)
let resolve_node e (node : Tree.t) =
  match node.Tree.prod with
  | None -> ()
  | Some p ->
      Array.iter
        (fun (r : Grammar.rule) ->
          let rid = e.e_n in
          e.e_n <- rid + 1;
          e.e_rules.(rid) <- r;
          e.e_node.(rid) <- node;
          e.e_arg_off.(rid) <- e.e_args;
          let tgt = r.Grammar.r_rtarget in
          let tn =
            if tgt.Grammar.rr_pos = 0 then node
            else node.Tree.children.(tgt.Grammar.rr_pos - 1)
          in
          e.e_target.(rid) <-
            Store.slot_of e.e_store tn ~attr_idx:tgt.Grammar.rr_attr;
          Array.iter
            (fun (d : Grammar.rref) ->
              let dn =
                if d.Grammar.rr_pos = 0 then node
                else node.Tree.children.(d.Grammar.rr_pos - 1)
              in
              (if d.Grammar.rr_term then begin
                 let ci = e.e_nconsts in
                 e.e_nconsts <- ci + 1;
                 e.e_consts.(ci) <- Tree.term_attr dn d.Grammar.rr_name;
                 e.e_arg_code.(e.e_args) <- -ci - 1
               end
               else begin
                 e.e_arg_code.(e.e_args) <-
                   Store.slot_of e.e_store dn ~attr_idx:d.Grammar.rr_attr;
                 e.e_slot_args <- e.e_slot_args + 1
               end);
              e.e_args <- e.e_args + 1)
            r.Grammar.r_rdeps;
          e.e_arg_off.(rid + 1) <- e.e_args)
        p.Grammar.p_rules

(* Reserve table room for the rules of [node] (dense index [i]), point its
   [rid_base] entry at the next rid, then resolve them. *)
let add_rows e i (node : Tree.t) (p : Grammar.production) =
  let nr = Array.length p.Grammar.p_rules in
  let na = ref 0 and nt = ref 0 in
  Array.iter
    (fun (r : Grammar.rule) ->
      na := !na + Array.length r.Grammar.r_rdeps;
      Array.iter
        (fun (d : Grammar.rref) -> if d.Grammar.rr_term then incr nt)
        r.Grammar.r_rdeps)
    p.Grammar.p_rules;
  e.e_rules <- grow e.e_rules e.e_n nr dummy_rule;
  e.e_node <- grow e.e_node e.e_n nr node;
  e.e_target <- grow e.e_target e.e_n nr 0;
  e.e_arg_off <- grow e.e_arg_off (e.e_n + 1) nr 0;
  e.e_arg_code <- grow e.e_arg_code e.e_args !na 0;
  e.e_consts <- grow e.e_consts e.e_nconsts !nt Value.Unit;
  e.e_dead <- bits_cover e.e_dead (e.e_n + nr);
  e.e_rid_base.(i) <- e.e_n;
  resolve_node e node

(* Cover the next dense node: resolve its rows, or mark them suppressed. *)
let add_node e ~rules_for (node : Tree.t) =
  let i = e.e_nodes_covered in
  e.e_rid_base <- grow e.e_rid_base (i + 1) 1 0;
  e.e_norules <- bits_cover e.e_norules (i + 1);
  e.e_rid_base.(i) <- e.e_n;
  e.e_nodes_covered <- i + 1;
  (match node.Tree.prod with
  | None -> ()
  | Some _ when not (rules_for node) -> bit_add e.e_norules i
  | Some p -> add_rows e i node p);
  e.e_rid_base.(i + 1) <- e.e_n

let create ?(rules_for = fun _ -> true) g st =
  let e =
    {
      e_g = g;
      e_store = st;
      e_n = 0;
      e_rules = [| dummy_rule |];
      e_node = [| Store.root st |];
      e_target = [| 0 |];
      e_arg_off = [| 0; 0 |];
      e_args = 0;
      e_arg_code = [| 0 |];
      e_nconsts = 0;
      e_consts = [| Value.Unit |];
      e_dead = Bytes.make 1 '\000';
      e_norules = Bytes.make (max 1 ((Store.node_count st + 7) / 8)) '\000';
      e_rid_base = Array.make (Store.node_count st + 1) 0;
      e_nodes_covered = 0;
      e_slot_args = 0;
      e_fired = 0;
      e_prov = Prov.disabled;
      e_prov_pid = 0;
      e_prov_clock = (fun () -> 0.0);
      e_prov_dwell_dyn = -1.0;
      e_prov_dwell_stat = -1.0;
      e_prov_arg = ignore;
    }
  in
  Store.iter_nodes st (fun node -> add_node e ~rules_for node);
  e

(* Extend the engine with the instances of an appended replacement subtree.
   Must run after {!Store.append_subtree}, visiting the same nodes in the
   same (preorder) order so dense indices and rid ranges line up. Returns
   the new (rid_lo, rid_hi) range. *)
let append e sub =
  let rid_lo = e.e_n in
  Tree.iter (fun node -> add_node e ~rules_for:(fun _ -> true) node) sub;
  (rid_lo, e.e_n)

(* Late resolution of a subtree whose rules were suppressed at construction
   (a parked DAG occurrence whose inherited fingerprint diverged from its
   class leader's). The nodes' slots already exist, so unlike {!append}
   nothing is reserved in the store — the new instances are appended at the
   end of the flat table and each node's [rid_base] entry is repointed
   there. After this, [rid_base.(i+1)] no longer bounds node [i]'s rids
   (the production's rule count does — {!kill_subtree} and {!rid_at} only
   rely on that); {!note_replayed}'s range walk stays valid because the
   static path never materializes. Returns the new (rid_lo, rid_hi). *)
let materialize_subtree ?(prune = fun _ -> false) e sub =
  let rid_lo = e.e_n in
  (* Preorder, like {!Tree.iter}, but [prune] cuts whole child subtrees:
     the DAG runtime materializes a region's spine while nested parked
     regions keep their suppressed instances (they resolve on their own).
     The root itself is never pruned. *)
  let resolve (node : Tree.t) =
    match node.Tree.prod with
    | None -> ()
    | Some p ->
        let i = Store.dense_index e.e_store node in
        if bit_mem e.e_norules i then begin
          bit_clear e.e_norules i;
          add_rows e i node p
        end
  in
  let rec go (node : Tree.t) =
    resolve node;
    Array.iter (fun k -> if not (prune k) then go k) node.Tree.children
  in
  go sub;
  (rid_lo, e.e_n)

(* Detach a subtree's rule instances: they keep their slots and last values
   but no scheduler fires or propagates through them again. Suppressed
   nodes have no instances to detach. *)
let kill_subtree e sub =
  Tree.iter
    (fun (node : Tree.t) ->
      match node.Tree.prod with
      | None -> ()
      | Some p ->
          let i = Store.dense_index e.e_store node in
          if not (bit_mem e.e_norules i) then begin
            let base = e.e_rid_base.(i) in
            for ridx = 0 to Array.length p.Grammar.p_rules - 1 do
              bit_add e.e_dead (base + ridx)
            done
          end)
    sub

(* ------------------------------------------------------------------ *)
(* Firing                                                              *)
(* ------------------------------------------------------------------ *)

let gather e rid =
  let lo = e.e_arg_off.(rid) and hi = e.e_arg_off.(rid + 1) in
  let args = Array.make (hi - lo) Value.Unit in
  for k = lo to hi - 1 do
    let c = e.e_arg_code.(k) in
    args.(k - lo) <-
      (if c >= 0 then Store.slot_value e.e_store c else e.e_consts.(-c - 1))
  done;
  args

(* Provenance attachment. [set_prov] arms recording; the firing paths then
   pay one field read and branch when disarmed. [dwell_*] price a firing's
   duration for schedulers whose clock does not advance inside the firing
   (the network simulator charges cost-model delays after the fact); with
   no dwell, t1 is a second clock read — wall-clock duration. *)

let set_prov ?(pid = 0) ?dwell_dynamic ?dwell_static ~clock e p =
  e.e_prov <- p;
  e.e_prov_pid <- pid;
  e.e_prov_clock <- clock;
  e.e_prov_dwell_dyn <- Option.value dwell_dynamic ~default:(-1.0);
  e.e_prov_dwell_stat <- Option.value dwell_static ~default:(-1.0);
  e.e_prov_arg <- (fun slot -> Prov.arg p slot)

let set_prov_pid e pid = e.e_prov_pid <- pid

let prov e = e.e_prov

let prov_pid e = e.e_prov_pid

let prov_clock e = e.e_prov_clock

let note_fire e rid t0 dwell =
  let p = e.e_prov in
  let t1 = if dwell >= 0.0 then t0 +. dwell else e.e_prov_clock () in
  Prov.record p ~rid ~pid:e.e_prov_pid ~target:e.e_target.(rid) ~t0 ~t1
    ~replay:false;
  iter_slot_args e rid e.e_prov_arg

let fire e rid =
  let t0 = if Prov.enabled e.e_prov then e.e_prov_clock () else 0.0 in
  let v = e.e_rules.(rid).Grammar.r_fn (gather e rid) in
  e.e_fired <- e.e_fired + 1;
  Store.define_slot e.e_store e.e_target.(rid) v;
  if Prov.enabled e.e_prov then note_fire e rid t0 e.e_prov_dwell_dyn

(* The static path fires from the production's references through the
   store, so a statically visited node needs no row; only a provenance
   record reads its rid, and [create]'s caller resolves every row then. *)
let fire_at e (node : Tree.t) ridx =
  let t0 = if Prov.enabled e.e_prov then e.e_prov_clock () else 0.0 in
  let r = (Option.get node.Tree.prod).Grammar.p_rules.(ridx) in
  ignore (Store.apply_rule e.e_store node r);
  e.e_fired <- e.e_fired + 1;
  if Prov.enabled e.e_prov then
    note_fire e (rid_at e node ridx) t0 e.e_prov_dwell_stat

let refire e rid =
  let t0 = if Prov.enabled e.e_prov then e.e_prov_clock () else 0.0 in
  let v = e.e_rules.(rid).Grammar.r_fn (gather e rid) in
  e.e_fired <- e.e_fired + 1;
  let changed = Store.redefine_slot e.e_store e.e_target.(rid) v in
  if Prov.enabled e.e_prov then note_fire e rid t0 e.e_prov_dwell_dyn;
  changed

(* A memoized subtree replay ({!Memo.Replayed}) sets the subtree's slots
   without firing anything; record zero-duration replay firings so the
   provenance DAG keeps the producer of every slot — without them a slice
   through a replayed region would dead-end at the replay boundary. The
   rid range of a covered node is [rid_base i .. rid_base (i+1)), which is
   empty for nodes whose rules were not resolved (remote stubs). *)
let note_replayed e sub =
  if Prov.enabled e.e_prov then begin
    let p = e.e_prov in
    let t = e.e_prov_clock () in
    Tree.iter
      (fun (node : Tree.t) ->
        match node.Tree.prod with
        | None -> ()
        | Some _ ->
            let i = Store.dense_index e.e_store node in
            for rid = e.e_rid_base.(i) to e.e_rid_base.(i + 1) - 1 do
              Prov.record p ~rid ~pid:e.e_prov_pid ~target:e.e_target.(rid)
                ~t0:t ~t1:t ~replay:true;
              iter_slot_args e rid e.e_prov_arg
            done)
      sub
  end

(* ------------------------------------------------------------------ *)
(* Dependency graph                                                    *)
(* ------------------------------------------------------------------ *)

(* Consumer edges (slot -> rule instances reading it) in CSR form over the
   slot ids present at build time, plus an overflow table for edges added
   by later appends/rewires, plus the producer map (slot -> defining rid).
   Stale edges from slots of a detached subtree are harmless: dead slots
   are never redefined, so their consumer lists are never walked. *)
type graph = {
  gr_slots : int;  (* slots covered by the CSR arrays *)
  gr_off : int array;
  gr_adj : int array;
  gr_over : (int, int list ref) Hashtbl.t;
  mutable gr_producer : int array;  (* slot -> rid, -1 when external *)
}

let graph e =
  let total = Store.slot_count e.e_store in
  let off = Array.make (total + 1) 0 in
  for k = 0 to e.e_args - 1 do
    let c = e.e_arg_code.(k) in
    if c >= 0 then off.(c + 1) <- off.(c + 1) + 1
  done;
  for i = 1 to total do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let adj = Array.make (max 1 off.(total)) 0 in
  let fill = Array.copy off in
  let producer = Array.make (max 1 total) (-1) in
  for rid = 0 to e.e_n - 1 do
    producer.(e.e_target.(rid)) <- rid;
    for k = e.e_arg_off.(rid) to e.e_arg_off.(rid + 1) - 1 do
      let c = e.e_arg_code.(k) in
      if c >= 0 then begin
        adj.(fill.(c)) <- rid;
        fill.(c) <- fill.(c) + 1
      end
    done
  done;
  {
    gr_slots = total;
    gr_off = off;
    gr_adj = adj;
    gr_over = Hashtbl.create 16;
    gr_producer = producer;
  }

let producer gr slot =
  if slot < Array.length gr.gr_producer then gr.gr_producer.(slot) else -1

let iter_consumers gr slot f =
  if slot < gr.gr_slots then
    for k = gr.gr_off.(slot) to gr.gr_off.(slot + 1) - 1 do
      f gr.gr_adj.(k)
    done;
  match Hashtbl.find_opt gr.gr_over slot with
  | None -> ()
  | Some l -> List.iter f !l

let add_overflow gr ~slot ~rid =
  match Hashtbl.find_opt gr.gr_over slot with
  | Some l -> l := rid :: !l
  | None -> Hashtbl.replace gr.gr_over slot (ref [ rid ])

let set_producer gr ~slot ~rid =
  let len = Array.length gr.gr_producer in
  if slot >= len then begin
    let a = Array.make (max (slot + 1) (2 * max 1 len)) (-1) in
    Array.blit gr.gr_producer 0 a 0 len;
    gr.gr_producer <- a
  end;
  gr.gr_producer.(slot) <- rid

(* Register appended rids [rid_lo .. rid_hi - 1]: producer entries for
   their targets, overflow consumer edges for their slot arguments. *)
let graph_note_range e gr ~rid_lo ~rid_hi =
  for rid = rid_lo to rid_hi - 1 do
    set_producer gr ~slot:e.e_target.(rid) ~rid;
    iter_slot_args e rid (fun slot -> add_overflow gr ~slot ~rid)
  done

(* Re-resolve the rules of [node] in place after one of its children was
   replaced: targets and argument slots that moved are recomputed (and, when
   a graph is supplied, rewired through producer/overflow entries); terminal
   intrinsics are re-read into their existing const cells. Argument/const
   cell counts are shape properties of the production, so everything fits
   where it already is. *)
let reresolve_node e ?graph (node : Tree.t) =
  match node.Tree.prod with
  | None -> ()
  | Some p ->
      if bit_mem e.e_norules (Store.dense_index e.e_store node) then
        invalid_arg
          "Engine.reresolve_node: node has suppressed rules (materialize \
           the occurrence first)";
      let base = e.e_rid_base.(Store.dense_index e.e_store node) in
      Array.iteri
        (fun ridx (r : Grammar.rule) ->
          let rid = base + ridx in
          let tgt = r.Grammar.r_rtarget in
          let tn =
            if tgt.Grammar.rr_pos = 0 then node
            else node.Tree.children.(tgt.Grammar.rr_pos - 1)
          in
          let t_new = Store.slot_of e.e_store tn ~attr_idx:tgt.Grammar.rr_attr in
          if t_new <> e.e_target.(rid) then begin
            e.e_target.(rid) <- t_new;
            match graph with
            | Some gr -> set_producer gr ~slot:t_new ~rid
            | None -> ()
          end;
          let k = ref e.e_arg_off.(rid) in
          Array.iter
            (fun (d : Grammar.rref) ->
              let dn =
                if d.Grammar.rr_pos = 0 then node
                else node.Tree.children.(d.Grammar.rr_pos - 1)
              in
              (if d.Grammar.rr_term then begin
                 let ci = -e.e_arg_code.(!k) - 1 in
                 e.e_consts.(ci) <- Tree.term_attr dn d.Grammar.rr_name
               end
               else begin
                 let s_new =
                   Store.slot_of e.e_store dn ~attr_idx:d.Grammar.rr_attr
                 in
                 if s_new <> e.e_arg_code.(!k) then begin
                   e.e_arg_code.(!k) <- s_new;
                   match graph with
                   | Some gr -> add_overflow gr ~slot:s_new ~rid
                   | None -> ()
                 end
               end);
              incr k)
            r.Grammar.r_rdeps)
        p.Grammar.p_rules

(* ------------------------------------------------------------------ *)
(* The dependency-counting loop                                        *)
(* ------------------------------------------------------------------ *)

(* The data-driven fixed point, written once: fire every task whose
   dependencies are all met, releasing the tasks that wait on it, until
   none is left. One loop serves every machine set: the calling domain
   alone ({!run_topo}), real domains ({!run_tasks}) and the network
   simulator's machine fibers (the runner's simulated steal schedule)
   differ only in how machines start, how one runs a task and what that
   costs, how a probe moves work and how a failed probe waits. A task is a
   rule instance ({!rule_tasks}), a member of an edit wave's cone
   ({!Incr}), or a task of the combined evaluator's graph ({!Taskgraph}):
   a spine rule instance or a static visit.

   Readiness lives in atomic dependency counters; ready task ids sit in
   per-machine Chase-Lev deques ({!Steal}), except the one a machine holds
   to run next. A machine pops its own deque LIFO, and when empty probes a
   pseudo-randomly chosen victim, backing off exponentially between failed
   probes.

   Termination is an exact task census: [pending] counts tasks that are
   ready-but-unrun or currently executing. A finishing task increments
   [pending] for each consumer it releases {e before} pushing it (a held
   task runs on the releasing task's unit instead) and decrements itself
   only {e after} all pushes, so [pending] can only
   reach zero when no task exists anywhere and none can appear — which is
   either completion or a stuck run (a dependency cycle, or a slot no task
   defines), told apart after the run by the store: any slot still unset
   raises {!Cycle}. A machine whose task raises poisons the census so the
   others drain and exit; the exception is re-raised once every machine
   has returned. *)

type tasks = {
  tk_count : int;
  tk_unmet : int -> int;
  tk_release : int -> (int -> unit) -> unit;
}

let unset_args e rid =
  let w = ref 0 in
  for k = e.e_arg_off.(rid) to e.e_arg_off.(rid + 1) - 1 do
    let c = e.e_arg_code.(k) in
    if c >= 0 && not (Store.slot_is_set e.e_store c) then incr w
  done;
  !w

(* A dead instance is never added: the loop gives it a counter no release
   meets, so releasing a slot need not skip it. *)
let rule_tasks e gr =
  {
    tk_count = e.e_n;
    tk_unmet = (fun rid -> if is_dead e rid then -1 else unset_args e rid);
    tk_release = (fun slot f -> iter_consumers gr slot f);
  }

type machines = {
  ms_count : int;
  ms_start :
    seed:(int -> int -> int -> unit) ->
    release:(int -> int -> unit) ->
    (int -> unit) ->
    unit;
  ms_fire : int -> release:(int -> unit) -> int -> unit;
  ms_probe :
    int -> Steal.stats -> victim:int -> Steal.t -> into:Steal.t -> int;
  ms_wait : int -> int -> float;
  ms_refill : int -> bool;
}

(* Shared dependency counters. Every dependency is released exactly once,
   so a task that waits on one needs no count: it shares [one] with the
   tasks that wait on nothing; a dead task shares [zero], which no release
   meets. The loop tests them by address and never writes them. Allocated
   once: filling an array of over 256 words with a young value makes the
   runtime run a minor collection first. *)
let zero = Atomic.make 0

let one = Atomic.make 1

let steal_loop e tasks ~owner ms =
  let count = max 1 ms.ms_count in
  (* growable: work added mid-run ([seed]) appends task ids *)
  let waiting = ref (Array.make (max 1 tasks.tk_count) one) in
  let deques = Array.init count (fun _ -> Steal.create ()) in
  let stats = Array.init count (fun _ -> Steal.zero_stats ()) in
  (* [held.(d)]: the task that machine [d]'s running task released last,
     -1 when none. The machine pops its deque LIFO, so that task would run
     next anyway: holding it out of the deque changes no order and costs no
     deque or census traffic — it runs on the running task's census unit,
     which it inherits. [lower d] moves it onto the deque, with a unit of
     its own, before anything else is queued on [d]. *)
  let held = Array.make count (-1) in
  let pending = Atomic.make 0 in
  let lower d =
    let t = held.(d) in
    if t >= 0 then begin
      held.(d) <- -1;
      Atomic.incr pending;
      Steal.push deques.(d) t
    end
  in
  let note_depth d =
    let st = stats.(d) in
    let depth = Steal.size deques.(d) + if held.(d) >= 0 then 1 else 0 in
    if depth > st.st_hwm then st.st_hwm <- depth
  in
  (* count a live task's unmet dependencies; queue it on [d] when none *)
  let add d t =
    let w = tasks.tk_unmet t in
    if w < 0 then !waiting.(t) <- zero
    else if w > 1 then !waiting.(t) <- Atomic.make w;
    w = 0 && (Steal.push deques.(d) t; true)
  in
  let seeded = ref 0 in
  for t = 0 to tasks.tk_count - 1 do
    if add (owner t) t then incr seeded
  done;
  Atomic.set pending !seeded;
  let seed d lo hi =
    let w = !waiting in
    let len = Array.length w in
    if hi > len then begin
      let w' = Array.make (max hi (2 * len)) one in
      Array.blit w 0 w' 0 len;
      waiting := w'
    end;
    lower d;
    for t = lo to hi - 1 do
      if add d t then Atomic.incr pending
    done
  in
  let met c =
    let a = !waiting.(c) in
    a == one || (a != zero && Atomic.fetch_and_add a (-1) = 1)
  in
  (* a release from outside machine [d]'s firing: straight onto its deque *)
  let release d key =
    tasks.tk_release key (fun c ->
        if met c then begin
          lower d;
          Atomic.incr pending;
          Steal.push deques.(d) c;
          note_depth d
        end)
  in
  let failure = Atomic.make None in
  let body d =
    let my = deques.(d) and st = stats.(d) in
    let hold c =
      if met c then begin
        lower d;
        held.(d) <- c;
        note_depth d
      end
    in
    let fire = ms.ms_fire d ~release:(fun key -> tasks.tk_release key hold) in
    let run t =
      fire t;
      st.st_fired <- st.st_fired + 1;
      if held.(d) < 0 then Atomic.decr pending
    in
    (* deterministic per-machine xorshift for victim selection *)
    let rng = ref ((((d + 1) * 0x9E3779B1) lor 1) land 0x3FFFFFFF) in
    let next_victim () =
      let x = !rng in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = (x lxor (x lsl 17)) land 0x3FFFFFFF in
      rng := x;
      let v = x mod (count - 1) in
      if v >= d then v + 1 else v
    in
    let more () =
      Atomic.get pending > 0
      || (Option.is_none (Atomic.get failure) && ms.ms_refill d)
    in
    let rec loop backoff =
      if more () then
        let t = held.(d) in
        if t >= 0 then begin
          held.(d) <- -1;
          run t;
          loop 0
        end
        else
          match Steal.pop my with
          | Some t ->
              run t;
              loop 0
          | None ->
              let moved =
                if count = 1 then 0
                else begin
                  st.st_attempts <- st.st_attempts + 1;
                  let v = next_victim () in
                  ms.ms_probe d st ~victim:v deques.(v) ~into:my
                end
              in
              if moved > 0 then begin
                st.st_successes <- st.st_successes + 1;
                st.st_stolen <- st.st_stolen + moved;
                loop 0
              end
              else begin
                st.st_idle <- st.st_idle +. ms.ms_wait d backoff;
                loop (min 16 (backoff + 1))
              end
    in
    try loop 0
    with exn ->
      (* poison the census so the other machines drain and exit *)
      ignore (Atomic.compare_and_set failure None (Some exn));
      Atomic.set pending 0
  in
  ms.ms_start ~seed ~release body;
  (match Atomic.get failure with Some exn -> raise exn | None -> ());
  let left = Store.missing e.e_store in
  if left > 0 then
    raise
      (Cycle
         (Printf.sprintf
            "evaluation stuck: %d attribute instances unevaluated (circular \
             tree or missing root attributes)"
            left));
  (Array.fold_left (fun a (st : Steal.stats) -> a + st.st_fired) 0 stats, stats)

(* The calling domain alone: one machine, nothing to probe or wait for.
   [fire] defines its slots through the store's checked setters, so the
   store is complete the moment the loop ends. *)
let one_machine ~key ~fire =
  {
    ms_count = 1;
    ms_start = (fun ~seed:_ ~release:_ body -> body 0);
    ms_fire =
      (fun _ ~release t ->
        fire t;
        release (key t));
    ms_probe = (fun _ _ ~victim:_ _ ~into:_ -> 0);
    ms_wait = (fun _ _ -> 0.0);
    ms_refill = (fun _ -> false);
  }

let run_topo e gr =
  fst
    (steal_loop e (rule_tasks e gr)
       ~owner:(fun _ -> 0)
       (one_machine ~key:(target_slot e) ~fire:(fire e)))

(* The domains machine set. Tasks write slots with {!Store.poke}: the
   store's set-bitset is byte-granular, so marking bits from several
   domains would race. A task marks each slot it writes in [written], one
   byte per slot, and once every domain has returned the calling domain
   sets the bits of exactly those slots, so a slot that no task wrote
   still counts in {!Store.missing}. Publication is sound: the non-atomic
   writes precede the atomic counter decrement that releases a consumer,
   and the consumer reads the slot only after observing that counter
   reach zero. *)

let run_tasks ?(domains = 2) ?owner ?(uid_base = 0) e tasks ~fire =
  let n = tasks.tk_count in
  let d_count = Pag_util.Placement.count domains in
  let owner =
    match owner with
    | Some f -> fun t -> min (d_count - 1) (max 0 (f t))
    | None -> fun t -> if n = 0 then 0 else t * d_count / n
  in
  let slots = Store.slot_count e.e_store in
  let written = Bytes.make slots '\000' in
  let start ~seed:_ ~release:_ body =
    (* fresh domains have no ambient uid base; give each its own stripe *)
    ignore
      (Pag_util.Placement.run d_count (fun d ->
           Uid.with_counter (ref (uid_base + (d * Uid.stride))) (fun () ->
               body d)));
    for slot = 0 to slots - 1 do
      if Bytes.unsafe_get written slot <> '\000' then
        Store.commit_slot e.e_store slot
    done
  in
  let poke slot v =
    Store.poke e.e_store slot v;
    Bytes.set written slot '\001'
  in
  let fire d ~release = fire d ~poke ~release in
  (* a failed probe spins, doubling up to 2^10 rounds; the idle time
     reported is the wall-clock time spent spinning *)
  let wait _ backoff =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 1 lsl min backoff 10 do
      Domain.cpu_relax ()
    done;
    Unix.gettimeofday () -. t0
  in
  steal_loop e tasks ~owner
    {
      ms_count = d_count;
      ms_start = start;
      ms_fire = fire;
      ms_probe = (fun _ _ ~victim:_ v ~into -> Steal.steal_half v ~into);
      ms_wait = wait;
      ms_refill = (fun _ -> false);
    }

(* The parallel phase's firing: arguments are peeked, the target goes to
   the machine set's [poke], and an enabled [ring] (the domain's own)
   records the firing under [pid] with [clock]. *)
let fire_quiet e ~ring ~pid ~clock ~poke rid =
  let t0 = if Prov.enabled ring then clock () else 0.0 in
  let lo = e.e_arg_off.(rid) and hi = e.e_arg_off.(rid + 1) in
  let args = Array.make (hi - lo) Value.Unit in
  for k = lo to hi - 1 do
    let c = e.e_arg_code.(k) in
    args.(k - lo) <-
      (if c >= 0 then Store.peek e.e_store c else e.e_consts.(-c - 1))
  done;
  let tgt = e.e_target.(rid) in
  poke tgt (e.e_rules.(rid).Grammar.r_fn args);
  if Prov.enabled ring then begin
    Prov.record ring ~rid ~pid ~target:tgt ~t0 ~t1:(clock ()) ~replay:false;
    iter_slot_args e rid (fun slot -> Prov.arg ring slot)
  end

let run_steal ?domains ?owner e gr =
  let clock () = 0.0 in
  let fire d ~poke ~release rid =
    fire_quiet e ~ring:Prov.disabled ~pid:d ~clock ~poke rid;
    release e.e_target.(rid)
  in
  let fired, stats = run_tasks ?domains ?owner e (rule_tasks e gr) ~fire in
  e.e_fired <- e.e_fired + fired;
  (fired, stats)

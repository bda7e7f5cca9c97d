open Pag_core
open Pag_eval
open Netsim

(* ------------------------------------------------------------------ *)
(* Run setup shared by pagc, agrun and bench                           *)
(* ------------------------------------------------------------------ *)

type spec = { sp_options : Runner.options; sp_transport : [ `Sim | `Domains ] }

let spec ?(schedule = `Static) ?(transport = `Sim) ?(granularity = 1.0)
    ?(librarian = true) ?(priority = true) ?(dag = false) ?(telemetry = false)
    ?faults ?(phase_label = fun _ -> None) ?(provenance = false) machines =
  {
    sp_options =
      {
        Runner.machines;
        schedule;
        granularity;
        use_librarian = librarian;
        use_priority = priority;
        use_dag = dag;
        telemetry;
        faults;
        phase_label;
        provenance;
      };
    sp_transport = transport;
  }

let options s = s.sp_options

let run s g plan tree =
  match s.sp_transport with
  | `Sim -> Runner.run_sim s.sp_options g plan tree
  | `Domains -> Runner.run_domains s.sp_options g plan tree

(* ------------------------------------------------------------------ *)
(* Edit sessions: incremental re-evaluation over the network model     *)
(* ------------------------------------------------------------------ *)

(* Each edit or batch gets its own tiny simulation (the long-lived
   machine processes of a real editor service, collapsed to one message
   wave per update). The functor application is per message type, so this simulator
   coexists with {!Runner}'s. *)
module ES = Sim.Make (struct
  type msg = Message.t
end)

type edit_session = {
  es_spec : spec;
  es_g : Grammar.t;
  es_incr : Incr.session;
  mutable es_plan : Split.plan;
}

type edit_report = {
  er_dirty : int;
  er_refired : int;
  er_cutoff : int;
  er_fallback : bool;
  er_prop_ms : float;
  er_owner : int;
  er_boundary_changed : int;
  er_boundary_total : int;
  er_bytes_incr : int;
  er_bytes_full : int;
  er_messages : int;
  er_retransmits : int;
  er_latency : float;
}

type batch_report = {
  br_edits : int;
  br_waves : int;
  br_conflicts : int;
  br_dirty : int;
  br_refired : int;
  br_cutoff : int;
  br_fallbacks : int;
  br_rounds : int;
  br_boundary_changed : int;
  br_boundary_total : int;
  br_bytes : int;
  br_messages : int;
  br_retransmits : int;
  br_latency : float;
}

let open_session ?obs ?prov ?frontier sp g tree =
  let o = sp.sp_options in
  let prov =
    match prov with
    | Some p -> p
    | None ->
        if o.Runner.provenance then
          Pag_obs.Prov.create ~arity:(Causal.arity_for g) ()
        else Pag_obs.Prov.disabled
  in
  let incr = Incr.start ?obs ~dag:o.Runner.use_dag ~prov ?frontier g tree in
  let plan =
    Split.decompose g (Incr.tree incr) ~machines:o.Runner.machines
      ~granularity:o.Runner.granularity
  in
  { es_spec = sp; es_g = g; es_incr = incr; es_plan = plan }

let tree es = Incr.tree es.es_incr

let store es = Incr.store es.es_incr

let plan es = es.es_plan

let live_slots es = Incr.live_slots es.es_incr

let totals es = Incr.totals es.es_incr

let engine es = Incr.engine es.es_incr

let prov es = Incr.prov es.es_incr

(* Attributes of a boundary node, with their index into the symbol's
   declaration array (the index doubles as the wire reference id via
   {!Pag_eval.Store.slot_of}). *)
let attrs_of es (n : Tree.t) kind =
  let s = Grammar.symbol es.es_g n.Tree.sym in
  Array.to_list s.Grammar.s_attrs
  |> List.mapi (fun i a -> (i, a))
  |> List.filter (fun (_, (a : Grammar.attr_decl)) -> a.Grammar.a_kind = kind)

(* One attribute crossing a machine boundary: changed since the last edit
   (per {!Incr.changed}) ships in full, unchanged ships as a fixed-size
   intern reference — the receiver already holds the value. *)
let boundary_message s ~src (b : Tree.t) attr_idx (a : Grammar.attr_decl) =
  let st = Incr.store s in
  if Incr.changed s b a.Grammar.a_name then
    Message.Attr
      {
        node = b.Tree.id;
        attr = a.Grammar.a_name;
        value = Store.get st b a.Grammar.a_name;
      }
  else
    Message.Attr_ref
      {
        src;
        node = b.Tree.id;
        attr = a.Grammar.a_name;
        iid = Store.slot_of st b ~attr_idx;
        hash = 0;
      }

(* What one priced wave cost, and the boundary census: how many boundary
   attributes it shipped, and how many of them changed (the cutoff kept
   the rest to a reference). *)
type wave = {
  w_latency : float;
  w_messages : int;
  w_bytes : int;
  w_retransmits : int;
  w_changed : int;
  w_total : int;
}

(* No re-evaluation, no traffic. *)
let no_wave =
  {
    w_latency = 0.0;
    w_messages = 0;
    w_bytes = 0;
    w_retransmits = 0;
    w_changed = 0;
    w_total = 0;
  }

(* The boundaries a wave crosses — every non-root fragment root's
   attributes plus the tree root's synthesized ones — folded with [f]. *)
let fold_boundary es f acc =
  let acc =
    Array.fold_left
      (fun acc (fr : Split.fragment) ->
        match fr.Split.fr_parent with
        | Some _ ->
            let acc = f acc fr.Split.fr_root Grammar.Syn in
            f acc fr.Split.fr_root Grammar.Inh
        | None -> acc)
      acc
      (Split.fragments es.es_plan)
  in
  f acc (Incr.tree es.es_incr) Grammar.Syn

(* The distributed message wave, one simulation for a single edit and for
   a merged batch. The coordinator dispatches the update to the owner
   machine, which pays the rebuild ([bytes] x rebuild cost) and the dirty
   cone's construction. Boundary attributes then flow through the fragment
   tree: inherited attributes down from every fragment to its children,
   synthesized attributes up to its parent, and the root fragment finally
   reports the tree's synthesized attributes to the coordinator. The wave
   visits every boundary; what the equality cutoff left unchanged crosses
   as a reference.

   The owner's work and the rounds' share are {!Cost.wave}'s. A single
   edit is a wave with no round structure and no cone-merge metadata
   ([merged] is false), and the owner re-fires the whole
   cone sequentially at dynamic-rule cost, as it does a batch's re-fires
   outside the rounds (a rebuild's). A merged batch carries 16 bytes of
   cone-merge metadata per edit in its dispatch, and its rounds run as a
   steal wave co-scheduled across ALL fragment machines: the owner ships
   cone chunks out, every machine works the rounds in parallel, and
   results return to the owner before the boundary flow. So serial
   application pays the owner-sequential refire and a full boundary wave
   per edit; the batch pays the refire in parallel rounds and the
   boundary wave once.

   The latency runs from the coordinator's dispatch to the refreshed
   roots. *)
let simulate_wave es ~owner_frag ~edit_node ~merged (wv : Incr.wave_stats) =
  let rounds = if merged then wv.Incr.wv_round_refired else [||] in
  let faults = es.es_spec.sp_options.Runner.faults in
  let frags = Split.fragments es.es_plan in
  let nfrags = Array.length frags in
  let root = Incr.tree es.es_incr in
  let children =
    let t = Array.make nfrags [] in
    Array.iter
      (fun (f : Split.fragment) ->
        match f.Split.fr_parent with
        | Some p -> t.(p) <- f :: t.(p)
        | None -> ())
      frags;
    Array.map List.rev t
  in
  let { Cost.wc_owner = owner_delay; wc_share = share_work; wc_chunk_bytes } =
    Cost.wave Cost.default ~rounds ~assist:(max 1 nfrags) wv
  in
  let has_rounds = Array.length rounds > 0 in
  let assisted = has_rounds && nfrags > 1 in
  let dispatch =
    wv.Incr.wv_bytes + if merged then 16 * wv.Incr.wv_edits else 0
  in
  let sim = ES.create () in
  Option.iter (ES.set_faults sim) faults;
  let faulty = Option.is_some faults in
  (* The owner acknowledges nothing while it propagates; scale the
     retransmission timeout so the backoff horizon dwarfs that phase. *)
  let rto = Float.max 0.1 ((owner_delay +. share_work) /. 4.0) in
  let links = ref [] in
  let env_for id =
    let raw =
      {
        Transport.e_id = id;
        e_delay = ES.delay;
        e_send =
          (fun ~dst m ->
            ES.send ~dst ~size:(Message.size m) ~label:(Message.label m) m);
        e_recv = ES.recv;
        e_recv_timeout = ES.recv_timeout;
        e_time = ES.time;
        e_mark = ES.mark;
        e_flush = (fun () -> ());
      }
    in
    if faulty then begin
      let l = Reliable.wrap ~rto ~max_tries:8 raw in
      links := l :: !links;
      Reliable.env l
    end
    else raw
  in
  let finish = ref 0.0 in
  (* pid 0: the coordinator (parser) hands the update to its owner and
     waits for the refreshed root attributes. *)
  let coord_env = env_for 0 in
  let root_syn = attrs_of es root Grammar.Syn in
  let _ =
    ES.spawn sim ~name:"parser" (fun () ->
        coord_env.Transport.e_send ~dst:(owner_frag + 1)
          (Message.Edit { node = edit_node; bytes = dispatch });
        let got = ref 0 in
        while !got < List.length root_syn do
          match coord_env.Transport.e_recv () with
          | Message.Attr _ | Message.Attr_ref _ -> incr got
          | _ -> ()
        done;
        finish := ES.time ();
        coord_env.Transport.e_flush ())
  in
  (* pids 1..nfrags: one machine per fragment. *)
  Array.iter
    (fun (f : Split.fragment) ->
      let id = f.Split.fr_id + 1 in
      let env = env_for id in
      let is_owner = f.Split.fr_id = owner_frag in
      let inh_expected =
        match f.Split.fr_parent with
        | Some _ -> List.length (attrs_of es f.Split.fr_root Grammar.Inh)
        | None -> 0
      in
      let syn_expected =
        List.fold_left
          (fun acc (c : Split.fragment) ->
            acc + List.length (attrs_of es c.Split.fr_root Grammar.Syn))
          0
          children.(f.Split.fr_id)
      in
      let _ =
        ES.spawn sim
          ~name:(Runner.machine_name ~fragments:nfrags id)
          (fun () ->
            let seen = ref 0 in
            (* [Edit]-tagged messages (dispatch, cone chunks, chunk
               results) never count toward the boundary census. *)
            let rec wait_edit () =
              match env.Transport.e_recv () with
              | Message.Edit _ -> ()
              | _ ->
                  incr seen;
                  wait_edit ()
            in
            if is_owner then begin
              wait_edit ();
              env.Transport.e_delay owner_delay;
              if assisted then begin
                (* ship cone chunks, work own share, collect results *)
                Array.iter
                  (fun (g : Split.fragment) ->
                    if g.Split.fr_id <> owner_frag then
                      env.Transport.e_send ~dst:(g.Split.fr_id + 1)
                        (Message.Edit { node = -1; bytes = wc_chunk_bytes }))
                  frags;
                env.Transport.e_delay share_work;
                let results = ref 0 in
                while !results < nfrags - 1 do
                  match env.Transport.e_recv () with
                  | Message.Edit _ -> incr results
                  | _ -> incr seen
                done
              end
              else if has_rounds then env.Transport.e_delay share_work
            end
            else if assisted then begin
              wait_edit ();
              env.Transport.e_delay share_work;
              env.Transport.e_send ~dst:(owner_frag + 1)
                (Message.Edit { node = -1; bytes = wc_chunk_bytes })
            end;
            (* inherited attributes down to each child fragment *)
            List.iter
              (fun (c : Split.fragment) ->
                List.iter
                  (fun (i, a) ->
                    env.Transport.e_send ~dst:(c.Split.fr_id + 1)
                      (boundary_message es.es_incr ~src:id c.Split.fr_root i a))
                  (attrs_of es c.Split.fr_root Grammar.Inh))
              children.(f.Split.fr_id);
            (* wait out the parent's inherited and the children's
               synthesized boundary attributes *)
            while !seen < inh_expected + syn_expected do
              match env.Transport.e_recv () with
              | Message.Edit _ -> ()
              | _ -> incr seen
            done;
            (* synthesized attributes up: to the parent fragment's machine,
               or — for the root fragment — to the coordinator *)
            let dst, up =
              match f.Split.fr_parent with
              | Some p -> (p + 1, attrs_of es f.Split.fr_root Grammar.Syn)
              | None -> (0, root_syn)
            in
            List.iter
              (fun (i, a) ->
                env.Transport.e_send ~dst
                  (boundary_message es.es_incr ~src:id f.Split.fr_root i a))
              up;
            env.Transport.e_flush ())
      in
      ())
    frags;
  ES.run sim;
  let net = ES.network sim in
  let changed, total =
    fold_boundary es
      (fun acc b kind ->
        List.fold_left
          (fun (changed, total) (_, (a : Grammar.attr_decl)) ->
            ( (if Incr.changed es.es_incr b a.Grammar.a_name then changed + 1
               else changed),
              total + 1 ))
          acc (attrs_of es b kind))
      (0, 0)
  in
  {
    w_latency = !finish;
    w_messages = Ethernet.messages_sent net;
    w_bytes = Ethernet.bytes_sent net;
    w_retransmits =
      List.fold_left
        (fun acc l -> acc + (Reliable.stats l).Reliable.rs_retransmits)
        0 !links;
    w_changed = changed;
    w_total = total;
  }

(* A from-scratch distributed recompile ships every fragment's subtree
   plus every boundary attribute in full. Every node lies in exactly one
   fragment, so the fragments' residual sizes sum to the whole tree's
   linearized size. *)
let bytes_full es =
  let full_attr (b : Tree.t) (a : Grammar.attr_decl) =
    Message.size
      (Message.Attr
         {
           node = b.Tree.id;
           attr = a.Grammar.a_name;
           value = Store.get (Incr.store es.es_incr) b a.Grammar.a_name;
         })
  in
  fold_boundary es
    (fun acc b kind ->
      List.fold_left (fun acc (_, a) -> acc + full_attr b a) acc
        (attrs_of es b kind))
    (Array.fold_left
       (fun acc (fr : Split.fragment) ->
         acc + Message.header_bytes + fr.Split.fr_bytes)
       0
       (Split.fragments es.es_plan))

let edit_report ?(owner = 0) ?(bytes_full = 0) (wv : Incr.wave_stats) w =
  {
    er_dirty = wv.Incr.wv_dirty;
    er_refired = wv.Incr.wv_refired;
    er_cutoff = wv.Incr.wv_cutoff;
    er_fallback = wv.Incr.wv_fallbacks > 0;
    er_prop_ms = wv.Incr.wv_prop_ms;
    er_owner = owner;
    er_boundary_changed = w.w_changed;
    er_boundary_total = w.w_total;
    er_bytes_incr = w.w_bytes;
    er_bytes_full = bytes_full;
    er_messages = w.w_messages;
    er_retransmits = w.w_retransmits;
    er_latency = w.w_latency;
  }

let batch_report (wv : Incr.wave_stats) w =
  {
    br_edits = wv.Incr.wv_edits;
    br_waves = wv.Incr.wv_waves;
    br_conflicts = wv.Incr.wv_conflicts;
    br_dirty = wv.Incr.wv_dirty;
    br_refired = wv.Incr.wv_refired;
    br_cutoff = wv.Incr.wv_cutoff;
    br_fallbacks = wv.Incr.wv_fallbacks;
    br_rounds = wv.Incr.wv_rounds;
    br_boundary_changed = w.w_changed;
    br_boundary_total = w.w_total;
    br_bytes = w.w_bytes;
    br_messages = w.w_messages;
    br_retransmits = w.w_retransmits;
    br_latency = w.w_latency;
  }

(* The parser re-decomposes after a structural edit: a replacement may
   have swapped out a subtree containing a fragment root, and the wave must
   ship boundary attributes of live nodes only. The fresh plan is also what
   the owner lookup runs against — the edit site is by construction live. *)
let refresh_plan es =
  let o = es.es_spec.sp_options in
  es.es_plan <-
    Split.decompose es.es_g (Incr.tree es.es_incr) ~machines:o.Runner.machines
      ~granularity:o.Runner.granularity

(* Whether grafting [repl] where [old] was leaves the plan as it is.
   {!Split.decompose} reads only preorder positions, per-node bytes and
   which nodes are split points, so swapping a subtree holding no split
   point for another with the same node count and size changes none of
   them for any candidate: same fragments, same cuts, same residual
   sizes. *)
let keeps_plan g ~old ~repl =
  let no_split t =
    Tree.fold
      (fun ok (n : Tree.t) ->
        ok && (Grammar.symbol_of_id g n.Tree.sym_id).Grammar.s_split = None)
      true t
  in
  no_split old && no_split repl
  && Tree.size old = Tree.size repl
  && Tree.byte_size old = Tree.byte_size repl

(* A single edit: a wave with no round structure and no cone-merge
   metadata. *)
let simulate es ~owner_frag ~edit_node (wv : Incr.wave_stats) =
  edit_report ~owner:owner_frag ~bytes_full:(bytes_full es) wv
    (simulate_wave es ~owner_frag ~edit_node ~merged:false wv)

(* The diff is taken here, once, rather than inside {!Incr.edit}: the
   graft parent names the owner, and the pre-diffed {!Incr.replace} then
   applies the delta without diffing again. A graft keeps the plan when it
   cannot move it ({!keeps_plan}) and no rebuild renumbered the tree (the
   plan keys its cuts by node id); anything else re-decomposes. *)
let edit es next =
  let d = Tree.diff (Incr.tree es.es_incr) next in
  match d with
  | Tree.Equal -> edit_report (Incr.replace es.es_incr ~next d) no_wave
  | Tree.Root ->
      let wv = Incr.replace es.es_incr ~next d in
      refresh_plan es;
      simulate es ~owner_frag:0 ~edit_node:(Incr.tree es.es_incr).Tree.id wv
  | Tree.Subtree { parent; pos; repl } ->
      let keep = keeps_plan es.es_g ~old:parent.Tree.children.(pos) ~repl in
      let wv = Incr.replace es.es_incr ~next d in
      if wv.Incr.wv_fallbacks > 0 || not keep then refresh_plan es;
      let owner_frag =
        Option.value (Split.owner_of es.es_plan parent) ~default:0
      in
      simulate es ~owner_frag ~edit_node:parent.Tree.id wv

let edit_batch es nexts =
  let wv = Incr.edit_batch es.es_incr nexts in
  refresh_plan es;
  batch_report wv
    (if
       wv.Incr.wv_dirty = 0 && wv.Incr.wv_refired = 0
       && wv.Incr.wv_fallbacks = 0
     then no_wave
     else
       simulate_wave es ~owner_frag:0
         ~edit_node:(Incr.tree es.es_incr).Tree.id ~merged:true wv)

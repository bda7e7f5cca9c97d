open Pag_core
open Pag_analysis
open Pag_obs

type stats = { visits : int; evals : int }

(* The static evaluator is the engine's plan-driven schedule: the visit
   sequences fix the firing order at generation time, so each [Eval r]
   step is a direct (node, rule-index) firing against the shared engine —
   no dependency analysis, no readiness tracking, and no instance rows:
   [Engine.fire_at] reads the rule's references. Rows are resolved only
   when a provenance ring will name firings by rid. *)

let visit ?memo plan eng node v =
  let store = Engine.store eng in
  let visits = ref 0 and evals = ref 0 in
  let rec go node v =
    match node.Tree.prod with
    | None -> ()
    | Some p -> (
        incr visits;
        match Memo.subtree memo plan store node v with
        | Memo.Replayed -> Engine.note_replayed eng node
        | Memo.Evaluate record ->
            List.iter
              (function
                | Kastens.Eval r ->
                    Engine.fire_at eng node r;
                    incr evals
                | Kastens.Visit { child; visit } ->
                    go node.Tree.children.(child) visit)
              (Kastens.visit_seq plan ~prod:p.Grammar.p_id ~visit:v);
            (match record with Some f -> f () | None -> ()))
  in
  go node v;
  (!visits, !evals)

(* [visit] for a task of the steal schedule, which runs visits of disjoint
   subtrees on several domains at once: no memo, and every rule fires
   through {!Store.poke_rule}, so the walk touches no set-bit or
   counter. *)
let visit_poked plan store ~poke node v =
  let visits = ref 0 and evals = ref 0 in
  let rec go node v =
    match node.Tree.prod with
    | None -> ()
    | Some p ->
        incr visits;
        List.iter
          (function
            | Kastens.Eval r ->
                Store.poke_rule store node p.Grammar.p_rules.(r) ~poke;
                incr evals
            | Kastens.Visit { child; visit } ->
                go node.Tree.children.(child) visit)
          (Kastens.visit_seq plan ~prod:p.Grammar.p_id ~visit:v)
  in
  go node v;
  (!visits, !evals)

let eval ?(obs = Obs.null_ctx) ?root_inh ?(dag = false) ?(prov = Prov.disabled)
    ?prov_clock ?(engine_out = fun _ -> ()) plan t =
  let r, _ =
    Uid.with_base 0 (fun () ->
        let g = Kastens.grammar plan in
        let store, eng =
          Obs.with_span obs "store-build" (fun () ->
              let store = Store.create ?root_inh g t in
              let rules_for _ = Prov.enabled prov in
              (store, Engine.create ~rules_for g store))
        in
        (if Prov.enabled prov then
           let clock =
             match prov_clock with
             | Some c -> c
             | None -> if Obs.ctx_enabled obs then obs.Obs.x_clock else Sys.time
           in
           Engine.set_prov ~pid:obs.Obs.x_pid ~clock eng prov);
        engine_out eng;
        let memo =
          if dag then
            Some
              (Obs.with_span obs "sharing-pass" (fun () ->
                   Memo.create (Tree.sharing t)))
          else None
        in
        let m = Kastens.visit_count plan t.Tree.sym in
        let visits = ref 0 and evals = ref 0 in
        Obs.with_span obs "static-visits" (fun () ->
            for v = 1 to m do
              let nv, ne =
                Obs.with_span obs "visit" (fun () -> visit ?memo plan eng t v)
              in
              visits := !visits + nv;
              evals := !evals + ne
            done);
        if Obs.ctx_enabled obs then begin
          let reg = obs.Obs.x_metrics in
          Obs.Metrics.add (Obs.Metrics.counter reg "eval.visits") !visits;
          Obs.Metrics.add (Obs.Metrics.counter reg "eval.static_rules") !evals;
          (match memo with
          | Some mm ->
              let st = Memo.stats mm in
              Obs.Metrics.add
                (Obs.Metrics.counter reg "eval.memo_hits")
                st.Memo.st_hits;
              Obs.Metrics.add
                (Obs.Metrics.counter reg "eval.memo_misses")
                st.Memo.st_misses;
              Obs.Metrics.add
                (Obs.Metrics.counter reg "eval.memo_replayed_slots")
                st.Memo.st_replayed_slots
          | None -> ());
          Obs.Metrics.add_gauge reg "store.reads" (float_of_int (Store.reads store));
          Obs.Metrics.add_gauge reg "store.writes" (float_of_int (Store.sets store));
          Obs.Metrics.add_gauge reg "store.slots"
            (float_of_int (Store.slot_count store))
        end;
        (store, { visits = !visits; evals = !evals }))
  in
  r

open Pag_obs

type stats = { instances : int; edges : int; evals : int }

exception Cycle = Engine.Cycle

(* The dynamic evaluator is the engine's data-driven topological schedule:
   build the instance table and the slot-level consumer graph, then fire
   every ready rule until the store is complete. All the flat-array
   machinery (CSR edges, argument codes, the ready ring) lives in
   {!Engine}; this module only adds telemetry and the stats record. *)

let eval_inner ?(obs = Obs.null_ctx) ?root_inh ?(dag = false)
    ?(dag_out = fun _ -> ()) ?(prov = Prov.disabled) ?prov_clock
    ?(engine_out = fun _ -> ()) g t =
  let graph_t0 = if Obs.ctx_enabled obs then obs.Obs.x_clock () else 0.0 in
  let store = Store.create ?root_inh g t in
  let dplan =
    if dag then Some (Dag.plan g store (Pag_core.Tree.dag t)) else None
  in
  let rules_for = Option.map Dag.rules_for dplan in
  let eng = Engine.create ?rules_for g store in
  (if Prov.enabled prov then
     let clock =
       match prov_clock with
       | Some c -> c
       | None -> if Obs.ctx_enabled obs then obs.Obs.x_clock else Sys.time
     in
     Engine.set_prov ~pid:obs.Obs.x_pid ~clock eng prov);
  engine_out eng;
  let gr = Engine.graph eng in
  if Obs.ctx_enabled obs then
    Obs.span obs.Obs.x_rec ~pid:obs.Obs.x_pid ~t0:graph_t0
      ~t1:(obs.Obs.x_clock ()) "graph-build";
  let eval_t0 = if Obs.ctx_enabled obs then obs.Obs.x_clock () else 0.0 in
  let evals =
    match dplan with
    | None -> Engine.run_topo eng gr
    | Some p ->
        let rt = Dag.make p eng gr in
        let n = Dag.run_topo rt eng gr in
        dag_out rt;
        if Obs.ctx_enabled obs then begin
          let st = Dag.stats rt in
          let reg = obs.Obs.x_metrics in
          Obs.Metrics.add (Obs.Metrics.counter reg "dag.regions") st.Dag.dg_regions;
          Obs.Metrics.add
            (Obs.Metrics.counter reg "dag.projected_slots")
            st.Dag.dg_projected_slots;
          Obs.Metrics.add
            (Obs.Metrics.counter reg "dag.materialized_rids")
            st.Dag.dg_materialized_rids
        end;
        n
  in
  if Obs.ctx_enabled obs then begin
    Obs.span obs.Obs.x_rec ~pid:obs.Obs.x_pid ~t0:eval_t0
      ~t1:(obs.Obs.x_clock ()) "toposort-eval";
    let reg = obs.Obs.x_metrics in
    Obs.Metrics.add (Obs.Metrics.counter reg "eval.dynamic_rules") evals;
    Obs.Metrics.add (Obs.Metrics.counter reg "graph.nodes")
      (Store.slot_count store);
    Obs.Metrics.add (Obs.Metrics.counter reg "graph.edges")
      (Engine.slot_args eng);
    Obs.Metrics.add_gauge reg "store.reads" (float_of_int (Store.reads store));
    Obs.Metrics.add_gauge reg "store.writes" (float_of_int (Store.sets store))
  end;
  ( store,
    {
      instances = Store.slot_count store;
      edges = Engine.slot_args eng;
      evals;
    } )

let eval ?obs ?root_inh ?dag ?dag_out ?prov ?prov_clock ?engine_out g t =
  let r, _ =
    Pag_core.Uid.with_base 0 (fun () ->
        eval_inner ?obs ?root_inh ?dag ?dag_out ?prov ?prov_clock ?engine_out
          g t)
  in
  r

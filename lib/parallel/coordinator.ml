open Pag_core
open Pag_analysis
open Pag_eval
open Pag_obs

type recovery = {
  rc_link : Reliable.t;
  rc_kplan : Kastens.plan option;
  rc_watchdog : float;
}

(* A peer the run cannot complete without stopped acknowledging. *)
exception Lost of int list

(* Probe [peers] and wait until every outstanding envelope — probes
   included — is either acknowledged or abandoned. Raises [Lost] if any
   machine we depend on is presumed dead. *)
let probe (r : recovery) peers =
  List.iter (fun dst -> Reliable.ping r.rc_link ~dst) peers;
  Reliable.drain r.rc_link;
  match List.filter (fun p -> List.mem p peers) (Reliable.dead_peers r.rc_link) with
  | [] -> ()
  | dead -> raise (Lost dead)

(* Receive with a liveness watchdog: when nothing arrives for
   [rc_watchdog] seconds, ping the machines this wait depends on and keep
   waiting only if they all still answer. *)
let recv_watched (env : Transport.env) recovery ~peers =
  match recovery with
  | None -> env.Transport.e_recv ()
  | Some r ->
      let rec wait () =
        match env.Transport.e_recv_timeout r.rc_watchdog with
        | Some m -> m
        | None ->
            probe r peers;
            wait ()
      in
      wait ()

(* The whole tree re-evaluated on the coordinator's own machine with the
   sequential evaluator — the fallback that lets compilation complete no
   matter which evaluator machines died. The CPU time is charged to the
   simulated clock through the same cost model the workers use. *)
let eval_locally ?obs (env : Transport.env) (r : recovery) g tree expected =
  let store, cost =
    match r.rc_kplan with
    | Some kplan ->
        let store, (st : Static_eval.stats) = Static_eval.eval ?obs kplan tree in
        (store, Cost.visit_cost Cost.default ~visits:st.Static_eval.visits ~evals:st.Static_eval.evals)
    | None ->
        let store, (st : Dynamic.stats) = Dynamic.eval ?obs g tree in
        ( store,
          (float_of_int st.Dynamic.instances *. Cost.default.Cost.build_node)
          +. (float_of_int st.Dynamic.edges *. Cost.default.Cost.build_edge)
          +. (float_of_int st.Dynamic.evals
             *. Cost.rule_cost Cost.default ~dynamic:true) )
  in
  env.Transport.e_delay cost;
  List.map (fun a -> (a, Store.get store tree a)) expected

(* Names of the root's synthesized attributes: what the coordinator waits
   to collect. *)
let expected_attrs g (tree : Tree.t) =
  Array.to_list (Grammar.symbol g tree.Tree.sym).Grammar.s_attrs
  |> List.filter_map (fun (a : Grammar.attr_decl) ->
         if a.Grammar.a_kind = Grammar.Syn then Some a.Grammar.a_name else None)

let run ?(obs = Obs.null_ctx) ?recovery ?sharing (env : Transport.env) g ~tree
    ~plan ~librarian =
  let frags = Split.fragments plan in
  let evaluators =
    Array.to_list (Array.map (fun (f : Split.fragment) -> f.Split.fr_id + 1) frags)
  in
  (* Hand out subtrees; evaluator for fragment i is machine i+1. Each
     assignment is priced as the length of its real wire encoding
     ({!Split.wire_size}, which builds no string); with sharing classes
     known on both ends, repeated subtrees ship as backreferences — each
     class body crosses the wire once per machine, less wire and less
     rebuild. *)
  Array.iter
    (fun (f : Split.fragment) ->
      env.Transport.e_send ~dst:(f.Split.fr_id + 1)
        (Message.Subtree
           {
             frag = f.Split.fr_id;
             bytes = Split.wire_size ?sharing plan f;
             uid_base = (f.Split.fr_id + 1) * Uid.stride;
           }))
    frags;
  env.Transport.e_mark "evaluation started";
  (* Collect the root's synthesized attributes from the root evaluator. *)
  let expected = expected_attrs g tree in
  let received = Hashtbl.create 8 in
  let protocol () =
    let rec collect () =
      if Hashtbl.length received < List.length expected then begin
        (match recv_watched env recovery ~peers:evaluators with
        | Message.Attr { node; attr; value } when node = tree.Tree.id ->
            Hashtbl.replace received attr value
        | other ->
            failwith
              (Format.asprintf "coordinator: unexpected message %a" Message.pp
                 other));
        collect ()
      end
    in
    Obs.with_span obs "collect-roots" collect;
    env.Transport.e_mark "root attributes received";
    (* Resolve any code descriptors through the librarian. *)
    let resolve attr value =
      match (librarian, value) with
      | Some lib, Value.Ext (Codestr.V c) when Codestr.frag_count c > 0 ->
          env.Transport.e_send ~dst:lib (Message.Resolve { value });
          let wait () =
            match recv_watched env recovery ~peers:[ lib ] with
            | Message.Final { text } -> Codestr.value (Codestr.of_rope text)
            | other ->
                failwith
                  (Format.asprintf "coordinator: expected Final for %s, got %a"
                     attr Message.pp other)
          in
          wait ()
      | _ -> value
    in
    let attrs =
      Obs.with_span obs "librarian-resolve" (fun () ->
          List.map (fun a -> (a, resolve a (Hashtbl.find received a))) expected)
    in
    (match librarian with
    | Some lib -> env.Transport.e_send ~dst:lib Message.Stop
    | None -> ());
    env.Transport.e_flush ();
    env.Transport.e_mark "result assembled";
    (attrs, false)
  in
  match protocol () with
  | result -> result
  | exception Lost dead ->
      let r = Option.get recovery in
      env.Transport.e_mark
        (Printf.sprintf "machine %s dead: recovering locally"
           (String.concat "," (List.map string_of_int dead)));
      if Obs.ctx_enabled obs then
        Obs.instant obs.Obs.x_rec ~pid:obs.Obs.x_pid ~t:(obs.Obs.x_clock ())
          (Printf.sprintf "recovery: machine %s dead"
             (String.concat "," (List.map string_of_int dead)));
      (* Call the survivors off, then redo the whole evaluation here. *)
      List.iter
        (fun dst -> env.Transport.e_send ~dst Message.Stop)
        (match librarian with Some l -> evaluators @ [ l ] | None -> evaluators);
      let attrs = eval_locally ~obs env r g tree expected in
      env.Transport.e_flush ();
      env.Transport.e_mark "result assembled";
      (attrs, true)

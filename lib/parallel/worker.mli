(** A parallel attribute evaluator for one tree fragment (paper, sections
    2.1, 2.3 and 2.4).

    In [`Combined] mode, only nodes on the path from the fragment root to a
    remotely evaluated stub (the {e spine}) are evaluated dynamically; every
    other subtree hanging off the spine is evaluated by the static visit
    sequences, entered as a single unit ("when all predecessors for a
    statically evaluated attribute become available, the appropriate static
    visit procedure is invoked"). A fragment with no cuts is evaluated
    entirely statically. In [`Dynamic] mode every node is on the spine — the
    paper's purely dynamic parallel evaluator.

    Boundary attribute instances (inherited attributes of the fragment root,
    synthesized attributes of the stubs) are received from, and boundary
    products sent to, the neighbouring evaluators as {!Message.Attr}
    messages. With a librarian configured, the fragment root's synthesized
    code strings are shipped to the librarian as text fragments and only a
    small descriptor is passed to the parent. *)

open Pag_core
open Pag_analysis

type mode = [ `Dynamic | `Combined ]

type config = {
  wc_grammar : Grammar.t;
  wc_plan : Kastens.plan option;  (** required in [`Combined] mode *)
  wc_mode : mode;
  wc_use_priority : bool;
      (** schedule rules defining priority attributes first *)
  wc_librarian : int option;  (** librarian machine id; [None] = naive mode *)
  wc_phase_label : int -> string option;
      (** trace label for the first execution of a static visit [v] *)
  wc_obs : Pag_obs.Obs.ctx;
      (** telemetry context; {!Pag_obs.Obs.null_ctx} disables recording *)
  wc_sharing : Tree.sharing option;
      (** tree-sharing classes of the whole tree ({!Pag_core.Tree.sharing});
          [Some] (under [dag]) memoizes the static visits of repeated
          subtrees per inherited fingerprint ({!Pag_eval.Memo}) *)
  wc_prov : Pag_obs.Prov.t;
      (** provenance ring for this machine's firings
          ({!Pag_obs.Prov.disabled} records nothing); pid is the machine
          id, the clock the transport's *)
  wc_prov_dwell : bool;
      (** [true] (simulated transports): price firing durations from the
          cost model, since the virtual clock does not advance inside a
          firing; [false] (domains): read wall time twice *)
  wc_engine_hook : Pag_eval.Engine.t -> unit;
      (** receives the fragment engine once built — the runner stashes it
          so {!Pag_eval.Causal.build} can resolve this ring's slots *)
}

type task = {
  t_frag_id : int;
  t_root : Tree.t;  (** fragment root (shared tree, global node ids) *)
  t_cuts : (Tree.t * int) list;  (** stub node, machine evaluating it *)
  t_parent_machine : int;  (** destination of the fragment root's syn attrs *)
  t_root_is_tree_root : bool;
}

type stats = {
  ws_dynamic_rules : int;
  ws_static_rules : int;
  ws_visits : int;
  ws_graph_nodes : int;
  ws_graph_edges : int;
  ws_sends : int;
  ws_spine_len : int;  (** nodes evaluated dynamically (on the spine) *)
  ws_idle_wait : float;  (** time blocked waiting for boundary messages *)
  ws_bytes_flattened : int;  (** bytes of boundary messages originated *)
}

exception Stuck of string

(** The all-zero record — what {!run} reports for an aborted evaluator. *)
val zero_stats : stats

(** Runs the evaluator protocol: waits for its [Subtree] assignment, builds
    the (partial) dependency structure, evaluates, exchanging boundary
    attributes, and returns when every local instance is evaluated and every
    boundary product sent ([e_flush] is called before returning so a
    reliable transport has delivered everything). Receiving {!Message.Stop}
    at any point aborts the run — the coordinator has recovered from a fault
    locally and no longer needs this fragment — and returns {!zero_stats}. *)
val run : Transport.env -> config -> task -> stats

(** Compiler drivers: sequential (static / dynamic / oracle) and parallel
    (simulated network or domains), plus assemble-and-run support.

    The parallel paths run the same grammar through
    {!Pag_parallel.Runner}, which is how every experiment in bench/ compiles
    programs. *)

open Pag_analysis
open Pag_parallel

type compiled = {
  c_asm : string;  (** VAX assembly text *)
  c_errors : string list;  (** semantic errors *)
}

exception Compile_error of string

(** Kastens plan of the [`Base] grammar (computed once). *)
val plan : Kastens.plan Lazy.t

(** Kastens plan of the [`Threaded] grammar. *)
val plan_threaded : Kastens.plan Lazy.t

(** Trace phase labels for the two visits (figure 6). *)
val phase_label : int -> string option

(** Sequential compilation with the chosen evaluator. With a live [obs]
    context (pid 0, wall clock), the tree build and the evaluator phases
    are recorded as spans alongside the evaluation counters.

    [~dag:true] evaluates on the shared DAG: for [`Dynamic], one
    rule-instance set per unique subtree with occurrence projection
    ({!Pag_eval.Dag}); for [`Static], the subtree memo (whose replay unit
    — the whole visit over a shape class — is that schedule's collapse
    unit); [`Oracle] ignores it. [dag_out] hands back the DAG runtime for
    statistics.

    [prov] attaches a provenance ring to the run (ignored by [`Oracle]);
    [engine_out]/[tree_out] hand back the evaluation engine and the built
    tree for post-run analysis ({!Pag_eval.Causal} — [pagc --explain] and
    [--profile] on the sequential path). *)
val compile :
  ?obs:Pag_obs.Obs.ctx ->
  ?dag:bool ->
  ?dag_out:(Pag_eval.Dag.t -> unit) ->
  ?prov:Pag_obs.Prov.t ->
  ?engine_out:(Pag_eval.Engine.t -> unit) ->
  ?tree_out:(Pag_core.Tree.t -> unit) ->
  ?evaluator:[ `Static | `Dynamic | `Oracle ] ->
  Ast.program ->
  compiled

(** Parse then compile. *)
val compile_source : string -> compiled

(** Parallel compilation on the simulated network multiprocessor. Uses the
    [`Base] grammar unless [variant] says otherwise. *)
val compile_parallel_sim :
  ?variant:[ `Base | `Threaded ] ->
  Runner.options ->
  Ast.program ->
  Runner.result * compiled

(** Parallel compilation on OCaml domains. *)
val compile_parallel_domains :
  ?variant:[ `Base | `Threaded ] ->
  Runner.options ->
  Ast.program ->
  Runner.result * compiled

(** Apply the peephole optimizer to compiled assembly. *)
val optimize : compiled -> compiled

(** Mask every [L<n>]/[P<n>] label token in assembly text. Label numbers
    depend on rule firing order (which differs between evaluators and
    across incremental edits); the masked text is what must agree. *)
val mask_labels : string -> string

(** Assemble and execute on the VAX simulator. Raises [Compile_error] when
    the program had semantic errors. *)
val run_compiled :
  ?fuel:int -> ?input:int list -> compiled -> (string, string) result

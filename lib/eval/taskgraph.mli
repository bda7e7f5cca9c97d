(** The combined evaluator's task graph (paper, section 2.4).

    The combined evaluator fires rules dynamically only on the {e spine}
    and evaluates every subtree hanging off it by its static visit
    sequences, entered as a unit once the visit's inherited attributes are
    available. Its items are:
    - [Rule rid]: one rule instance of a spine node (the engine has its
      row);
    - [Visit (c, v)]: visit [v] of a static root [c], which defines [c]'s
      synthesized attributes of visit [v] ({!Pag_analysis.Kastens.visit_attrs})
      and every attribute the visit computes below [c];
    - [Recv (n, a)]: a boundary attribute another machine sends.

    An item waits for the producing item of every slot it reads (a rule's
    slot arguments, a visit's inherited attributes of that visit), and
    visit [v > 1] of a node also waits for visit [v - 1]. The parallel
    worker ({!Pag_parallel.Worker}) builds one graph per fragment and runs
    it in its own loop; {!run_steal} runs the whole tree's graph on the
    steal loop. *)

open Pag_core
open Pag_analysis

type item = Rule of int | Visit of Tree.t * int | Recv of Tree.t * string

type t

(** [build eng plan ~rules ~visits ~recvs] numbers the items — the rules
    of each node of [rules] in production order, then visits [1 .. m] of
    each node of [visits], then [recvs] — and wires them. A slot that no
    item produces must already be set in the engine's store; otherwise
    this raises {!Engine.Cycle} naming the attribute. [plan] may be
    [None] only when [visits] is empty. *)
val build :
  Engine.t ->
  Kastens.plan option ->
  rules:Tree.t list ->
  visits:Tree.t list ->
  recvs:(Tree.t * string) list ->
  t

(** Number of items. *)
val count : t -> int

(** The item with a given id. *)
val item : t -> int -> item

(** Producer edges into an item: its dependencies at the start. *)
val unmet : t -> int -> int

(** Producer edges in all. *)
val edges : t -> int

(** The item producing a slot, [-1] when none. *)
val producer : t -> int -> int

(** [iter_consumers tg id f] calls [f] once per edge out of item [id],
    latest-wired first. *)
val iter_consumers : t -> int -> (int -> unit) -> unit

(** {1 The whole tree on domains} *)

(** [of_store eng plan] — the graph of the engine's whole store. The spine
    is every interior node with rows ({!Engine.create}'s [rules_for])
    whose ancestors all have them; its interior children without rows,
    or the root when it has none, are the static roots. *)
val of_store : Engine.t -> Kastens.plan option -> t

(** [heavy store ~parts] holds for the nodes whose subtree has more than
    a [1 / parts] share of the store's rule instances: the steal
    schedule's spine. *)
val heavy : Store.t -> parts:int -> Tree.t -> bool

(** Work one domain did in {!run_steal}: spine rules fired, and the static
    rules fired and visit procedures entered by its visit tasks. *)
type fired = {
  mutable f_rules : int;
  mutable f_static_rules : int;
  mutable f_visits : int;
}

(** [run_steal ~domains ~uid_base ~prov ~prov_clock tg] runs the graph on
    {!Engine.run_tasks}: a [Rule] fires by {!Engine.fire_quiet}, a [Visit]
    walks its visit sequence by {!Static_eval.visit_poked}; both write
    through the machine set's [poke]. [prov] (one ring per domain) records
    the [Rule] firings; attach it only to a graph without visits, since a
    ring names firings by rule id. Returns the per-domain scheduler
    statistics and work. Re-raises a rule's exception once every domain
    has returned; raises {!Engine.Cycle} when tasks remain unrun. A graph
    with [Recv] items cannot run here. *)
val run_steal :
  ?domains:int ->
  ?uid_base:int ->
  ?prov:Pag_obs.Prov.t array ->
  ?prov_clock:(unit -> float) ->
  t ->
  Steal.stats array * fired array

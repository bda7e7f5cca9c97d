(** ASCII rendering of a simulator's log ({!Sim.Make.events}), in the style
    of the paper's figure 6: one row per process, thick marks for its
    ["active"] spans, thin dots for its ["idle"] spans (spans of other
    names draw nothing), '|' for its instants, plus a summary of the flows
    (messages) and instants (marks) in recording order. The chart spans 0
    to the latest span end or flow arrival.

    [overlay] marks extra [(pid, t0, t1)] windows with ['*'] on the owning
    row (drawn over active/idle cells) — [pagc --gantt] uses it to trace
    the provenance profiler's critical-path firings across the chart, so
    the rows line up with the [--profile] blame tables. *)

val render :
  ?width:int ->
  ?max_arrows:int ->
  ?overlay:(int * float * float) list ->
  names:(int -> string) ->
  Pag_obs.Obs.recorder ->
  string

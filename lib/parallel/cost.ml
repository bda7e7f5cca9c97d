type t = {
  static_rule : float;
  dynamic_rule : float;
  steal_rule : float;
  steal_init : float;
  build_node : float;
  build_edge : float;
  visit : float;
  rebuild_per_byte : float;
}

(* ~1 MIPS machine: a semantic rule is a few hundred instructions; dynamic
   scheduling roughly doubles that; graph construction costs a couple of
   hundred instructions per instance and per edge. *)
(* Work-stealing pays flat-table scheduling on top of the rule: a deque
   pop and a handful of counter decrements, far less than the 1987-style
   dynamic scheduler's graph walk, but more than a precomputed visit
   sequence. *)
let default =
  {
    static_rule = 350e-6;
    dynamic_rule = 500e-6;
    steal_rule = 385e-6;
    steal_init = 10e-6;
    build_node = 120e-6;
    build_edge = 90e-6;
    visit = 40e-6;
    rebuild_per_byte = 0.4e-6;
  }

let rule_cost t ~dynamic = if dynamic then t.dynamic_rule else t.static_rule

let visit_cost t ~visits ~evals =
  (float_of_int visits *. t.visit) +. (float_of_int evals *. t.static_rule)

type wave_cost = { wc_owner : float; wc_share : float; wc_chunk_bytes : int }

let wave t ~rounds ~assist (wv : Pag_eval.Incr.wave_stats) =
  let in_rounds = Array.fold_left ( + ) 0 rounds in
  let residue = max 0 (wv.wv_refired - in_rounds) in
  {
    wc_owner =
      (float_of_int wv.wv_bytes *. t.rebuild_per_byte)
      +. (float_of_int wv.wv_dirty *. t.build_node)
      +. (float_of_int residue *. rule_cost t ~dynamic:true);
    wc_share =
      Array.fold_left
        (fun acc r ->
          acc +. (float_of_int ((r + assist - 1) / assist) *. t.steal_rule))
        0.0 rounds;
    wc_chunk_bytes = in_rounds / assist * 16;
  }

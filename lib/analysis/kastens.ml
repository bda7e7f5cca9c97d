open Pag_util
open Pag_core

type instr = Eval of int | Visit of { child : int; visit : int }

type sym_plan = {
  sp_visits : (string list * string list) array;
  sp_visit_of : (string, int) Hashtbl.t;
}

type plan = {
  pl_grammar : Grammar.t;
  pl_syms : sym_plan array; (* indexed by symbol id *)
  pl_seqs : instr list array array; (* prod id -> visit number-1 -> seq *)
}

type failure = Circular of string | Not_ordered of string

let pp_failure fmt = function
  | Circular msg -> Format.fprintf fmt "grammar is circular: %s" msg
  | Not_ordered msg -> Format.fprintf fmt "grammar is not ordered: %s" msg

exception Failed of failure

(* ------------------------------------------------------------------ *)
(* Step 1: induced dependencies (IDS fixpoint over closed IDP graphs). *)
(* ------------------------------------------------------------------ *)

(* Graphs as bit rows: bit [j] of [g.(i)] is the edge i -> j, 63 bits to a
   word as in {!Digraph}'s closure. *)
let rows n = Array.init n (fun _ -> Array.make ((n + 62) / 63) 0)

let mem r j = r.(j / 63) land (1 lsl (j mod 63)) <> 0

let add r j = r.(j / 63) <- r.(j / 63) lor (1 lsl (j mod 63))

(* Warshall's algorithm, in place: a node on a cycle reaches itself. *)
let close g =
  for k = 0 to Array.length g - 1 do
    for i = 0 to Array.length g - 1 do
      if mem g.(i) k then
        for w = 0 to Array.length g.(k) - 1 do
          g.(i).(w) <- g.(i).(w) lor g.(k).(w)
        done
    done
  done

(* ids.(sym_id) is the IDS of that symbol over its attribute indices. Each
   production's local graph DP is built once. A run of a production lifts
   the IDS of every position into a copy of DP, closes it and projects it
   back; a production runs again only when a symbol at one of its
   positions grew since its last run ([grew] and [ran] are [clock] ticks),
   as otherwise it would project nothing new. *)
let induced_symbol_graphs g occs =
  let ids =
    Array.map (fun s -> rows (Array.length s.Grammar.s_attrs)) (Grammar.symbols g)
  in
  let local =
    Array.map
      (fun ot ->
        let p = Localdep.production ot and dp = rows (Localdep.count ot) in
        let occ (x : Grammar.rref) = Localdep.occ ot ~pos:x.rr_pos ~idx:x.rr_attr in
        Array.iter
          (fun (r : Grammar.rule) ->
            Array.iter (fun d -> add dp.(occ d) (occ r.r_rtarget)) r.r_rdeps)
          p.p_rules;
        let sid pos = Grammar.sym_id g (Localdep.sym_at ot pos).Grammar.s_name in
        (dp, Array.init (Array.length p.p_rhs + 1) sid))
      occs
  in
  let grew = Array.make (Array.length ids) 0 in
  let ran = Array.make (Array.length occs) (-1) in
  let clock = ref 0 and changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i ot ->
        let dp, sids = local.(i) in
        if Array.exists (fun sid -> grew.(sid) >= ran.(i)) sids then begin
          incr clock;
          ran.(i) <- !clock;
          let idp = Array.map Array.copy dp in
          let occ pos a = Localdep.occ ot ~pos ~idx:a in
          Array.iteri
            (fun pos sid ->
              let s = ids.(sid) in
              for a = 0 to Array.length s - 1 do
                for b = 0 to Array.length s - 1 do
                  if mem s.(a) b then add idp.(occ pos a) (occ pos b)
                done
              done)
            sids;
          close idp;
          (* A reflexive edge in the closure is a genuine dependency cycle. *)
          Array.iteri
            (fun o r ->
              if mem r o then
                raise
                  (Failed
                     (Circular
                        (Printf.sprintf "production %S: %s depends on itself"
                           (Localdep.production ot).Grammar.p_name
                           (Localdep.occ_name ot o)))))
            idp;
          Array.iteri
            (fun pos sid ->
              let s = ids.(sid) in
              for a = 0 to Array.length s - 1 do
                for b = 0 to Array.length s - 1 do
                  if a <> b && mem idp.(occ pos a) (occ pos b) && not (mem s.(a) b)
                  then begin
                    add s.(a) b;
                    grew.(sid) <- !clock;
                    changed := true
                  end
                done
              done)
            sids
        end)
      occs
  done;
  ids

(* ------------------------------------------------------------------ *)
(* Step 2: ordered partitions per symbol, peeled from the back.        *)
(* ------------------------------------------------------------------ *)

let partition_symbol sym ids =
  let n = Array.length sym.Grammar.s_attrs in
  let kind i = sym.Grammar.s_attrs.(i).Grammar.a_kind in
  let name i = sym.Grammar.s_attrs.(i).Grammar.a_name in
  let ds = Array.map Array.copy ids in
  close ds;
  let remaining = Array.make n true in
  let left = ref n in
  (* [peelable k] = attributes of kind [k] that nothing remaining depends
     on (no successor among remaining attributes). *)
  let peelable k =
    let out = ref [] in
    for a = n - 1 downto 0 do
      if remaining.(a) && kind a = k then
        let has_succ = ref false in
        for b = 0 to n - 1 do
          if remaining.(b) && b <> a && mem ds.(a) b then has_succ := true
        done;
        if not !has_succ then out := a :: !out
    done;
    !out
  in
  let rev_visits = ref [] in
  while !left > 0 do
    let syn_set = peelable Grammar.Syn in
    List.iter
      (fun a ->
        remaining.(a) <- false;
        decr left)
      syn_set;
    let inh_set = peelable Grammar.Inh in
    List.iter
      (fun a ->
        remaining.(a) <- false;
        decr left)
      inh_set;
    if syn_set = [] && inh_set = [] then
      raise
        (Failed
           (Not_ordered
              (Printf.sprintf "cannot partition attributes of %S"
                 sym.Grammar.s_name)));
    rev_visits := (List.map name inh_set, List.map name syn_set) :: !rev_visits
  done;
  let visits = Array.of_list !rev_visits in
  (* Every nonterminal gets at least one visit so that attribute instances in
     attribute-less subtrees still get evaluated. *)
  let visits = if Array.length visits = 0 then [| ([], []) |] else visits in
  let visit_of = Hashtbl.create 8 in
  Array.iteri
    (fun i (inh_attrs, syn_attrs) ->
      List.iter (fun a -> Hashtbl.replace visit_of a (i + 1)) inh_attrs;
      List.iter (fun a -> Hashtbl.replace visit_of a (i + 1)) syn_attrs)
    visits;
  { sp_visits = visits; sp_visit_of = visit_of }

(* ------------------------------------------------------------------ *)
(* Step 3: visit sequences by topologically sorting an action graph.   *)
(* ------------------------------------------------------------------ *)

(* Action node numbering for a production with [m] LHS visits, [nr] rules
   and child visit counts [mchild]:
     0 .. m-1            Begin v (v = index+1)
     m .. 2m-1           End v
     2m .. 2m+nr-1       Eval r
     2m+nr ..            Visit (child, w), densely packed per child.   *)

let visit_sequences plan_of_sym ot =
  let p = Localdep.production ot in
  let arity = Array.length p.Grammar.p_rhs in
  let nr = Array.length p.Grammar.p_rules in
  let lhs_sym = (Localdep.sym_at ot 0).Grammar.s_name in
  let m = Array.length (plan_of_sym lhs_sym).sp_visits in
  let child_m =
    Array.init arity (fun i ->
        let s = Localdep.sym_at ot (i + 1) in
        if s.Grammar.s_term then 0
        else Array.length (plan_of_sym s.Grammar.s_name).sp_visits)
  in
  let visit_base = Array.make arity 0 in
  let total = ref (2 * m) in
  let eval_base = !total in
  total := !total + nr;
  Array.iteri
    (fun i mc ->
      visit_base.(i) <- !total;
      total := !total + mc)
    child_m;
  let n_begin v = v - 1 in
  let n_end v = m + v - 1 in
  let n_eval r = eval_base + r in
  let n_visit i w = visit_base.(i) + w - 1 in
  let edges = ref [] in
  let edge a b = edges := (a, b) :: !edges in
  for v = 1 to m do
    edge (n_begin v) (n_end v);
    if v < m then edge (n_end v) (n_begin (v + 1))
  done;
  for i = 0 to arity - 1 do
    for w = 1 to child_m.(i) do
      if w > 1 then edge (n_visit i (w - 1)) (n_visit i w);
      (* Nothing happens before the first visit of the LHS begins. *)
      edge (n_begin 1) (n_visit i w)
    done;
    (* Every child must be fully visited before the final return. *)
    if child_m.(i) > 0 then edge (n_visit i child_m.(i)) (n_end m)
  done;
  for r = 0 to nr - 1 do
    edge (n_begin 1) (n_eval r)
  done;
  let visit_of_attr sym attr =
    match Hashtbl.find_opt (plan_of_sym sym).sp_visit_of attr with
    | Some v -> v
    | None -> 1
  in
  Array.iteri
    (fun r (ru : Grammar.rule) ->
      let tgt = ru.Grammar.r_target in
      (if tgt.Grammar.pos = 0 then
         edge (n_eval r) (n_end (visit_of_attr lhs_sym tgt.Grammar.attr))
       else
         let child = tgt.Grammar.pos - 1 in
         let csym = (Localdep.sym_at ot tgt.Grammar.pos).Grammar.s_name in
         edge (n_eval r) (n_visit child (visit_of_attr csym tgt.Grammar.attr)));
      List.iter
        (fun (d : Grammar.attr_ref) ->
          if d.Grammar.pos = 0 then
            edge (n_begin (visit_of_attr lhs_sym d.Grammar.attr)) (n_eval r)
          else
            let child = d.Grammar.pos - 1 in
            let csym = Localdep.sym_at ot d.Grammar.pos in
            if not csym.Grammar.s_term then
              edge
                (n_visit child (visit_of_attr csym.Grammar.s_name d.Grammar.attr))
                (n_eval r))
        ru.Grammar.r_deps)
    p.Grammar.p_rules;
  let graph = Digraph.make !total !edges in
  (* Kahn's algorithm with a preference for non-End actions, so work is
     scheduled in the earliest visit whose inputs are available. *)
  let indeg = Array.make !total 0 in
  List.iter (fun (_, b) -> indeg.(b) <- indeg.(b) + 1) (Digraph.edges graph);
  let is_end a = a >= m && a < 2 * m in
  let ready = ref [] in
  for a = !total - 1 downto 0 do
    if indeg.(a) = 0 then ready := a :: !ready
  done;
  let segments = Array.make (max m 1) [] in
  let current = ref 0 in
  let emitted = ref 0 in
  let classify a =
    if a < m then `Begin (a + 1)
    else if a < 2 * m then `End (a - m + 1)
    else if a < 2 * m + nr then `Eval (a - eval_base)
    else
      let rec find i =
        if
          child_m.(i) > 0
          && a >= visit_base.(i)
          && a < visit_base.(i) + child_m.(i)
        then i
        else find (i + 1)
      in
      let i = find 0 in
      `Visit (i, a - visit_base.(i) + 1)
  in
  let take a =
    ready := List.filter (fun x -> x <> a) !ready;
    incr emitted;
    (match classify a with
    | `Begin v -> current := v
    | `End _ -> ()
    | `Eval r ->
        segments.(!current - 1) <- Eval r :: segments.(!current - 1)
    | `Visit (i, w) ->
        segments.(!current - 1) <-
          Visit { child = i; visit = w } :: segments.(!current - 1));
    List.iter
      (fun b ->
        indeg.(b) <- indeg.(b) - 1;
        if indeg.(b) = 0 then ready := !ready @ [ b ])
      (Digraph.succs graph a)
  in
  let rec loop () =
    match !ready with
    | [] -> ()
    | l -> (
        let non_end = List.filter (fun a -> not (is_end a)) l in
        match non_end with
        | a :: _ ->
            take a;
            loop ()
        | [] ->
            take (List.hd l);
            loop ())
  in
  loop ();
  if !emitted <> !total then
    raise
      (Failed
         (Not_ordered
            (Printf.sprintf
               "production %S: no consistent visit sequence (action graph is \
                cyclic)"
               p.Grammar.p_name)));
  Array.map List.rev segments

(* ------------------------------------------------------------------ *)

let occurrences g = Array.map (Localdep.of_production g) (Grammar.productions g)

let induced g =
  match induced_symbol_graphs g (occurrences g) with
  | ids -> Ok (Array.map (fun r a b -> mem r.(a) b) ids)
  | exception Failed f -> Error f

let analyze g =
  try
    let occs = occurrences g in
    let ids = induced_symbol_graphs g occs in
    let syms = Grammar.symbols g in
    let pl_syms =
      Array.mapi
        (fun i s ->
          if s.Grammar.s_term then
            { sp_visits = [||]; sp_visit_of = Hashtbl.create 1 }
          else partition_symbol s ids.(i))
        syms
    in
    let plan_of_sym name = pl_syms.(Grammar.sym_id g name) in
    let pl_seqs = Array.map (visit_sequences plan_of_sym) occs in
    Ok { pl_grammar = g; pl_syms; pl_seqs }
  with Failed f -> Error f

let grammar p = p.pl_grammar

let visit_count p sym =
  Array.length p.pl_syms.(Grammar.sym_id p.pl_grammar sym).sp_visits

let visit_attrs p ~sym ~visit =
  let sp = p.pl_syms.(Grammar.sym_id p.pl_grammar sym) in
  if visit < 1 || visit > Array.length sp.sp_visits then
    invalid_arg "Kastens.visit_attrs: visit out of range";
  sp.sp_visits.(visit - 1)

let visit_of_attr p ~sym ~attr =
  let sp = p.pl_syms.(Grammar.sym_id p.pl_grammar sym) in
  match Hashtbl.find_opt sp.sp_visit_of attr with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Kastens.visit_of_attr: %s.%s" sym attr)

let visit_seq p ~prod ~visit = p.pl_seqs.(prod).(visit - 1)

let pp_plan fmt p =
  let g = p.pl_grammar in
  Format.fprintf fmt "@[<v>ordered evaluation plan for grammar %S"
    (Grammar.name g);
  Array.iteri
    (fun i s ->
      if not s.Grammar.s_term then begin
        Format.fprintf fmt "@,symbol %s:" s.Grammar.s_name;
        Array.iteri
          (fun v (inh_attrs, syn_attrs) ->
            Format.fprintf fmt "@,  visit %d: inh {%s} -> syn {%s}" (v + 1)
              (String.concat "," inh_attrs)
              (String.concat "," syn_attrs))
          p.pl_syms.(i).sp_visits
      end)
    (Grammar.symbols g);
  Array.iter
    (fun (pr : Grammar.production) ->
      Format.fprintf fmt "@,production %s:" pr.Grammar.p_name;
      Array.iteri
        (fun v seq ->
          Format.fprintf fmt "@,  visit %d:" (v + 1);
          List.iter
            (function
              | Eval r ->
                  Format.fprintf fmt " eval(%s)"
                    pr.Grammar.p_rules.(r).Grammar.r_name
              | Visit { child; visit } ->
                  Format.fprintf fmt " visit(%d,%d)" (child + 1) visit)
            seq)
        p.pl_seqs.(pr.Grammar.p_id))
    (Grammar.productions g);
  Format.fprintf fmt "@]"

open Pag_core

type t = {
  prod : Grammar.production;
  syms : Grammar.symbol array; (* symbol at each position, 0 = LHS *)
  base : int array; (* occurrence index of attr 0 at each position *)
  total : int;
}

let of_production g p =
  let arity = Array.length p.Grammar.p_rhs in
  let syms =
    Array.init (arity + 1) (fun pos ->
        if pos = 0 then Grammar.symbol g p.Grammar.p_lhs
        else Grammar.symbol g p.Grammar.p_rhs.(pos - 1))
  in
  let base = Array.make (arity + 1) 0 in
  let total = ref 0 in
  Array.iteri
    (fun pos s ->
      base.(pos) <- !total;
      total := !total + Array.length s.Grammar.s_attrs)
    syms;
  { prod = p; syms; base; total = !total }

let production t = t.prod

let count t = t.total

let occ t ~pos ~idx = t.base.(pos) + idx

let pos_of t o =
  let rec find pos =
    if pos = Array.length t.base - 1 || t.base.(pos + 1) > o then
      (pos, o - t.base.(pos))
    else find (pos + 1)
  in
  find 0

let sym_at t pos = t.syms.(pos)

let occ_name t o =
  let pos, idx = pos_of t o in
  let attr = t.syms.(pos).Grammar.s_attrs.(idx).Grammar.a_name in
  if pos = 0 then Printf.sprintf "$$.%s" attr
  else Printf.sprintf "$%d.%s" pos attr

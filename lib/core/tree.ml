type t = {
  mutable id : int;
  sym : string;
  sym_id : int;
  prod : Grammar.production option;
  children : t array;
  term_attrs : (string * Value.t) list;
}

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type prod = {
  pr_prod : Grammar.production option;  (** [Some p], shared by p's nodes *)
  pr_lhs : int;
  pr_rhs : int array;  (** {!Grammar.sym_id} of each right-hand symbol *)
}

let resolve g prod_name =
  let p = Grammar.find_production g prod_name in
  {
    pr_prod = Some p;
    pr_lhs = Grammar.sym_id g p.p_lhs;
    pr_rhs = Array.map (Grammar.sym_id g) p.p_rhs;
  }

let build r children =
  let p = Option.get r.pr_prod in
  if Array.length children <> Array.length r.pr_rhs then
    error "node %S: expected %d children, got %d" p.p_name
      (Array.length r.pr_rhs) (Array.length children);
  for i = 0 to Array.length children - 1 do
    let c = children.(i) in
    if c.sym_id <> r.pr_rhs.(i) then
      error "node %S: child %d should be %S, got %S" p.p_name (i + 1)
        p.p_rhs.(i) c.sym
  done;
  {
    id = -1;
    sym = p.p_lhs;
    sym_id = r.pr_lhs;
    prod = r.pr_prod;
    children;
    term_attrs = [];
  }

let node g prod_name children =
  build (resolve g prod_name) (Array.of_list children)

type terminal = { tm_sym : string; tm_sym_id : int; tm_names : string list }

let terminal g term names =
  let s = Grammar.symbol g term in
  if not s.Grammar.s_term then error "leaf: %S is not a terminal" term;
  Array.iter
    (fun (a : Grammar.attr_decl) ->
      if not (List.mem a.a_name names) then
        error "leaf %S: missing intrinsic attribute %S" term a.a_name)
    s.Grammar.s_attrs;
  List.iter
    (fun name ->
      if Grammar.find_attr s name = None then
        error "leaf %S: unknown attribute %S" term name)
    names;
  { tm_sym = term; tm_sym_id = Grammar.sym_id g term; tm_names = names }

let make_leaf tm term_attrs =
  {
    id = -1;
    sym = tm.tm_sym;
    sym_id = tm.tm_sym_id;
    prod = None;
    children = [||];
    term_attrs;
  }

let leaf_of tm values =
  match List.combine tm.tm_names values with
  | attrs -> make_leaf tm attrs
  | exception Invalid_argument _ ->
      error "leaf %S: %d attribute names, %d values" tm.tm_sym
        (List.length tm.tm_names) (List.length values)

let leaf g term attrs = make_leaf (terminal g term (List.map fst attrs)) attrs

let iter f t =
  (* Explicit stack: trees of large programs are deep. *)
  let stack = ref [ t ] in
  let rec go () =
    match !stack with
    | [] -> ()
    | n :: rest ->
        stack := rest;
        f n;
        for i = Array.length n.children - 1 downto 0 do
          stack := n.children.(i) :: !stack
        done;
        go ()
  in
  go ()

let fold f init t =
  let acc = ref init in
  iter (fun n -> acc := f !acc n) t;
  !acc

let number t =
  let count = ref 0 in
  iter
    (fun n ->
      n.id <- !count;
      incr count)
    t;
  !count

let size t = fold (fun n _ -> n + 1) 0 t

let byte_size t =
  fold
    (fun acc n ->
      acc + 8
      + List.fold_left
          (fun a (_, v) -> a + Value.byte_size v)
          0 n.term_attrs)
    0 t

let term_attr t name =
  match t.prod with
  | Some _ -> error "term_attr: %S is not a leaf" t.sym
  | None -> (
      match List.assoc_opt name t.term_attrs with
      | Some v -> v
      | None -> error "term_attr: leaf %S has no attribute %S" t.sym name)

let check g t =
  iter
    (fun n ->
      match n.prod with
      | None ->
          let s = Grammar.symbol g n.sym in
          if not s.Grammar.s_term then
            error "check: leaf node with nonterminal symbol %S" n.sym
      | Some p ->
          if p.Grammar.p_lhs <> n.sym then
            error "check: node symbol %S does not match production %S" n.sym
              p.Grammar.p_name;
          if Array.length n.children <> Array.length p.Grammar.p_rhs then
            error "check: node %S has wrong arity" p.Grammar.p_name;
          Array.iteri
            (fun i c ->
              if c.sym <> p.Grammar.p_rhs.(i) then
                error "check: node %S child %d has symbol %S, expected %S"
                  p.Grammar.p_name (i + 1) c.sym p.Grammar.p_rhs.(i))
            n.children)
    t

(* ------------------------------------------------------------------ *)
(* Edits                                                               *)
(* ------------------------------------------------------------------ *)

let find t wanted =
  let found = ref None in
  (try
     iter
       (fun n ->
         if n.id = wanted then begin
           found := Some n;
           raise Exit
         end)
       t
   with Exit -> ());
  !found

let number_from t start =
  let count = ref start in
  iter
    (fun n ->
      n.id <- !count;
      incr count)
    t;
  !count

let replace_subtree g ~parent ~pos repl =
  (match parent.prod with
  | None -> error "replace_subtree: parent %S is a leaf" parent.sym
  | Some p ->
      if pos < 0 || pos >= Array.length parent.children then
        error "replace_subtree: %S has no child %d" p.Grammar.p_name pos;
      if repl.sym <> p.Grammar.p_rhs.(pos) then
        error "replace_subtree: child %d of %S must be %S, got %S" pos
          p.Grammar.p_name p.Grammar.p_rhs.(pos) repl.sym);
  check g repl;
  let old = parent.children.(pos) in
  parent.children.(pos) <- repl;
  old

type delta = Equal | Root | Subtree of { parent : t; pos : int; repl : t }

(* Smallest single differing subtree of two trees over one grammar: walk
   both in lockstep while exactly one child pair differs; the replacement
   site is where the productions (or terminal attributes) first diverge.
   Multiple differing children mean their common parent must be replaced
   wholesale. One pass: each child pair is walked once, by [go] itself —
   an [Equal] answer is the equality test — and the walk of a node stops
   at its second differing child. *)
let diff a b =
  let same_shape x y =
    x.sym_id = y.sym_id
    && match (x.prod, y.prod) with
       | Some p, Some q -> p.Grammar.p_id = q.Grammar.p_id
       | None, None ->
           List.compare_lengths x.term_attrs y.term_attrs = 0
           && List.for_all2
                (fun (n1, v1) (n2, v2) ->
                  String.equal n1 n2 && Value.equal v1 v2)
                x.term_attrs y.term_attrs
       | _ -> false
  in
  (* [Root] from [go x y] means x and y differ at their own roots. Equal
     shapes have equal arities. *)
  let rec go x y = if not (same_shape x y) then Root else kids x y 0 None
  (* [first]: the first differing child pair's position and delta *)
  and kids x y i first =
    if i = Array.length x.children then
      match first with
      | None -> Equal
      | Some (j, Root) -> Subtree { parent = x; pos = j; repl = y.children.(j) }
      | Some (_, d) -> d
    else
      match go x.children.(i) y.children.(i) with
      | Equal -> kids x y (i + 1) first
      | d -> (
          match first with
          | None -> kids x y (i + 1) (Some (i, d))
          | Some _ -> Root)
  in
  if a.sym_id <> b.sym_id then
    error "diff: root symbols differ (%S vs %S)" a.sym b.sym
  else go a b

(* ------------------------------------------------------------------ *)
(* Structural sharing                                                  *)
(* ------------------------------------------------------------------ *)

type sharing = {
  sh_classes : int;
  sh_class : int array;
  sh_size : int array;
  sh_rep : int array;
  sh_occurs : int array;
}

(* A node's shape, with children identified by their (already assigned)
   class ids and terminal attributes canonicalized so equality can compare
   them by identity. Class ids are exact — two nodes share a class iff
   their subtrees are structurally identical — so reusing attributes
   across a class never changes semantics. *)
module Shape = struct
  type key = {
    k_sym : int;
    k_prod : int;  (* production id, -1 for leaves *)
    k_kids : int array;
    k_attrs : (string * Value.t) list;  (* values canonical *)
  }

  type t = key

  let equal a b =
    a.k_sym = b.k_sym && a.k_prod = b.k_prod && a.k_kids = b.k_kids
    && List.compare_lengths a.k_attrs b.k_attrs = 0
    && List.for_all2
         (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && v1 == v2)
         a.k_attrs b.k_attrs

  let hash k =
    let mix h1 h2 = (h1 * 0x01000193) lxor (h2 + 0x9e3779b9 + (h1 lsl 6)) in
    let h = mix k.k_sym k.k_prod in
    let h = Array.fold_left mix h k.k_kids in
    List.fold_left
      (fun h (n, v) -> mix h (mix (Hashtbl.hash n) (Value.hash v)))
      h k.k_attrs
end

module Shape_tbl = Hashtbl.Make (Shape)

let sharing t =
  let n = size t in
  let cls = Array.make n (-1) in
  let tbl = Shape_tbl.create (max 64 n) in
  (* Per-class arrays, grown as classes are discovered (≤ n of them). *)
  let csize = Array.make (max 1 n) 0 in
  let crep = Array.make (max 1 n) 0 in
  let coccurs = Array.make (max 1 n) 0 in
  let next = ref 0 in
  (* Postorder: children's classes are assigned before their parent's. *)
  let rec go = function
    | [] -> ()
    | (node, true) :: rest ->
        let key =
          {
            Shape.k_sym = node.sym_id;
            k_prod =
              (match node.prod with Some p -> p.Grammar.p_id | None -> -1);
            k_kids = Array.map (fun c -> cls.(c.id)) node.children;
            k_attrs =
              List.map (fun (nm, v) -> (nm, Value.intern v)) node.term_attrs;
          }
        in
        (match Shape_tbl.find_opt tbl key with
        | Some c ->
            cls.(node.id) <- c;
            coccurs.(c) <- coccurs.(c) + 1
        | None ->
            let c = !next in
            incr next;
            Shape_tbl.replace tbl key c;
            cls.(node.id) <- c;
            csize.(c) <-
              Array.fold_left (fun a ch -> a + csize.(cls.(ch.id))) 1
                node.children;
            crep.(c) <- node.id;
            coccurs.(c) <- 1);
        go rest
    | (node, false) :: rest ->
        go
          (Array.fold_right
             (fun c acc -> (c, false) :: acc)
             node.children
             ((node, true) :: rest))
  in
  go [ (t, false) ];
  {
    sh_classes = !next;
    sh_class = cls;
    sh_size = Array.sub csize 0 !next;
    sh_rep = Array.sub crep 0 !next;
    sh_occurs = Array.sub coccurs 0 !next;
  }

type dag = {
  dg_sharing : sharing;
  dg_kids : int array array;
  dg_occ_off : int array;
  dg_occ : int array;
}

(* The canonical DAG form: child-class edges come from each class's
   representative occurrence (any occurrence gives the same answer — the
   class relation is exact), the occurrence CSR is a counting sort of node
   ids by class, so each class's occurrences come out ascending and the
   representative (first preorder occurrence) leads its list. *)
let dag t =
  let sh = sharing t in
  let n = Array.length sh.sh_class in
  let c = sh.sh_classes in
  let kids = Array.make (max 1 c) [||] in
  iter
    (fun node ->
      let cl = sh.sh_class.(node.id) in
      if sh.sh_rep.(cl) = node.id then
        kids.(cl) <- Array.map (fun ch -> sh.sh_class.(ch.id)) node.children)
    t;
  let off = Array.make (c + 1) 0 in
  Array.iter (fun cl -> off.(cl + 1) <- off.(cl + 1) + 1) sh.sh_class;
  for i = 1 to c do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let occ = Array.make (max 1 n) 0 in
  let cursor = Array.sub off 0 (max 1 c) in
  for id = 0 to n - 1 do
    let cl = sh.sh_class.(id) in
    occ.(cursor.(cl)) <- id;
    cursor.(cl) <- cursor.(cl) + 1
  done;
  { dg_sharing = sh; dg_kids = Array.sub kids 0 c; dg_occ_off = off; dg_occ = occ }

let rec pp fmt t =
  match t.prod with
  | None ->
      Format.fprintf fmt "@[<h>%s%a@]" t.sym
        (fun fmt attrs ->
          match attrs with
          | [] -> ()
          | l ->
              Format.fprintf fmt "(%s)"
                (String.concat ","
                   (List.map (fun (k, v) -> k ^ "=" ^ Value.to_string v) l)))
        t.term_attrs
  | Some p ->
      Format.fprintf fmt "@[<hv 2>(%s" p.Grammar.p_name;
      Array.iter (fun c -> Format.fprintf fmt "@ %a" pp c) t.children;
      Format.fprintf fmt ")@]"

open Pag_core

type fragment = {
  fr_id : int;
  fr_root : Tree.t;
  fr_parent : int option;
  fr_bytes : int;
}

type work = {
  w_id : int;
  w_root : Tree.t;
  mutable w_parent : int option;
  mutable w_cuts : Tree.t list;
}

type plan = {
  frags : fragment array;
  cut_to_frag : (int, int) Hashtbl.t;
  cut_lists : Tree.t list array;
}

let node_bytes node =
  8
  + List.fold_left
      (fun a (_, v) -> a + Value.byte_size v)
      0 node.Tree.term_attrs

(* The nodes in preorder, and each node's preorder index. The split
   algorithm wants preorder indices (every subtree is an interval
   [i, i + count)), but it must not renumber the tree to get them: an edit
   session re-decomposes its resident tree between edits, and that tree's
   ids are the evaluator store's node identity. Ids stay as they are unless
   they are negative or duplicate, in which case the tree is numbered once.
   The index map is an array over [min id .. max id], as [Store] indexes
   its nodes. Edits leave gaps there ({!Tree.number_from} numbers a graft
   past the host's ids), but an edit session rebuilds from scratch, which
   renumbers, once dead slots outnumber live ones, so the range stays a
   small multiple of the tree. *)
let preorder tree =
  let n = ref 0 and lo = ref max_int and hi = ref min_int in
  Tree.iter
    (fun nd ->
      incr n;
      if nd.Tree.id < !lo then lo := nd.Tree.id;
      if nd.Tree.id > !hi then hi := nd.Tree.id)
    tree;
  let nodes = Array.make !n tree in
  let k = ref 0 in
  Tree.iter
    (fun nd ->
      nodes.(!k) <- nd;
      incr k)
    tree;
  let lo = !lo in
  let pre = Array.make (if lo >= 0 then !hi - lo + 1 else 0) (-1) in
  let i = ref (-1) in
  let unique =
    lo >= 0
    && Array.for_all
         (fun (nd : Tree.t) ->
           incr i;
           let j = nd.Tree.id - lo in
           pre.(j) < 0 && (pre.(j) <- !i; true))
         nodes
  in
  if unique then (nodes, fun (nd : Tree.t) -> pre.(nd.Tree.id - lo))
  else begin
    ignore (Tree.number tree);
    (nodes, fun (nd : Tree.t) -> nd.Tree.id)
  end

let decompose g tree ~machines ~granularity =
  if machines < 1 then invalid_arg "Split.decompose: machines < 1";
  if not (Float.is_finite granularity && granularity > 0.0) then
    invalid_arg "Split.decompose: granularity not finite and positive";
  let nodes, pre = preorder tree in
  let n = Array.length nodes in
  let counts = Array.make n 1 in
  let bytes = Array.make n 0 in
  for i = n - 1 downto 0 do
    bytes.(i) <- node_bytes nodes.(i);
    Array.iter
      (fun c ->
        counts.(i) <- counts.(i) + counts.(pre c);
        bytes.(i) <- bytes.(i) + bytes.(pre c))
      nodes.(i).Tree.children
  done;
  let splittable i =
    let nd = nodes.(i) in
    nd.Tree.prod <> None
    &&
    match (Grammar.symbol g nd.Tree.sym).Grammar.s_split with
    | Some min_bytes ->
        float_of_int bytes.(i) >= float_of_int min_bytes *. granularity
    | None -> false
  in
  let in_subtree ~root i = i >= root && i < root + counts.(root) in
  let works = ref [ { w_id = 0; w_root = tree; w_parent = None; w_cuts = [] } ] in
  let nfrags = ref 1 in
  let cut_bytes cuts under =
    List.fold_left
      (fun a (c : Tree.t) ->
        if in_subtree ~root:under (pre c) then a + bytes.(pre c) else a)
      0 cuts
  in
  let residual w =
    bytes.(pre w.w_root) - cut_bytes w.w_cuts (pre w.w_root)
  in
  (* Ideal fragment size: machines equal shares of the whole tree. *)
  let share = float_of_int bytes.(pre tree) /. float_of_int machines in
  (* Candidate cut inside fragment [w]: any splittable node that is not the
     fragment root and not inside an existing cut. A candidate may contain
     existing cuts: those child fragments are re-parented to the new
     fragment, which is how nested decompositions (figure 7) arise. The best
     candidate leaves the fragment with about one machine share: cut the
     node whose residual is closest to [residual w - share]. *)
  let best_candidate w =
    let root_id = pre w.w_root in
    let cut_ids = List.map (fun (c : Tree.t) -> pre c) w.w_cuts in
    let target =
      Float.max (share /. 2.0) (float_of_int (residual w) -. share)
    in
    let best = ref None in
    let i = ref (root_id + 1) in
    let stop = root_id + counts.(root_id) in
    while !i < stop do
      if List.mem !i cut_ids then
        (* skip the whole cut subtree: it belongs to another fragment *)
        i := !i + counts.(!i)
      else begin
        if splittable !i then begin
          let res = bytes.(!i) - cut_bytes w.w_cuts !i in
          let score = Float.abs (float_of_int res -. target) in
          match !best with
          | Some (s, _) when s <= score -> ()
          | _ -> best := Some (score, !i)
        end;
        incr i
      end
    done;
    Option.map snd !best
  in
  let continue_splitting = ref true in
  while !nfrags < machines && !continue_splitting do
    (* largest-residual fragment that still has a candidate *)
    let sorted =
      List.sort (fun a b -> compare (residual b) (residual a)) !works
    in
    let rec try_frags = function
      | [] -> continue_splitting := false
      | w :: rest when float_of_int (residual w) <= 1.15 *. share ->
          (* splitting an already share-sized fragment only adds overhead *)
          ignore w;
          try_frags rest
      | w :: rest -> (
          match best_candidate w with
          | None -> try_frags rest
          | Some cut_id ->
              let cut_node = nodes.(cut_id) in
              let moved, kept =
                List.partition
                  (fun (c : Tree.t) -> in_subtree ~root:cut_id (pre c))
                  w.w_cuts
              in
              let nw =
                {
                  w_id = !nfrags;
                  w_root = cut_node;
                  w_parent = Some w.w_id;
                  w_cuts = moved;
                }
              in
              (* fragments whose stub moved under the new fragment now hang
                 off it instead of off [w] *)
              List.iter
                (fun (c : Tree.t) ->
                  List.iter
                    (fun w' ->
                      if w'.w_root.Tree.id = c.Tree.id then
                        w'.w_parent <- Some nw.w_id)
                    !works)
                moved;
              w.w_cuts <- cut_node :: kept;
              works := nw :: !works;
              incr nfrags)
    in
    try_frags sorted
  done;
  let works = List.sort (fun a b -> compare a.w_id b.w_id) !works in
  let frags =
    Array.of_list
      (List.map
         (fun w ->
           {
             fr_id = w.w_id;
             fr_root = w.w_root;
             fr_parent = w.w_parent;
             fr_bytes = residual w;
           })
         works)
  in
  let cut_to_frag = Hashtbl.create 16 in
  let cut_lists = Array.make (Array.length frags) [] in
  List.iter
    (fun w ->
      List.iter
        (fun (c : Tree.t) ->
          let owner =
            List.find (fun w' -> w'.w_root.Tree.id = c.Tree.id) works
          in
          Hashtbl.replace cut_to_frag c.Tree.id owner.w_id;
          cut_lists.(w.w_id) <- c :: cut_lists.(w.w_id))
        w.w_cuts)
    works;
  { frags; cut_to_frag; cut_lists }

let fragments p = p.frags

(* ------------------------- wire format ------------------------- *)

(* Real linearization of a fragment for the DAG-aware transport. Both ends
   hold the (static) grammar, so nodes travel as production / symbol names
   plus terminal attribute literals; what makes the format DAG-native is
   class shipping: the first occurrence of a repeated subtree on a given
   destination is preceded by a definition marker binding its shape-class
   id, and every later occurrence shipped to the same machine is a 5-byte
   backreference to that class — each class body crosses the wire once per
   machine, not once per occurrence. An occurrence only participates when
   its id range contains no cut (a cut makes occurrences structurally
   different on this machine even when the full subtrees are equal); cut
   children travel as stubs, as in the plain format.

   [dag_bytes] is the length of this encoding — the priced and the shipped
   representation are the same bytes: the one walk writes through a sink
   that either appends to a buffer or only counts ({!wire_size}). *)

exception Malformed of string

type sink = Buf of Buffer.t | Len of int ref

let add_string k s =
  match k with Buf b -> Buffer.add_string b s | Len n -> n := !n + String.length s

let add_char k c = match k with Buf b -> Buffer.add_char b c | Len n -> incr n

let add_u16 b n =
  add_char b (Char.chr (n land 0xff));
  add_char b (Char.chr ((n lsr 8) land 0xff))

let add_u32 b n =
  add_u16 b (n land 0xffff);
  add_u16 b ((n lsr 16) land 0xffff)

let add_i64 b n =
  add_u32 b (n land 0xffffffff);
  add_u32 b ((n asr 32) land 0xffffffff)

let add_str16 b s =
  if String.length s > 0xffff then raise (Malformed "name too long");
  add_u16 b (String.length s);
  add_string b s

(* Terminal attributes are parser literals: the structured constructors
   cover them. [Tab]/[Ext] values are evaluator-made and never occur in a
   parse tree. *)
let rec enc_value b (v : Value.t) =
  match v with
  | Value.Unit -> add_char b 'u'
  | Value.Bool x ->
      add_char b 'b';
      add_char b (if x then '\001' else '\000')
  | Value.Int n ->
      add_char b 'i';
      add_i64 b n
  | Value.Str r ->
      add_char b 's';
      let s = Pag_util.Rope.to_string r in
      add_u32 b (String.length s);
      add_string b s
  | Value.List vs ->
      add_char b 'l';
      add_u32 b (List.length vs);
      List.iter (enc_value b) vs
  | Value.Pair (x, y) ->
      add_char b 'p';
      enc_value b x;
      enc_value b y
  | Value.Tab _ | Value.Ext _ ->
      invalid_arg "Split.encode: non-literal terminal attribute"

let cuts_of p frag_id = List.map (fun (c : Tree.t) -> c.Tree.id) p.cut_lists.(frag_id)

let cut_nodes p frag_id = p.cut_lists.(frag_id)

let write ?sharing p (f : fragment) b =
  let cuts = p.cut_lists.(f.fr_id) in
  (* the class of [n] when eligible for once-per-machine shipping:
     multiply occurring, at least two nodes (a keyword leaf is cheaper to
     reship than to reference — a backreference is 5 bytes, its body
     little more), and an id range containing no cut *)
  let share_class (n : Tree.t) =
    match sharing with
    | None -> None
    | Some (sh : Tree.sharing) ->
        let c = sh.Tree.sh_class.(n.Tree.id) in
        let hi = n.Tree.id + sh.Tree.sh_size.(c) in
        if
          sh.Tree.sh_occurs.(c) > 1
          && sh.Tree.sh_size.(c) >= 2
          && List.for_all
               (fun (cut : Tree.t) -> cut.Tree.id < n.Tree.id || cut.Tree.id >= hi)
               cuts
        then Some c
        else None
  in
  (* class -> already shipped to this destination *)
  let seen = Hashtbl.create 64 in
  let rec go (n : Tree.t) =
    if List.memq n cuts then begin
      add_char b 'C';
      add_u32 b n.Tree.id;
      add_str16 b n.Tree.sym
    end
    else
      let body () =
        match n.Tree.prod with
        | Some pr ->
            add_char b 'P';
            add_str16 b pr.Grammar.p_name;
            add_u16 b (Array.length n.Tree.children);
            Array.iter go n.Tree.children
        | None ->
            add_char b 'L';
            add_str16 b n.Tree.sym;
            add_u16 b (List.length n.Tree.term_attrs);
            List.iter
              (fun (a, v) ->
                add_str16 b a;
                enc_value b v)
              n.Tree.term_attrs
      in
      match share_class n with
      | Some c when Hashtbl.mem seen c ->
          add_char b 'R';
          add_u32 b c
      | Some c ->
          Hashtbl.replace seen c ();
          add_char b 'D';
          add_u32 b c;
          body ()
      | None -> body ()
  in
  go f.fr_root

let encode ?sharing p f =
  let b = Buffer.create 256 in
  write ?sharing p f (Buf b);
  Buffer.contents b

let wire_size ?sharing p f =
  let n = ref 0 in
  write ?sharing p f (Len n);
  !n

let decode g s =
  let pos = ref 0 in
  let u8 () =
    if !pos >= String.length s then raise (Malformed "truncated");
    let c = s.[!pos] in
    incr pos;
    c
  in
  let u16 () =
    let a = Char.code (u8 ()) in
    a lor (Char.code (u8 ()) lsl 8)
  in
  let u32 () =
    let a = u16 () in
    a lor (u16 () lsl 16)
  in
  let i64 () =
    let a = u32 () in
    let hi = u32 () in
    a lor (hi lsl 32)
  in
  let strn n =
    if !pos + n > String.length s then raise (Malformed "truncated string");
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  let str16 () = strn (u16 ()) in
  let rec value () =
    match u8 () with
    | 'u' -> Value.Unit
    | 'b' -> Value.Bool (u8 () <> '\000')
    | 'i' -> Value.Int (i64 ())
    | 's' -> Value.str (strn (u32 ()))
    | 'l' ->
        let k = u32 () in
        Value.List (List.init k (fun _ -> value ()))
    | 'p' ->
        let x = value () in
        let y = value () in
        Value.Pair (x, y)
    | c -> raise (Malformed (Printf.sprintf "bad value tag %C" c))
  in
  (* each production is resolved once per message *)
  let prods = Hashtbl.create 64 in
  let resolve name =
    match Hashtbl.find prods name with
    | r -> r
    | exception Not_found ->
        let r = Tree.resolve g name in
        Hashtbl.add prods name r;
        r
  in
  (* class id -> first decoded occurrence; backreferences expand to fresh
     copies (the receiver materializes a tree, not a graph) *)
  let classes : (int, Tree.t) Hashtbl.t = Hashtbl.create 16 in
  let rec copy (n : Tree.t) =
    match n.Tree.prod with
    | Some pr ->
        Tree.build (resolve pr.Grammar.p_name) (Array.map copy n.Tree.children)
    | None -> Tree.leaf g n.Tree.sym n.Tree.term_attrs
  in
  let rec node () =
    match u8 () with
    | 'D' ->
        let c = u32 () in
        let t = node () in
        Hashtbl.replace classes c t;
        t
    | 'R' -> (
        let c = u32 () in
        match Hashtbl.find_opt classes c with
        | Some t -> copy t
        | None -> raise (Malformed "backreference before definition"))
    | 'P' ->
        let name = str16 () in
        let k = u16 () in
        Tree.build (resolve name) (Array.init k (fun _ -> node ()))
    | 'L' ->
        let sym = str16 () in
        let k = u16 () in
        Tree.leaf g sym
          (List.init k (fun _ ->
               let a = str16 () in
               (a, value ())))
    | 'C' ->
        (* Childless stand-in for the cut subtree (its symbol is a
           nonterminal, so [Tree.leaf] would reject it); the stub records
           the cut node's global id for the reassembly protocol. *)
        let id = u32 () in
        let sym = str16 () in
        {
          Tree.id;
          sym;
          sym_id = Grammar.sym_id g sym;
          prod = None;
          children = [||];
          term_attrs = [ ("cut", Value.Int id) ];
        }
    | c -> raise (Malformed (Printf.sprintf "bad node tag %C" c))
  in
  let t = node () in
  if !pos <> String.length s then raise (Malformed "trailing bytes");
  t

let dag_bytes p sh f = wire_size ~sharing:sh p f

let fragment_of_cut_node p node_id = Hashtbl.find_opt p.cut_to_frag node_id

(* The fragment whose machine evaluates [node]: reachable from the
   fragment root without crossing into a cut stub (a stub is the next
   fragment's root, so the deepest enclosing fragment wins). Physical
   equality, not ids — an edit session grafts replacement nodes carrying
   ids outside the plan's original preorder range, and those are only
   findable under the fragment that physically contains them. *)
let owner_of p (node : Tree.t) =
  let rec find i =
    if i >= Array.length p.frags then None
    else begin
      let f = p.frags.(i) in
      let cuts = p.cut_lists.(f.fr_id) in
      let rec go n =
        n == node
        || Array.exists
             (fun (c : Tree.t) -> (not (List.memq c cuts)) && go c)
             n.Tree.children
      in
      if go f.fr_root then Some f.fr_id else find (i + 1)
    end
  in
  find 0

let count p = Array.length p.frags

let pp fmt p =
  let children_of id =
    Array.to_list p.frags
    |> List.filter (fun f -> f.fr_parent = Some id)
    |> List.map (fun f -> f.fr_id)
  in
  let rec go indent id =
    let f = p.frags.(id) in
    Format.fprintf fmt "%sfragment %d: %s, %d bytes (node %d)@,"
      (String.make indent ' ') id f.fr_root.Tree.sym f.fr_bytes
      f.fr_root.Tree.id;
    List.iter (go (indent + 2)) (children_of id)
  in
  Format.fprintf fmt "@[<v>";
  go 0 0;
  Format.fprintf fmt "@]"

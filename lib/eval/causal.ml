open Pag_core
open Pag_obs

(* Post-run provenance analysis: materialize the firing records of one or
   more {!Prov} rings into a causal DAG over attribute instances, then
   answer the two questions the profiler ships — "why does this attribute
   have this value" (dependency slice) and "why did the run take this
   long" (weighted critical path with rule/machine blame).

   Attribute instances are keyed globally as [node_id * stride + attr_idx]:
   node preorder ids are global across all fragment stores of a parallel
   run ({!Store.create_shared} keeps them), so records from different
   machines link up even though their slot ids are store-local. *)

let stride = 1024

let key_of node ~attr_idx = (node.Tree.id * stride) + attr_idx

(* Per-record argument capacity a ring needs so no slot argument of any of
   [g]'s rules is ever dropped: the widest dependency list (terminal deps
   are never recorded as slot args, so this over-provisions slightly).
   Floor of 8 keeps tiny grammars at the ring's default layout. *)
let arity_for g =
  Array.fold_left
    (fun m p ->
      Array.fold_left
        (fun m r -> max m (List.length r.Grammar.r_deps))
        m p.Grammar.p_rules)
    8 (Grammar.productions g)

(* One firing, with slots translated to global keys. [x_src] indexes the
   source list so values can be read back from the recording store. *)
type fir = {
  x_src : int;
  x_rid : int;
  x_pid : int;
  x_t0 : float;
  x_t1 : float;
  x_replay : bool;
  x_tslot : int;
  x_tkey : int;
  x_aslots : int array;
  x_akeys : int array;
  mutable x_preds : int array;  (** firing index per argument, -1 external *)
}

type t = {
  d_srcs : Engine.t array;
  d_fir : fir array;
  d_last : (int, int) Hashtbl.t;  (** key -> final defining firing *)
  d_dropped : int;
  d_arg_drops : int;
}

let firings d = Array.length d.d_fir

let dropped d = d.d_dropped

let arg_drops d = d.d_arg_drops

let has_key d k = Hashtbl.mem d.d_last k

let build srcs =
  let srcs_a = Array.of_list srcs in
  let engs = Array.map snd srcs_a in
  let acc = ref [] and count = ref 0 and drops = ref 0 and adrops = ref 0 in
  Array.iteri
    (fun si (p, eng) ->
      drops := !drops + Prov.dropped p;
      adrops := !adrops + Prov.arg_drops p;
      let st = Engine.store eng in
      let key_of_slot s =
        let n, ai = Store.slot_owner st s in
        key_of n ~attr_idx:ai
      in
      Prov.iter p (fun f ->
          let x =
            {
              x_src = si;
              x_rid = f.Prov.f_rid;
              x_pid = f.Prov.f_pid;
              x_t0 = f.Prov.f_t0;
              x_t1 = (if f.Prov.f_t1 >= f.Prov.f_t0 then f.Prov.f_t1
                      else f.Prov.f_t0);
              x_replay = f.Prov.f_replay;
              x_tslot = f.Prov.f_target;
              x_tkey = key_of_slot f.Prov.f_target;
              x_aslots = f.Prov.f_args;
              x_akeys = Array.map key_of_slot f.Prov.f_args;
              x_preds = [||];
            }
          in
          acc := x :: !acc;
          incr count))
    srcs_a;
  let fir =
    match !acc with
    | [] -> [||]
    | hd :: _ ->
        let a = Array.make !count hd in
        List.iteri (fun i x -> a.(!count - 1 - i) <- x) !acc;
        a
  in
  (* Chronological order: stable sort by t0, ties broken by the per-source
     record order the concatenation preserved. *)
  let idx = Array.init !count (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare fir.(a).x_t0 fir.(b).x_t0 in
      if c <> 0 then c else compare a b)
    idx;
  let fir = Array.map (fun i -> fir.(i)) idx in
  (* Defining firings per key. Refires redefine: the last index wins. *)
  let last = Hashtbl.create (max 16 !count) in
  Array.iteri (fun j x -> Hashtbl.replace last x.x_tkey j) fir;
  (* Predecessors: the chronologically latest earlier definition of each
     argument. When machine clocks tie coarsely (wall time on domains), a
     cross-machine definition can sort after its use — fall back to the
     key's (unique, in a from-scratch run) definition wherever it sorted;
     causality guarantees the fallback cannot create a real cycle, and the
     DAG walks below tolerate a fabricated one. *)
  let seen = Hashtbl.create (max 16 !count) in
  Array.iteri
    (fun j x ->
      x.x_preds <-
        Array.map
          (fun k ->
            match Hashtbl.find_opt seen k with
            | Some i -> i
            | None -> (
                match Hashtbl.find_opt last k with
                | Some i when i <> j -> i
                | _ -> -1))
          x.x_akeys;
      Hashtbl.replace seen x.x_tkey j)
    fir;
  {
    d_srcs = engs;
    d_fir = fir;
    d_last = last;
    d_dropped = !drops;
    d_arg_drops = !adrops;
  }

(* {1 Naming} *)

let instance_name g node attr_idx =
  let sym = Grammar.symbol_of_id g node.Tree.sym_id in
  Printf.sprintf "%s#%d.%s" sym.Grammar.s_name node.Tree.id
    sym.Grammar.s_attrs.(attr_idx).Grammar.a_name

let key_name st key =
  let g = Store.grammar st in
  match Store.find_node st (key / stride) with
  | Some n -> instance_name g n (key mod stride)
  | None -> Printf.sprintf "#%d.attr%d" (key / stride) (key mod stride)

let rule_label eng rid =
  let r = Engine.rule_of eng rid in
  match (Engine.node_of eng rid).Tree.prod with
  | Some p -> p.Grammar.p_name ^ ":" ^ r.Grammar.r_name
  | None -> r.Grammar.r_name

let fir_target_name d x = key_name (Engine.store d.d_srcs.(x.x_src)) x.x_tkey

let fir_label d x = rule_label d.d_srcs.(x.x_src) x.x_rid

(* {1 Dependency slice} *)

let slice d key =
  match Hashtbl.find_opt d.d_last key with
  | None -> []
  | Some start ->
      let n = Array.length d.d_fir in
      let mark = Bytes.make n '\000' in
      let out = ref [] in
      let stack = ref [ start ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | j :: rest ->
            stack := rest;
            if Bytes.get mark j = '\000' then begin
              Bytes.set mark j '\001';
              out := j :: !out;
              Array.iter
                (fun p -> if p >= 0 && Bytes.get mark p = '\000' then
                    stack := p :: !stack)
                d.d_fir.(j).x_preds
            end
      done;
      List.sort compare !out

(* Distinct instance keys the final value of [key] transitively depends
   on (including [key] itself when a firing defines it), sorted. Keys never
   defined by a recorded firing (intrinsic terminal attributes, preset root
   attributes) do not appear. *)
let slice_keys d key =
  slice d key
  |> List.map (fun j -> d.d_fir.(j).x_tkey)
  |> List.sort_uniq compare

let value_str st slot =
  if Store.slot_is_set st slot then Value.to_string (Store.peek st slot)
  else "<unset>"

let render_slice d key =
  let b = Buffer.create 1024 in
  let js = slice d key in
  (match js with
  | [] ->
      Buffer.add_string b
        (Printf.sprintf "no recorded firing defines key %d (intrinsic, \
                         preset, or evicted from the ring)\n" key)
  | _ ->
      Buffer.add_string b
        (Printf.sprintf "dependency slice: %d firing(s)\n" (List.length js));
      List.iter
        (fun j ->
          let x = d.d_fir.(j) in
          let st = Engine.store d.d_srcs.(x.x_src) in
          Buffer.add_string b
            (Printf.sprintf "  [m%d] %s%9.6f..%9.6f  %-28s  %s = %s" x.x_pid
               (if x.x_replay then "~" else " ")
               x.x_t0 x.x_t1 (fir_label d x) (fir_target_name d x)
               (value_str st x.x_tslot));
          if Array.length x.x_aslots > 0 then begin
            Buffer.add_string b "\n        <- ";
            Array.iteri
              (fun i s ->
                if i > 0 then Buffer.add_string b ", ";
                Buffer.add_string b
                  (Printf.sprintf "%s = %s" (key_name st x.x_akeys.(i))
                     (value_str st s)))
              x.x_aslots
          end;
          Buffer.add_char b '\n')
        js);
  if d.d_dropped > 0 then
    Buffer.add_string b
      (Printf.sprintf "  (ring dropped %d older records; slice may be \
                       incomplete)\n" d.d_dropped);
  Buffer.contents b

(* {1 Verification against the engine's dependency graph} *)

(* Transitive producer closure of [key] over a reference engine's
   dependency graph (keys of all rule-defined instances reached). *)
let closure_keys eng gr key =
  let st = Engine.store eng in
  match Store.find_node st (key / stride) with
  | None -> []
  | Some node ->
      let start = Store.slot_of st node ~attr_idx:(key mod stride) in
      let seen = Hashtbl.create 64 in
      let keys = ref [] in
      let stack = ref [ start ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | s :: rest ->
            stack := rest;
            if not (Hashtbl.mem seen s) then begin
              Hashtbl.add seen s ();
              let rid = Engine.producer gr s in
              if rid >= 0 && not (Engine.is_dead eng rid) then begin
                let n, ai = Store.slot_owner st s in
                keys := key_of n ~attr_idx:ai :: !keys;
                Engine.iter_slot_args eng rid (fun a ->
                    if not (Hashtbl.mem seen a) then stack := a :: !stack)
              end
            end
      done;
      List.sort_uniq compare !keys

let verify_slice d ~ref_engine ~ref_graph key =
  let got = slice_keys d key in
  let want = closure_keys ref_engine ref_graph key in
  let st = Engine.store ref_engine in
  let diff a b = List.filter (fun k -> not (List.mem k b)) a in
  ( List.map (key_name st) (diff want got),
    List.map (key_name st) (diff got want) )

(* {1 Critical path} *)

type step = {
  st_label : string;
  st_target : string;
  st_pid : int;
  st_t0 : float;
  st_t1 : float;
  st_replay : bool;
}

type chain = { ch_len : float; ch_steps : step list }

type profile = {
  pr_firings : int;
  pr_replays : int;
  pr_dropped : int;
  pr_machines : int;
  pr_makespan : float;
  pr_work : float;
  pr_critical : float;
  pr_ideal : float;
  pr_rule_blame : (string * int * float) list;
  pr_machine_blame : (int * int * float) list;
  pr_chains : chain list;
}

let dur x = x.x_t1 -. x.x_t0

(* Topological postorder over predecessor edges (iterative: chains reach
   tree depth x rule count). The rare fabricated cycle from coarse-clock
   fallback edges is broken by the on-stack mark. *)
let toposort fir =
  let n = Array.length fir in
  let mark = Bytes.make n '\000' in
  (* '\000' unvisited, '\001' on stack, '\002' done *)
  let order = Array.make n 0 in
  let pos = ref 0 in
  for root = 0 to n - 1 do
    if Bytes.get mark root = '\000' then begin
      let stack = ref [ (root, 0) ] in
      Bytes.set mark root '\001';
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (j, pi) :: rest ->
            let preds = fir.(j).x_preds in
            if pi >= Array.length preds then begin
              stack := rest;
              Bytes.set mark j '\002';
              order.(!pos) <- j;
              incr pos
            end
            else begin
              stack := (j, pi + 1) :: rest;
              let p = preds.(pi) in
              if p >= 0 && Bytes.get mark p = '\000' then begin
                Bytes.set mark p '\001';
                stack := (p, 0) :: !stack
              end
            end
      done
    end
  done;
  order

(* Longest weighted chain ending at each firing; [via] reconstructs it. *)
let critical fir =
  let n = Array.length fir in
  let cp = Array.make n 0.0 and via = Array.make n (-1) in
  let order = toposort fir in
  Array.iter
    (fun j ->
      let best = ref 0.0 and bi = ref (-1) in
      Array.iter
        (fun p ->
          if p >= 0 && cp.(p) > !best then begin
            best := cp.(p);
            bi := p
          end)
        fir.(j).x_preds;
      cp.(j) <- dur fir.(j) +. !best;
      via.(j) <- !bi)
    order;
  (cp, via)

let chain_of via endpoint =
  let rec walk j acc = if j < 0 then acc else walk via.(j) (j :: acc) in
  walk endpoint []

let step_of d j =
  let x = d.d_fir.(j) in
  {
    st_label = fir_label d x;
    st_target = fir_target_name d x;
    st_pid = x.x_pid;
    st_t0 = x.x_t0;
    st_t1 = x.x_t1;
    st_replay = x.x_replay;
  }

(* Top-K chains with disjoint firings, greediest endpoint first. *)
let top_chains fir cp via k =
  let n = Array.length fir in
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare cp.(b) cp.(a)) idx;
  let used = Bytes.make n '\000' in
  let out = ref [] and taken = ref 0 in
  Array.iter
    (fun e ->
      if !taken < k && Bytes.get used e = '\000' then begin
        let ch = chain_of via e in
        if List.for_all (fun j -> Bytes.get used j = '\000') ch then begin
          List.iter (fun j -> Bytes.set used j '\001') ch;
          out := (cp.(e), ch) :: !out;
          incr taken
        end
      end)
    idx;
  List.rev !out

let profile ?(top = 3) d =
  let fir = d.d_fir in
  let n = Array.length fir in
  if n = 0 then
    {
      pr_firings = 0;
      pr_replays = 0;
      pr_dropped = d.d_dropped;
      pr_machines = 0;
      pr_makespan = 0.0;
      pr_work = 0.0;
      pr_critical = 0.0;
      pr_ideal = 0.0;
      pr_rule_blame = [];
      pr_machine_blame = [];
      pr_chains = [];
    }
  else begin
    let t_lo = ref infinity and t_hi = ref neg_infinity in
    let work = ref 0.0 and replays = ref 0 in
    let pids = Hashtbl.create 8 in
    Array.iter
      (fun x ->
        if x.x_t0 < !t_lo then t_lo := x.x_t0;
        if x.x_t1 > !t_hi then t_hi := x.x_t1;
        work := !work +. dur x;
        if x.x_replay then incr replays;
        Hashtbl.replace pids x.x_pid ())
      fir;
    let machines = Hashtbl.length pids in
    let cp, via = critical fir in
    let chains = top_chains fir cp via (max 1 top) in
    let critical_len =
      match chains with [] -> 0.0 | (l, _) :: _ -> l
    in
    (* Blame the top chain: where did critical-path time go, by rule and
       by machine. *)
    let rtab = Hashtbl.create 32 and mtab = Hashtbl.create 8 in
    (match chains with
    | [] -> ()
    | (_, ch) :: _ ->
        List.iter
          (fun j ->
            let x = fir.(j) in
            let lbl = fir_label d x in
            let c, t =
              Option.value (Hashtbl.find_opt rtab lbl) ~default:(0, 0.0)
            in
            Hashtbl.replace rtab lbl (c + 1, t +. dur x);
            let c, t =
              Option.value (Hashtbl.find_opt mtab x.x_pid) ~default:(0, 0.0)
            in
            Hashtbl.replace mtab x.x_pid (c + 1, t +. dur x))
          ch);
    let rule_blame =
      Hashtbl.fold (fun l (c, t) acc -> (l, c, t) :: acc) rtab []
      |> List.sort (fun (l1, _, t1) (l2, _, t2) ->
             let c = compare t2 t1 in
             if c <> 0 then c else compare l1 l2)
    in
    let machine_blame =
      Hashtbl.fold (fun p (c, t) acc -> (p, c, t) :: acc) mtab []
      |> List.sort (fun (p1, _, t1) (p2, _, t2) ->
             let c = compare t2 t1 in
             if c <> 0 then c else compare p1 p2)
    in
    let makespan = !t_hi -. !t_lo in
    {
      pr_firings = n;
      pr_replays = !replays;
      pr_dropped = d.d_dropped;
      pr_machines = machines;
      pr_makespan = makespan;
      pr_work = !work;
      pr_critical = critical_len;
      pr_ideal =
        max critical_len (!work /. float_of_int (max 1 machines));
      pr_rule_blame = rule_blame;
      pr_machine_blame = machine_blame;
      pr_chains =
        List.map
          (fun (l, ch) ->
            { ch_len = l; ch_steps = List.map (step_of d) ch })
          chains;
    }
  end

let render_profile p =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "critical-path profile";
  line "  firings            %d%s" p.pr_firings
    (if p.pr_replays > 0 then Printf.sprintf " (%d replayed)" p.pr_replays
     else "");
  if p.pr_dropped > 0 then
    line "  dropped records    %d (ring overflow; figures are lower bounds)"
      p.pr_dropped;
  line "  machines           %d" p.pr_machines;
  line "  makespan           %.6f s" p.pr_makespan;
  line "  total work         %.6f s" p.pr_work;
  line "  critical path      %.6f s  (%.1f%% of makespan)" p.pr_critical
    (if p.pr_makespan > 0.0 then 100.0 *. p.pr_critical /. p.pr_makespan
     else 0.0);
  line "  ideal parallel     %.6f s  (max(critical, work/machines))"
    p.pr_ideal;
  if p.pr_rule_blame <> [] then begin
    line "  rule blame (top chain):";
    List.iter
      (fun (l, c, t) -> line "    %-38s %5d firings  %.6f s" l c t)
      p.pr_rule_blame
  end;
  if p.pr_machine_blame <> [] then begin
    line "  machine blame (top chain):";
    List.iter
      (fun (pid, c, t) -> line "    m%-37d %5d firings  %.6f s" pid c t)
      p.pr_machine_blame
  end;
  List.iteri
    (fun i ch ->
      line "  chain %d: %.6f s, %d steps" i ch.ch_len (List.length ch.ch_steps);
      let steps = ch.ch_steps in
      let shown =
        if List.length steps <= 12 then steps
        else
          let a = Array.of_list steps in
          Array.to_list (Array.sub a 0 6)
          @ [ List.nth steps (List.length steps / 2) ]
          @ Array.to_list (Array.sub a (Array.length a - 5) 5)
      in
      List.iter
        (fun s ->
          line "    [m%d] %9.6f..%9.6f  %-28s -> %s" s.st_pid s.st_t0 s.st_t1
            s.st_label s.st_target)
        shown;
      if List.length steps > List.length shown then
        line "    (… %d steps elided …)"
          (List.length steps - List.length shown))
    p.pr_chains;
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let profile_json p =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"firings\":%d,\"replays\":%d,\"dropped\":%d,\"machines\":%d,"
    p.pr_firings p.pr_replays p.pr_dropped p.pr_machines;
  add "\"makespan_s\":%.9f,\"work_s\":%.9f,\"critical_s\":%.9f,"
    p.pr_makespan p.pr_work p.pr_critical;
  add "\"ideal_s\":%.9f,\"rule_blame\":[" p.pr_ideal;
  List.iteri
    (fun i (l, c, t) ->
      add "%s{\"rule\":\"%s\",\"firings\":%d,\"time_s\":%.9f}"
        (if i > 0 then "," else "")
        (json_escape l) c t)
    p.pr_rule_blame;
  add "],\"machine_blame\":[";
  List.iteri
    (fun i (pid, c, t) ->
      add "%s{\"machine\":%d,\"firings\":%d,\"time_s\":%.9f}"
        (if i > 0 then "," else "")
        pid c t)
    p.pr_machine_blame;
  add "],\"chains\":[";
  List.iteri
    (fun i ch ->
      add "%s{\"length_s\":%.9f,\"steps\":[" (if i > 0 then "," else "") ch.ch_len;
      List.iteri
        (fun k s ->
          add "%s{\"rule\":\"%s\",\"target\":\"%s\",\"machine\":%d,\
               \"t0\":%.9f,\"t1\":%.9f,\"replay\":%b}"
            (if k > 0 then "," else "")
            (json_escape s.st_label) (json_escape s.st_target) s.st_pid
            s.st_t0 s.st_t1 s.st_replay)
        ch.ch_steps;
      add "]}")
    p.pr_chains;
  add "]}";
  Buffer.contents b

(* {1 Trace flow arrows} *)

let flows ?(top = 3) d =
  let fir = d.d_fir in
  let rc = Obs.create () in
  if Array.length fir > 0 then begin
    let cp, via = critical fir in
    let chains = top_chains fir cp via (max 1 top) in
    List.iteri
      (fun ci (_, ch) ->
        let rec arrows = function
          | a :: (b :: _ as rest) ->
              let xa = fir.(a) and xb = fir.(b) in
              Obs.flow rc ~src:xa.x_pid ~dst:xb.x_pid ~send:xa.x_t1
                ~recv:(max xb.x_t0 xa.x_t1)
                (Printf.sprintf "cp%d" ci);
              arrows rest
          | _ -> ()
        in
        arrows ch)
      chains
  end;
  rc

(* Hash-consed values: rope balance under heavy appends, value interning
   and DAG sizes, the intern-librarian wire protocol, and end-to-end
   agreement of DAG-shared ([--dag]) runs with the reference interpreter. *)

open Pag_util
open Pag_core
open Pag_parallel

let qc ?count name gen prop = Qc_seed.qc ?count name gen prop

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --------------- rope balance --------------- *)

(* Repeated one-sided concatenation is the worst case for rope depth: a
   naive implementation degenerates into a 100k-deep list. The balanced
   join must keep the tree logarithmic. *)

let test_rope_append_depth () =
  let r = ref Rope.empty in
  for i = 1 to 100_000 do
    r := Rope.concat !r (Rope.of_string (if i mod 2 = 0 then "ab" else "xyz"))
  done;
  check_int "length" 250_000 (Rope.length !r);
  let d = Rope.depth !r in
  check_bool (Printf.sprintf "append depth %d stays logarithmic" d) true (d <= 64)

let test_rope_prepend_depth () =
  let r = ref Rope.empty in
  for _ = 1 to 100_000 do
    r := Rope.concat (Rope.of_string "ab") !r
  done;
  check_int "length" 200_000 (Rope.length !r);
  let d = Rope.depth !r in
  check_bool (Printf.sprintf "prepend depth %d stays logarithmic" d) true (d <= 64);
  let s = Rope.to_string !r in
  check_bool "content intact" true
    (String.length s = 200_000 && String.for_all (fun c -> c = 'a' || c = 'b') s)

(* --------------- value interning and sizes --------------- *)

let gen_value : Value.t QCheck.Gen.t =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Value.Unit;
              map (fun b -> Value.Bool b) bool;
              map (fun i -> Value.Int i) small_signed_int;
              map
                (fun s -> Value.str s)
                (string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'd' ]) (int_bound 12));
            ]
        in
        if n <= 1 then leaf
        else
          frequency
            [
              (2, leaf);
              (2, map (fun l -> Value.List l) (list_size (int_bound 4) (self (n / 2))));
              (2, map2 (fun a b -> Value.Pair (a, b)) (self (n / 2)) (self (n / 2)));
              ( 1,
                map
                  (fun bs ->
                    (* normalized: rebuilt from the canonical binding list,
                       so a structural copy rebuilt from [to_list] inserts
                       in the same order and gets the same tree shape (the
                       arena's symtab equality is shape-preserving) *)
                    Value.Tab (Symtab.of_list (Symtab.to_list (Symtab.of_list bs))))
                  (list_size (int_bound 3)
                     (pair
                        (string_size ~gen:(oneofl [ 'x'; 'y'; 'z' ]) (int_range 1 4))
                        (self (n / 3)))) );
            ]))

let arb_value = QCheck.make ~print:Value.to_string gen_value

(* Structural deep copy sharing nothing with the original, built the same
   way (single-leaf ropes, of_list symtabs) so the arena's shape-aware
   equality must identify the two. *)
let rec copy v =
  match v with
  | Value.Unit | Value.Bool _ | Value.Int _ -> v
  | Value.Str r -> Value.str (Rope.to_string r)
  | Value.List l -> Value.List (List.map copy l)
  | Value.Pair (a, b) -> Value.Pair (copy a, copy b)
  | Value.Tab t ->
      Value.Tab
        (Symtab.of_list (List.map (fun (k, x) -> (k, copy x)) (Symtab.to_list t)))
  | Value.Ext _ -> v

let prop_intern_observational =
  qc ~count:200 "intern preserves equality and flat size" arb_value (fun v ->
      let c = Value.intern v in
      Value.equal c v && Value.byte_size c = Value.byte_size v)

let prop_intern_canonical =
  qc ~count:200 "structural copies intern to one representative" arb_value
    (fun v -> Value.intern v == Value.intern (copy v))

let prop_dag_size_bounded =
  qc ~count:200 "dag_byte_size <= byte_size" arb_value (fun v ->
      Value.dag_byte_size v <= Value.byte_size v)

let arb_chunks =
  QCheck.make
    ~print:(String.concat "|")
    QCheck.Gen.(
      list_size (int_bound 8)
        (string_size ~gen:(oneofl [ 'p'; 'q'; 'r' ]) (int_bound 10)))

let prop_byte_size_is_flattened_length =
  qc ~count:200 "byte_size of a rope value = flattened byte count" arb_chunks
    (fun chunks ->
      let r = Rope.concat_list (List.map Rope.of_string chunks) in
      let flat = String.length (String.concat "" chunks) in
      Value.byte_size (Value.of_rope r) = flat
      && Value.byte_size (Value.intern (Value.of_rope r)) = flat)

let test_dag_size_exploits_sharing () =
  (* ten copies of one 64-byte string: flat pays for all ten, the DAG
     encoding pays once plus nine backreferences *)
  let v =
    Value.List (List.init 10 (fun _ -> Value.str (String.make 64 'x')))
  in
  check_int "flat" (4 + (10 * 64)) (Value.byte_size v);
  check_int "dag" (4 + 64 + (9 * 8)) (Value.dag_byte_size v);
  (* a sharing-free value costs exactly its flat size *)
  let w = Value.List (List.init 5 (fun i -> Value.str (String.make 40 (Char.chr (97 + i))))) in
  check_int "no sharing: dag = flat" (Value.byte_size w) (Value.dag_byte_size w)

(* --------------- intern librarian wire protocol --------------- *)

module S = Netsim.Sim.Make (struct
  type msg = Message.t
end)

let env_of id =
  {
    Transport.e_id = id;
    e_delay = S.delay;
    e_send = (fun ~dst m -> S.send ~dst ~size:(Message.size m) m);
    e_recv = S.recv;
    e_recv_timeout = S.recv_timeout;
    e_time = S.time;
    e_mark = (fun _ -> ());
    e_flush = (fun () -> ());
  }

(* Ship [payloads] as Attr messages through an Intern-wrapped pair of
   peers; return the received (node, value) list plus the sender stats. *)
let ship payloads =
  let sim = S.create () in
  let got = ref [] in
  let stats = ref None in
  let n = List.length payloads in
  let _rx =
    S.spawn sim ~name:"rx" (fun () ->
        let env = Intern.env (Intern.wrap (env_of 0)) in
        for _ = 1 to n do
          match env.Transport.e_recv () with
          | Message.Attr { node; value; _ } -> got := (node, value) :: !got
          | m -> Alcotest.failf "unexpected %s" (Format.asprintf "%a" Message.pp m)
        done)
  in
  let _tx =
    S.spawn sim ~name:"tx" (fun () ->
        let t = Intern.wrap (env_of 1) in
        let env = Intern.env t in
        List.iteri
          (fun i v ->
            env.Transport.e_send ~dst:0
              (Message.Attr { node = i; attr = "v"; value = v }))
          payloads;
        stats := Some (Intern.stats t))
  in
  S.run sim;
  (List.rev !got, Option.get !stats)

let byte_identical v v' =
  Value.equal v v'
  && Value.byte_size v = Value.byte_size v'
  && String.equal (Value.to_string v) (Value.to_string v')

let test_intern_dedup_roundtrip () =
  let big i = Value.List (List.init 6 (fun j -> Value.str (String.make 8 (Char.chr (97 + ((i + j) mod 26)))))) in
  let payloads = List.init 9 (fun i -> big (i mod 3)) in
  let got, st = ship payloads in
  check_int "all delivered" 9 (List.length got);
  List.iteri
    (fun i v ->
      let node, v' = List.nth got i in
      check_int "order preserved" i node;
      check_bool "byte-identical payload" true (byte_identical v v'))
    payloads;
  check_int "three bindings" 3 st.Intern.is_binds;
  check_int "six references" 6 st.Intern.is_refs;
  check_bool "references saved bytes" true (st.Intern.is_saved_bytes > 0)

let prop_intern_roundtrip =
  (* any payload mix, each value repeated 1-3 times: everything arrives,
     in order, byte-identical — whether it travelled plain (below the
     threshold), as a binding, or as a reference *)
  let arb =
    QCheck.make
      ~print:(fun l -> Printf.sprintf "%d payloads" (List.length l))
      QCheck.Gen.(list_size (int_range 1 8) (pair gen_value (int_bound 2)))
  in
  qc ~count:25 "intern wrapper round-trips payloads byte-identically" arb
    (fun pairs ->
      let payloads =
        List.concat_map (fun (v, dups) -> List.init (dups + 1) (fun _ -> v)) pairs
      in
      let got, _ = ship payloads in
      List.length got = List.length payloads
      && List.for_all2
           (fun v (_, v') -> byte_identical v v')
           payloads got)

let test_intern_ref_before_bind () =
  (* a reference the receiver has never seen must trigger a Need_intern /
     Backfill round-trip and still deliver the plain message *)
  let v = Value.intern (Value.str (String.make 48 'k')) in
  let sim = S.create () in
  let delivered = ref None in
  let needs = ref 0 in
  let _rx =
    S.spawn sim ~name:"rx" (fun () ->
        let t = Intern.wrap (env_of 0) in
        let env = Intern.env t in
        (match env.Transport.e_recv () with
        | Message.Attr { node; attr; value } -> delivered := Some (node, attr, value)
        | _ -> ());
        needs := (Intern.stats t).Intern.is_needs)
  in
  let _tx =
    S.spawn sim ~name:"tx" (fun () ->
        let env = env_of 1 in
        env.Transport.e_send ~dst:0
          (Message.Attr_ref { src = 1; node = 9; attr = "code"; iid = 42; hash = Value.hash v });
        match env.Transport.e_recv () with
        | Message.Need_intern { src = 0; iid = 42 } ->
            env.Transport.e_send ~dst:0
              (Message.Backfill { src = 1; iid = 42; value = v })
        | m -> Alcotest.failf "expected Need_intern, got %s" (Format.asprintf "%a" Message.pp m))
  in
  S.run sim;
  (match !delivered with
  | Some (9, "code", v') -> check_bool "payload intact" true (byte_identical v v')
  | Some _ -> Alcotest.fail "wrong message decoded"
  | None -> Alcotest.fail "reference was never resolved");
  check_int "exactly one backfill round-trip" 1 !needs

let test_intern_code_frag_roundtrip () =
  let text = Rope.of_string (String.make 80 'c') in
  let sim = S.create () in
  let got = ref [] in
  let refs = ref 0 in
  let _rx =
    S.spawn sim ~name:"rx" (fun () ->
        let env = Intern.env (Intern.wrap (env_of 0)) in
        for _ = 1 to 2 do
          match env.Transport.e_recv () with
          | Message.Code_frag { id; text } -> got := (id, text) :: !got
          | _ -> ()
        done)
  in
  let _tx =
    S.spawn sim ~name:"tx" (fun () ->
        let t = Intern.wrap (env_of 1) in
        let env = Intern.env t in
        env.Transport.e_send ~dst:0 (Message.Code_frag { id = 1; text });
        env.Transport.e_send ~dst:0 (Message.Code_frag { id = 2; text });
        refs := (Intern.stats t).Intern.is_refs)
  in
  S.run sim;
  check_int "both fragments" 2 (List.length !got);
  List.iter
    (fun (_, t) ->
      check_bool "text intact" true (String.equal (Rope.to_string t) (Rope.to_string text)))
    !got;
  check_int "second transmission was a reference" 1 !refs

(* --------------- end-to-end: memoized runs = interpreter --------------- *)

(* Locate examples/primes.pas from wherever the runner was started: the
   dune deps copy it next to the test under sandboxing, and walking up
   from _build/default/test reaches the source tree otherwise. *)
let primes =
  lazy
    (let rec find dir =
       let p = Filename.concat (Filename.concat dir "examples") "primes.pas" in
       if Sys.file_exists p then p
       else
         let parent = Filename.dirname dir in
         if String.equal parent dir then
           Alcotest.fail "examples/primes.pas not found"
         else find parent
     in
     In_channel.with_open_text (find (Sys.getcwd ())) In_channel.input_all)

let interp_out prog =
  match Pascal.Interp.run prog with
  | Ok s -> s
  | Error _ -> Alcotest.fail "interpreter failed"

let vax_out c =
  match Pascal.Driver.run_compiled ~input:[] c with
  | Ok s -> s
  | Error e -> Alcotest.failf "compiled program failed: %s" e

let test_primes_memoized_agrees () =
  let prog = Pascal.Parser.parse_program (Lazy.force primes) in
  let reference = interp_out prog in
  let plain = Pascal.Driver.compile ~evaluator:`Static prog in
  let st = Pascal.Driver.compile ~dag:true ~evaluator:`Static prog in
  let dy = Pascal.Driver.compile ~dag:true ~evaluator:`Dynamic prog in
  Alcotest.(check string) "memoized asm = plain asm" plain.Pascal.Driver.c_asm st.Pascal.Driver.c_asm;
  Alcotest.(check string) "static memoized = interpreter" reference (vax_out st);
  Alcotest.(check string) "dynamic memoized = interpreter" reference (vax_out dy)

let test_primes_parallel_dag () =
  let prog = Pascal.Parser.parse_program (Lazy.force primes) in
  let o =
    {
      Runner.default_options with
      Runner.machines = 3;
      use_librarian = true;
      phase_label = Pascal.Driver.phase_label;
    }
  in
  let r_plain, plain = Pascal.Driver.compile_parallel_sim o prog in
  let r_memo, memo =
    Pascal.Driver.compile_parallel_sim { o with Runner.use_dag = true } prog
  in
  Alcotest.(check string)
    "parallel memoized asm = parallel plain asm"
    plain.Pascal.Driver.c_asm memo.Pascal.Driver.c_asm;
  Alcotest.(check string)
    "parallel memoized output = interpreter" (interp_out prog) (vax_out memo);
  check_bool "interning does not inflate wire bytes" true
    (r_memo.Runner.r_bytes <= r_plain.Runner.r_bytes)

(* --------------- faults + dag combined --------------- *)

let test_faults_with_dag () =
  (* drop / duplicate / reorder with the intern librarian active: the
     reliable layer plus Need/Backfill must hide every fault, and the
     compiled code must match a clean memoized run bit for bit *)
  let prog = Pascal.Progen.repetitive ~routines:3 ~reps:30 () in
  let o =
    {
      Runner.default_options with
      Runner.machines = 3;
      use_librarian = true;
      use_dag = true;
      phase_label = Pascal.Driver.phase_label;
    }
  in
  let spec =
    {
      Netsim.Faults.none with
      Netsim.Faults.fs_drop = 0.08;
      fs_dup = 0.05;
      fs_reorder = 0.08;
      fs_seed = 11;
    }
  in
  let _, clean = Pascal.Driver.compile_parallel_sim o prog in
  let r, faulty =
    Pascal.Driver.compile_parallel_sim { o with Runner.faults = Some spec } prog
  in
  check_bool "no local recovery" true (not r.Runner.r_recovered);
  Alcotest.(check string)
    "faulty memoized code = clean memoized code"
    clean.Pascal.Driver.c_asm faulty.Pascal.Driver.c_asm;
  Alcotest.(check string)
    "faulty memoized output = interpreter" (interp_out prog) (vax_out faulty)

let prop_dag_chaos =
  let arb =
    QCheck.make
      ~print:(fun (d, s) -> Printf.sprintf "drop=%.2f seed=%d" d s)
      QCheck.Gen.(
        float_bound_inclusive 0.10 >>= fun d ->
        int_bound 10_000 >>= fun s -> return (d, s))
  in
  qc ~count:6 "memoized chaos run = clean memoized run" arb (fun (drop, seed) ->
      let prog = Pascal.Progen.repetitive ~routines:2 ~reps:20 () in
      let o =
        {
          Runner.default_options with
          Runner.machines = 3;
          use_librarian = true;
          use_dag = true;
          phase_label = Pascal.Driver.phase_label;
        }
      in
      let spec =
        {
          Netsim.Faults.none with
          Netsim.Faults.fs_drop = drop;
          fs_dup = drop /. 2.0;
          fs_reorder = drop;
          fs_seed = seed;
        }
      in
      let _, clean = Pascal.Driver.compile_parallel_sim o prog in
      let r, faulty =
        Pascal.Driver.compile_parallel_sim { o with Runner.faults = Some spec } prog
      in
      (not r.Runner.r_recovered)
      && String.equal clean.Pascal.Driver.c_asm faulty.Pascal.Driver.c_asm)

(* --------------- where Intern runs --------------- *)

(* [use_dag] layers the Intern wire layer over the simulator's env only: a
   simulated run binds and references repeated boundary payloads and ships
   fewer bytes than the plain run, while the domains transport, which has
   no wire, registers no intern counter at all. *)
let test_intern_only_on_sim_wire () =
  let prog = Pascal.Progen.repetitive ~routines:2 ~reps:8 () in
  let o =
    {
      Runner.default_options with
      Runner.machines = 3;
      telemetry = true;
      phase_label = Pascal.Driver.phase_label;
    }
  in
  let metrics (r : Runner.result) =
    r.Runner.r_report.Pag_obs.Obs.Report.rp_metrics
  in
  let r_plain, _ = Pascal.Driver.compile_parallel_sim o prog in
  let r_dag, _ =
    Pascal.Driver.compile_parallel_sim { o with Runner.use_dag = true } prog
  in
  let count name = Pag_obs.Obs.Metrics.counter_value (metrics r_dag) name in
  check_bool "sim: intern.binds > 0" true (count "intern.binds" > 0);
  check_bool "sim: intern.refs > 0" true (count "intern.refs" > 0);
  check_bool "sim: fewer bytes than without dag" true
    (r_dag.Runner.r_bytes < r_plain.Runner.r_bytes);
  let r_dom, _ =
    Pascal.Driver.compile_parallel_domains
      { o with Runner.machines = 2; use_dag = true }
      prog
  in
  check_int "domains: no intern.* counter" 0
    (List.length
       (List.filter
          (fun (name, _) -> String.starts_with ~prefix:"intern." name)
          (Pag_obs.Obs.Metrics.rows (metrics r_dom))))

(* --------------- fragment wire format --------------- *)

(* The priced representation IS the shipped representation: dag_bytes must
   be the length of the encoding, the shared encoding must never exceed
   the plain one, decode must rebuild the fragment's shape (cut children
   as stubs), and Message.size must charge exactly header + those bytes. *)

let decoded_matches plan (orig : Tree.t) (dec : Tree.t) =
  let pv v = Format.asprintf "%a" Value.pp v in
  let rec go ~root (a : Tree.t) (b : Tree.t) =
    String.equal a.Tree.sym b.Tree.sym
    &&
    if (not root) && Split.fragment_of_cut_node plan a.Tree.id <> None then
      (* cut child: ships as a childless stub of the cut symbol *)
      Array.length b.Tree.children = 0
    else
      (match (a.Tree.prod, b.Tree.prod) with
      | Some pa, Some pb -> String.equal pa.Grammar.p_name pb.Grammar.p_name
      | None, None ->
          List.length a.Tree.term_attrs = List.length b.Tree.term_attrs
          && List.for_all
               (fun (n, v) ->
                 match List.assoc_opt n b.Tree.term_attrs with
                 | Some w -> String.equal (pv v) (pv w)
                 | None -> false)
               a.Tree.term_attrs
      | _ -> false)
      && Array.length a.Tree.children = Array.length b.Tree.children
      && Array.for_all2 (go ~root:false) a.Tree.children b.Tree.children
  in
  go ~root:true orig dec

let test_fragment_wire_roundtrip () =
  let g = Pascal.Pascal_ag.grammar in
  let prog = Pascal.Parser.parse_program (Lazy.force primes) in
  let tree = Pascal.Pascal_ag.tree_of_program g prog in
  ignore (Tree.number tree);
  let plan = Split.decompose g tree ~machines:4 ~granularity:1.0 in
  let sh = Tree.sharing tree in
  Array.iter
    (fun (f : Split.fragment) ->
      let plain = Split.encode plan f in
      let shared = Split.encode ~sharing:sh plan f in
      check_int
        (Printf.sprintf "fragment %d: priced = shipped" f.Split.fr_id)
        (String.length shared)
        (Split.dag_bytes plan sh f);
      check_bool
        (Printf.sprintf "fragment %d: sharing never inflates" f.Split.fr_id)
        true
        (String.length shared <= String.length plain);
      check_bool
        (Printf.sprintf "fragment %d: plain decode matches" f.Split.fr_id)
        true
        (decoded_matches plan f.Split.fr_root (Split.decode g plain));
      check_bool
        (Printf.sprintf "fragment %d: shared decode matches" f.Split.fr_id)
        true
        (decoded_matches plan f.Split.fr_root (Split.decode g shared));
      let bytes = String.length shared in
      let msg = Message.Subtree { frag = f.Split.fr_id; bytes; uid_base = 0 } in
      check_int
        (Printf.sprintf "fragment %d: Message.size = header + wire"
           f.Split.fr_id)
        (Message.header_bytes + bytes) (Message.size msg))
    (Split.fragments plan)

(* --------------- one arena across domains, bounded in memory --------------- *)

(* The [i]-th value of a family that reaches all three arenas: pairs and
   lists of values, rope strings and symbol tables. Each call builds a
   fresh copy. *)
let family i =
  let s = Value.str (Printf.sprintf "s%d" (i mod 997)) in
  let l = Value.List [ Value.Pair (Value.Int i, s); Value.Int (i mod 13); Value.str (string_of_int i) ] in
  Value.Pair
    (l, Value.Tab (Symtab.of_list [ ("a", Value.Int i); ("b" ^ string_of_int (i mod 7), l) ]))

(* Two domains intern their own copies of the same values at once: every
   value must get one representative, so the pairs are [==] and hash
   alike. *)
let test_one_representative_across_domains () =
  for round = 1 to 3 do
    let outs =
      Placement.run 2 (fun _ ->
          Array.init 5_000 (fun i ->
              let v = Value.intern (family ((round * 1_000_000) + i)) in
              (v, Value.hash v)))
    in
    let split = ref 0 in
    Array.iteri
      (fun i (v, h) ->
        let v', h' = outs.(1).(i) in
        if not (v == v' && h = h') then incr split)
      outs.(0);
    check_int (Printf.sprintf "round %d: pairs with two representatives" round) 0 !split
  done

(* The static protocol under [--dag] interns memo keys from both
   fragments' domains; repeated, every compile must still be the
   sequential one. *)
let test_dag_domains_compile_repeated () =
  let prog = Pascal.Progen.repetitive ~routines:2 ~reps:8 () in
  let reference =
    Pascal.Driver.mask_labels
      (Pascal.Driver.compile ~evaluator:`Static prog).Pascal.Driver.c_asm
  in
  let o =
    {
      Runner.default_options with
      Runner.machines = 2;
      use_dag = true;
      phase_label = Pascal.Driver.phase_label;
    }
  in
  for run = 1 to 10 do
    let _, c = Pascal.Driver.compile_parallel_domains o prog in
    Alcotest.(check string)
      (Printf.sprintf "run %d: 2-domain --dag compile = sequential" run)
      reference
      (Pascal.Driver.mask_labels c.Pascal.Driver.c_asm)
  done

(* A value that shares its halves, 64 levels deep: a tree walk would take
   2^64 steps. Interned level by level, it is canonical, and a domain whose
   cache has never seen it finds it in the arena at once; built without
   interning, the cache catches each level's second half. *)
let test_dag_values_intern_in_linear_time () =
  let rec nest k x = if k = 0 then x else nest (k - 1) (Value.Pair (x, x)) in
  let rec nest_interned k x =
    if k = 0 then x else nest_interned (k - 1) (Value.intern (Value.Pair (x, x)))
  in
  let x = nest_interned 64 (Value.intern (Value.Int 1)) in
  (* two 4-byte ints, then each level adds one 8-byte backreference *)
  let expect_dag = 16 + (8 * 62) in
  let same, h, dag =
    (Placement.run 2 (fun _ ->
         (Value.intern x == x, Value.hash x, Value.dag_byte_size x))).(1)
  in
  check_bool "canonical: intern is the identity" true same;
  check_int "hash agrees across domains" (Value.hash x) h;
  check_int "dag size" expect_dag dag;
  let y = nest 64 (Value.Int 1) in
  check_bool "a fresh copy interns to the same value" true (Value.intern y == x);
  check_int "and hashes alike" (Value.hash x) (Value.hash y)

let suite =
  [
    ( "hashcons",
      [
        Alcotest.test_case "rope append depth" `Quick test_rope_append_depth;
        Alcotest.test_case "rope prepend depth" `Quick test_rope_prepend_depth;
        prop_intern_observational;
        prop_intern_canonical;
        prop_dag_size_bounded;
        prop_byte_size_is_flattened_length;
        Alcotest.test_case "dag size exploits sharing" `Quick
          test_dag_size_exploits_sharing;
        Alcotest.test_case "intern dedup round-trip" `Quick
          test_intern_dedup_roundtrip;
        prop_intern_roundtrip;
        Alcotest.test_case "ref before bind" `Quick test_intern_ref_before_bind;
        Alcotest.test_case "code fragment round-trip" `Quick
          test_intern_code_frag_roundtrip;
        Alcotest.test_case "primes.pas memoized = interpreter" `Quick
          test_primes_memoized_agrees;
        Alcotest.test_case "primes.pas parallel memoized" `Quick
          test_primes_parallel_dag;
        Alcotest.test_case "faults + dag" `Quick test_faults_with_dag;
        Alcotest.test_case "intern runs on the simulator's wire only" `Quick
          test_intern_only_on_sim_wire;
        Alcotest.test_case "fragment wire: priced = shipped, decode agrees"
          `Quick test_fragment_wire_roundtrip;
        prop_dag_chaos;
        Alcotest.test_case "one representative across domains" `Quick
          test_one_representative_across_domains;
        Alcotest.test_case "2-domain --dag compile, repeated" `Quick
          test_dag_domains_compile_repeated;
        Alcotest.test_case "DAG-shaped values intern in linear time" `Quick
          test_dag_values_intern_in_linear_time;
      ] );
  ]

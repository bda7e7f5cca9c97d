(* Parallel compilation of a paper-sized Pascal program — the experiment
   behind figures 5, 6 and 7. Compiles the generated workload on one to six
   simulated machines with both evaluators, prints the running-time series,
   the decomposition, and the Gantt chart of the 5-machine combined run.

   Run with: dune exec examples/parallel_compile.exe [-- --small] *)

open Pascal
open Pag_parallel

let () =
  let small = Array.exists (fun a -> a = "--small") Sys.argv in
  let program =
    if small then fst (Progen.gen (Random.State.make [| 7 |]) Progen.medium)
    else Progen.paper_program ()
  in
  Printf.printf "workload: %d source lines\n%!" (Pp.line_count program);
  let opts schedule machines =
    {
      Runner.default_options with
      Runner.machines;
      schedule;
      phase_label = Driver.phase_label;
    }
  in
  Printf.printf "\n%-10s %-22s %-22s\n" "machines" "combined (sim s)" "dynamic (sim s)";
  let seq = ref 1.0 in
  for m = 1 to 6 do
    let rc, cc = Driver.compile_parallel_sim (opts `Static m) program in
    let rd, _ = Driver.compile_parallel_sim (opts `Dynamic m) program in
    if m = 1 then seq := rc.Runner.r_time;
    assert (cc.Driver.c_errors = []);
    Printf.printf "%-10d %8.2f  (x%4.2f)      %8.2f\n%!" m rc.Runner.r_time
      (!seq /. rc.Runner.r_time) rd.Runner.r_time
  done;
  (* decomposition and behaviour at five machines *)
  let r5, _ = Driver.compile_parallel_sim (opts `Static 5) program in
  Printf.printf "\nsource program decomposition (figure 7):\n%s\n"
    (Format.asprintf "%a" Split.pp r5.Runner.r_split);
  Printf.printf "behaviour of the combined evaluator (figure 6):\n%!";
  (match r5.Runner.r_trace with
  | Some tr ->
      print_string
        (Netsim.Gantt.render ~width:90 ~max_arrows:14
           ~names:(Runner.machine_name ~fragments:r5.Runner.r_fragments)
           tr)
  | None -> ());
  Printf.printf
    "\ndynamically evaluated attributes in the 5-machine run: %.2f%%\n"
    (100.0 *. r5.Runner.r_dynamic_fraction)

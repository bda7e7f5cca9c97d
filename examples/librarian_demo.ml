(* The string-librarian optimization (paper, section 4.3): result
   propagation with and without the librarian process.

   Without it, each evaluator ships its ever-growing code attribute to its
   ancestor: the code crosses the network as many times as the process tree
   is deep, strictly sequentially. With it, each evaluator sends its text to
   the librarian exactly once and passes only a small descriptor upward.

   Run with: dune exec examples/librarian_demo.exe *)

open Pascal
open Pag_parallel
open Pag_obs

let () =
  let program = Progen.paper_program () in
  let opts librarian =
    {
      Runner.default_options with
      Runner.machines = 5;
      use_librarian = librarian;
      phase_label = Driver.phase_label;
    }
  in
  let with_lib, c = Driver.compile_parallel_sim (opts true) program in
  let without, _ = Driver.compile_parallel_sim (opts false) program in
  Printf.printf "generated code: %d bytes of assembly\n\n"
    (String.length c.Driver.c_asm);
  let show name (r : Runner.result) =
    Printf.printf "%-24s %8.3fs simulated   %4d messages   %8d KB on the wire\n"
      name r.Runner.r_time r.Runner.r_messages (r.Runner.r_bytes / 1024)
  in
  show "with string librarian:" with_lib;
  show "naive propagation:" without;
  Printf.printf "\nimprovement: %.2fs (%.1f%%)\n"
    (without.Runner.r_time -. with_lib.Runner.r_time)
    (100.0
    *. (without.Runner.r_time -. with_lib.Runner.r_time)
    /. without.Runner.r_time);
  (* where the bytes go: the final code messages *)
  (match with_lib.Runner.r_trace with
  | Some log ->
      let code_msgs = ref 0 in
      Obs.iter log (fun e ->
          if
            e.Obs.e_kind = Obs.Flow
            && (e.Obs.e_name = "code fragment" || e.Obs.e_name = "final code")
          then incr code_msgs);
      Printf.printf
        "\nwith the librarian, each evaluator's code text crossed the network \
         once\n(%d code transmissions), descriptors travelled up the tree instead.\n"
        !code_msgs
  | None -> ())

let () =
  Alcotest.run "pag"
    (Test_rope.suite @ Test_symtab.suite @ Test_digraph.suite
   @ Test_pqueue.suite @ Test_value.suite @ Test_grammar.suite
   @ Test_tree.suite @ Test_kastens.suite @ Test_eval.suite @ Test_netsim.suite @ Test_split.suite @ Test_parallel.suite @ Test_vax.suite @ Test_pascal.suite @ Test_pascal_parallel.suite @ Test_lrgen.suite @ Test_agspec.suite @ Test_codestr.suite @ Test_uid.suite @ Test_encode.suite @ Test_pascal_edge.suite @ Test_protocol.suite @ Test_random_ag.suite
   @ Test_store.suite @ Test_faults.suite @ Test_obs.suite
   @ Test_hashcons.suite @ Test_incr.suite @ Test_session.suite
   @ Test_steal.suite @ Test_service.suite @ Test_causal.suite
   @ Test_dag.suite @ Test_pin.suite @ Test_gates.suite)

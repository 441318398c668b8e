let () =
  Alcotest.run "repro"
    [
      ("sim", Test_sim.suite);
      ("obs", Test_obs.suite);
      ("exec", Test_exec.suite);
      ("graph", Test_graph.suite);
      ("net", Test_net.suite);
      ("detector", Test_detector.suite);
      ("dining", Test_dining.suite);
      ("lemmas", Test_lemmas.suite);
      ("baselines", Test_baselines.suite);
      ("monitor", Test_monitor.suite);
      ("stats", Test_stats.suite);
      ("stabilize", Test_stabilize.suite);
      ("harness", Test_harness.suite);
      ("mcheck", Test_mcheck.suite);
      ("lint", Test_lint.suite);
      ("fuzz", Test_fuzz.suite);
      ("soak", Test_soak.suite);
      (* Every test that runs one world's or one search's work on several
         domains; CI runs this suite under ThreadSanitizer. *)
      ( "parallel",
        Test_sim.parallel @ Test_net.parallel @ Test_harness.parallel @ Test_mcheck.parallel );
    ]

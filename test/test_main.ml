let () =
  Alcotest.run "ldlp"
    [
      ("sim", Test_sim.suite);
      ("par", Test_par.suite);
      ("cache", Test_cache.suite);
      ("buf", Test_buf.suite);
      ("packet", Test_packet.suite);
      ("traffic", Test_traffic.suite);
      ("trace", Test_trace.suite);
      ("core", Test_core.suite);
      ("rqueue", Test_rqueue.suite);
      ("msgpool", Test_msgpool.suite);
      ("engine", Test_engine.suite);
      ("graphsched", Test_engine_graph.suite);
      ("nic", Test_nic.suite);
      ("flowtable", Test_flowtable.suite);
      ("tcpmini", Test_tcpmini.suite);
      ("sigproto", Test_sigproto.suite);
      ("uni", Test_uni.suite);
      ("dnslite", Test_dnslite.suite);
      ("model", Test_model.suite);
      ("netsim", Test_netsim.suite);
      ("fault", Test_fault.suite);
      ("soak", Test_soak.suite);
      ("obs", Test_obs.suite);
      ("report", Test_report.suite);
      ("integration", Test_integration.suite);
      ("check", Test_check.suite);
      ("mesh", Test_mesh.suite);
    ]

(* The full test suite: one Alcotest section per library layer, from the
   generic containers up to the end-to-end reproduction of the paper's
   execution traces. *)

let () =
  Alcotest.run "pm2-isomalloc"
    [
      ("util.vec", Test_vec.tests);
      ("util.bitset", Test_bitset.tests);
      ("util.dlist", Test_dlist.tests);
      ("util.prng+stats", Test_prng_stats.tests);
      ("vmem", Test_vmem.tests);
      ("sim", Test_sim.tests);
      ("net", Test_net.tests);
      ("fault", Test_fault.tests);
      ("heap", Test_heap.tests);
      ("heap.placement", Test_placement.tests);
      ("mvm", Test_mvm.tests);
      ("core.slots", Test_slots.tests);
      ("core.iso_heap", Test_iso_heap.tests);
      ("core.negotiation", Test_negotiation.tests);
      ("core.migration", Test_migration.tests);
      ("core.cluster", Test_cluster.tests);
      ("core.group", Test_group.tests);
      ("core.delta", Test_delta.tests);
      ("core.recover", Test_recover.tests);
      ("obs", Test_obs.tests);
      ("obs.trace", Test_trace.tests);
      ("core.extensions", Test_extensions.tests);
      ("sync+hpf", Test_sync_hpf.tests);
      ("loadbal", Test_balancer.tests);
      ("svc", Test_svc.tests);
      ("stress", Test_stress.tests);
    ]

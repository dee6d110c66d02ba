(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 5) plus the ablations indexed in DESIGN.md.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- <ids>   -- run selected experiments

   `--json PATH` additionally writes the machine-readable perf trajectory
   (schema "pm2-bench/1": virtual-time stats and host wall-clock numbers
   per experiment) to PATH — the BENCH_results.json that future PRs diff
   against.

   Experiment ids: e-figs f11-small f11-large t-migration
   t-migration-payload t-host-hop t-migration-batch t-migration-delta t-mvm
   t-trace-overhead t-negotiation t-crash-sweep t-balancer-scale
   a-distribution a-packing a-slotcache a-pointers a-slotsize
   bechamel perf-smoke *)

let experiments =
  [
    ("e-figs", "Figs. 1-4, 7-9: the paper's example programs", Efigs.all);
    ("f11-small", "Fig. 11 top: malloc vs isomalloc, 0-500 KB", Fig11.small);
    ("f11-large", "Fig. 11 bottom: malloc vs isomalloc, 1-8 MB", Fig11.large);
    ("t-migration", "sec. 5: null-thread migration < 75 us", Migration_bench.null_thread);
    ( "t-migration-payload",
      "migration latency vs isomalloc'd payload",
      Migration_bench.payload_sweep );
    ( "t-host-hop",
      "direct hop on the host: page ownership vs the buffered image",
      Migration_bench.host_hop );
    ( "t-migration-batch",
      "group migration: one v2 train vs n sequential v1 images",
      Migration_batch.run );
    ( "t-migration-delta",
      "delta migration: residual cache + v3 codec on repeated hops",
      Migration_delta.run );
    ( "t-negotiation",
      "sec. 5: negotiation 255 us + 165 us per extra node",
      Negotiation_bench.scaling );
    ("a-distribution", "ablation: initial slot distribution", Ablations.distribution);
    ("a-packing", "ablation: blocks-only vs full-slot packing", Ablations.packing);
    ("a-slotcache", "ablation: the slot cache", Ablations.slot_cache);
    ("a-pointers", "ablation: registered pointers vs iso-address", Ablations.registered_pointers);
    ("a-slotsize", "ablation: slot size", Ablations.slot_size);
    ("a-fit", "ablation: first-fit vs best-fit placement", Ablations.fit_strategy);
    ("a-prebuy", "ablation: pre-buying slots in negotiations", Ablations.prebuy);
    ("a-restructure", "ablation: global slot restructuring", Ablations.restructure);
    ("hpf", "motivating application: VP load balancing", Hpf_bench.run);
    ( "t-mvm",
      "MVM engines: host ns/instruction, step vs blocks",
      Mvm_bench.run );
    ( "t-trace-overhead",
      "causal tracing: off byte-identical, on < 5% host, heat-driven placement",
      Trace_overhead.run );
    ("fault-sweep", "robustness: seeded fault sweep over pingpong", Fault_sweep.run);
    ( "t-crash-sweep",
      "crash recovery: checkpointed failover, mid-flight crash, double crash, degradation",
      Crash_sweep.run );
    ( "t-balancer-scale",
      "balancer rounds: host ns and minor words per event vs workers and nodes",
      Balancer_scale.run );
    ("bechamel", "host wall-clock microbenchmarks", Bechamel_suite.run_suite);
    ("perf-smoke", "trimmed bechamel suite (the @perf-smoke alias)", Bechamel_suite.run_smoke);
  ]

let () =
  let rec parse ids json = function
    | "--json" :: path :: rest -> parse ids (Some path) rest
    | [ "--json" ] ->
      prerr_endline "--json requires a PATH argument";
      exit 2
    | id :: rest -> parse (id :: ids) json rest
    | [] -> (List.rev ids, json)
  in
  let ids, json_path = parse [] None (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match ids with
    | [] ->
      (* Everything except the smoke alias for the default full run. *)
      List.filter_map
        (fun (id, _, _) -> if id = "perf-smoke" then None else Some id)
        experiments
    | ids -> ids
  in
  print_endline "PM2 isomalloc reproduction - benchmark suite";
  print_endline "(virtual times model the paper's testbed: 200 MHz PentiumPro,";
  print_endline " Linux 2.0.36, Myrinet/BIP; see DESIGN.md for the cost model)";
  List.iter
    (fun id ->
       match List.find_opt (fun (id', _, _) -> id = id') experiments with
       | Some (_, _, f) ->
         let t0 = Unix.gettimeofday () in
         f ();
         Report.record ~suite:"experiment" ~name:id
           [ ("wall_s", Unix.gettimeofday () -. t0) ]
       | None ->
         Printf.eprintf "unknown experiment %S; available:\n" id;
         List.iter (fun (id, doc, _) -> Printf.eprintf "  %-22s %s\n" id doc) experiments;
         exit 2)
    requested;
  match json_path with
  | None -> ()
  | Some path ->
    Report.write path;
    Printf.printf "\nwrote %s (%d entries, schema pm2-bench/1)\n" path (Report.count ())

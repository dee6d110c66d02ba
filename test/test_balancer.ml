module Cluster = Pm2_core.Cluster
module Pm2 = Pm2_core.Pm2
module Balancer = Pm2_loadbal.Balancer
module Thread = Pm2_core.Thread

let program = Pm2_programs.Figures.image ()

let run_workers ~nodes ~workers ~policy =
  let config = Cluster.default_config ~nodes in
  let cluster = Pm2.launch ~config program ~spawns:[ (0, "spawner", workers) ] in
  let balancer = Option.map (fun p -> Balancer.attach cluster ~policy:p ~period:400.) policy in
  let makespan = Cluster.run cluster in
  Cluster.check_invariants cluster;
  (makespan, cluster, balancer)

let test_balancing_speeds_up () =
  let baseline, _, _ = run_workers ~nodes:4 ~workers:16 ~policy:None in
  let balanced, cluster, _ =
    run_workers ~nodes:4 ~workers:16 ~policy:(Some Balancer.Least_loaded)
  in
  Alcotest.(check bool)
    (Printf.sprintf "balanced %.0f < baseline %.0f" balanced baseline)
    true
    (balanced < baseline *. 0.7);
  Alcotest.(check bool) "migrations happened" true
    (List.length (Cluster.migrations cluster) > 0);
  Alcotest.(check int) "all work completed" 0 (Cluster.live_threads cluster)

let test_threshold_policy () =
  let makespan, cluster, balancer =
    run_workers ~nodes:4 ~workers:16 ~policy:(Some (Balancer.Threshold { high = 2; low = 16 }))
  in
  let stats = Balancer.stats (Option.get balancer) in
  Alcotest.(check bool) "made decisions" true (stats.Balancer.decisions > 0);
  Alcotest.(check bool) "requested migrations" true
    (stats.Balancer.migrations_requested > 0);
  Alcotest.(check bool) "finished" true (makespan > 0.);
  Alcotest.(check int) "no stragglers" 0 (Cluster.live_threads cluster)

let test_no_balancing_on_single_node () =
  (* With one usable node (all threads already there), policies must not
     thrash: imbalance 0 means no decisions. *)
  let config = Cluster.default_config ~nodes:2 in
  let cluster = Pm2.launch ~config program ~spawns:[ (0, "worker", 2_000) ] in
  let b = Balancer.attach cluster ~policy:Balancer.Least_loaded ~period:100. in
  ignore (Cluster.run cluster);
  Alcotest.(check int) "a single thread is never moved" 0
    (Balancer.stats b).Balancer.migrations_requested

let test_imbalance_metric () =
  let config = Cluster.default_config ~nodes:3 in
  let cluster = Pm2.launch ~config program ~spawns:[ (0, "spawner", 9) ] in
  (* Before running, only the spawner is queued: imbalance 1. *)
  Alcotest.(check int) "initial imbalance" 1 (Balancer.imbalance cluster);
  ignore (Cluster.run cluster);
  Alcotest.(check int) "final imbalance" 0 (Balancer.imbalance cluster)

let test_policy_names () =
  (* One printer: the grammar the CLI, the daemon and the protocol parse,
     and every policy reads back as itself. *)
  List.iter
    (fun (policy, name) ->
      Alcotest.(check string) name name (Balancer.Policy.to_string policy);
      Alcotest.(check bool) (name ^ " parses back") true
        (Balancer.Policy.of_string (Balancer.Policy.to_string policy) = Ok policy))
    Balancer.
      [
        (Least_loaded, "least-loaded");
        (Round_robin_spread, "spread");
        (Cache_affinity, "cache-affinity");
        (Threshold { high = 2; low = 4 }, "threshold:2:4");
        (Group_threshold { high = 2; low = 8; limit = 4 }, "group-threshold:2:8:4");
        (Access_imbalance { ratio = 1.5; min_pages = 3 }, "access-imbalance:1.5:3");
      ]

let test_balancer_stops_with_cluster () =
  (* The balancer must not keep the engine alive forever once every thread
     has exited (Cluster.run returns). *)
  let _, cluster, _ = run_workers ~nodes:2 ~workers:4 ~policy:(Some Balancer.Least_loaded) in
  Alcotest.(check int) "engine quiesced" 0 (Cluster.live_threads cluster)

let test_node_index_matches_table () =
  (* The per-node index the balancer walks agrees with a scan of the
     whole thread table while threads spawn, migrate and exit. *)
  let nodes = 4 in
  let config = Cluster.default_config ~nodes in
  let cluster = Pm2.launch ~config program ~spawns:[ (0, "spawner", 24) ] in
  ignore (Balancer.attach cluster ~policy:(Balancer.Threshold { high = 2; low = 8 }) ~period:400.);
  let engine = Cluster.engine cluster in
  let ids = List.map (fun (th : Thread.t) -> th.Thread.id) in
  let probes = ref 0 in
  let rec probe () =
    let live = List.filter (fun th -> not (Thread.is_exited th)) (Cluster.threads cluster) in
    Alcotest.(check int) "live counter" (List.length live) (Cluster.live_threads cluster);
    for n = 0 to nodes - 1 do
      Alcotest.(check (list int))
        (Printf.sprintf "node %d index" n)
        (ids (List.filter (fun (th : Thread.t) -> th.Thread.node = n) live))
        (ids (List.of_seq (Cluster.node_threads cluster n)))
    done;
    incr probes;
    if live <> [] then Pm2_sim.Engine.schedule_after engine ~delay:97. probe
  in
  Pm2_sim.Engine.schedule_after engine ~delay:97. probe;
  ignore (Cluster.run cluster);
  Alcotest.(check bool) "probed while running" true (!probes > 10);
  Alcotest.(check bool) "threads migrated" true (Cluster.migrations cluster <> []);
  Cluster.check_invariants cluster

let tests =
  [
    Alcotest.test_case "node index matches the table" `Quick test_node_index_matches_table;
    Alcotest.test_case "balancing speeds up the makespan" `Quick test_balancing_speeds_up;
    Alcotest.test_case "threshold policy" `Quick test_threshold_policy;
    Alcotest.test_case "single thread never moved" `Quick test_no_balancing_on_single_node;
    Alcotest.test_case "imbalance metric" `Quick test_imbalance_metric;
    Alcotest.test_case "policy names" `Quick test_policy_names;
    Alcotest.test_case "balancer quiesces" `Quick test_balancer_stops_with_cluster;
  ]

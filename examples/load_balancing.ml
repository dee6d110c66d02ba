(* Dynamic load balancing by preemptive migration — the paper's motivating
   use case (sections 1-2): "a generic module implemented outside the
   running application could balance the load by migrating the application
   threads. The threads are unaware of their being migrated."

   An irregular application spawns all its workers on node 0; the balancer
   spreads them across the cluster while they run. We compare makespans
   with and without balancing.

   Run with: dune exec examples/load_balancing.exe [-- <workers> <nodes>] *)

module Cluster = Pm2_core.Cluster
module Pm2 = Pm2_core.Pm2
module Balancer = Pm2_loadbal.Balancer

let run ~nodes ~workers ~policy =
  let config = Pm2.Config.make ~nodes () in
  let program = Pm2_programs.Figures.image () in
  let cluster = Pm2.launch ~config program ~spawns:[ (0, "spawner", workers) ] in
  let balancer =
    Option.map (fun policy -> Balancer.attach cluster ~policy ~period:400.) policy
  in
  let makespan = Cluster.run cluster in
  Cluster.check_invariants cluster;
  (makespan, balancer, cluster)

let () =
  let workers = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 24 in
  let nodes = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 4 in
  Printf.printf
    "irregular application: %d workers with random workloads, all born on node 0 of %d\n\n"
    workers nodes;
  let baseline, _, _ = run ~nodes ~workers ~policy:None in
  Printf.printf "%-28s makespan %8.0f us\n" "no balancing" baseline;
  List.iter
    (fun policy ->
       let makespan, balancer, cluster = run ~nodes ~workers ~policy:(Some policy) in
       let stats = Balancer.stats (Option.get balancer) in
       Printf.printf "%-28s makespan %8.0f us   (speedup %.2fx, %d migrations)\n"
         (Balancer.Policy.to_string policy)
         makespan (baseline /. makespan)
         (List.length (Cluster.migrations cluster));
       ignore stats)
    [
      Balancer.Least_loaded;
      Balancer.Threshold { high = 2; low = 8 };
      Balancer.Round_robin_spread;
    ];
  print_endline "\nthe workers never cooperate: every move is a preemptive, transparent";
  print_endline "iso-address migration decided by the external balancer module"

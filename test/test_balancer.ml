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

(* A workload that leaves threads in every state the movable index
   distinguishes: a parent spawns children, sleeps, releases them from a
   semaphore (from its home node: a semaphore is node-local) and joins a
   last child; each child burns CPU in yielding chunks, blocks on the
   semaphore at home (or gets -1 elsewhere), sleeps and exits. *)
let mix_program =
  let open Pm2_mvm.Asm in
  let module Isa = Pm2_mvm.Isa in
  Pm2.build (fun b ->
      proc b "mix_child" (fun b ->
          mov b r8 r1;
          imm b r9 0;
          label b "mc.burn";
          imm b r4 4;
          bge b r9 r4 "mc.wait";
          imm b r1 150;
          sys b Isa.Sys_workload;
          sys b Isa.Sys_yield;
          addi b r9 r9 1;
          jmp b "mc.burn";
          label b "mc.wait";
          mov b r1 r8;
          sys b Isa.Sys_sem_p;
          imm b r1 300;
          sys b Isa.Sys_sleep;
          imm b r1 200;
          sys b Isa.Sys_workload;
          halt b);
      proc b "mix_leaf" (fun b ->
          imm b r1 100;
          sys b Isa.Sys_workload;
          imm b r0 7;
          halt b);
      proc b "mix_parent" (fun b ->
          mov b r10 r1;
          imm b r1 0;
          sys b Isa.Sys_sem_create;
          mov b r8 r0;
          imm b r9 0;
          label b "mp.spawn";
          bge b r9 r10 "mp.sleep";
          lea b r1 "mix_child";
          mov b r2 r8;
          sys b Isa.Sys_spawn;
          addi b r9 r9 1;
          jmp b "mp.spawn";
          label b "mp.sleep";
          imm b r1 2000;
          sys b Isa.Sys_sleep;
          imm b r9 0;
          (* Back home before every V: the balancer may have moved us. *)
          label b "mp.home";
          imm b r1 0;
          sys b Isa.Sys_migrate;
          label b "mp.release";
          bge b r9 r10 "mp.join";
          mov b r1 r8;
          sys b Isa.Sys_sem_v;
          imm b r4 0;
          bne b r0 r4 "mp.home";
          addi b r9 r9 1;
          jmp b "mp.release";
          label b "mp.join";
          lea b r1 "mix_leaf";
          imm b r2 0;
          sys b Isa.Sys_spawn;
          mov b r1 r0;
          sys b Isa.Sys_join;
          halt b))

let test_movable_index_matches_scan () =
  (* The movable index the balancer reads stays equal to a filter over
     each node's residents ([Cluster.check_invariants] compares them)
     through spawns, Threshold and Group_threshold rounds, semaphore,
     sleep and join blocking, exits, a migration requested to the
     thread's own node, and a crash whose threads fail over from their
     checkpoints. *)
  let nodes = 4 in
  let fault_plan =
    Pm2_fault.Plan.create ~seed:5
      (Result.get_ok (Pm2_fault.Plan.spec_of_string "crash=1@1500"))
  in
  let config = Pm2.Config.make ~nodes ~fault_plan ~checkpoint_interval:150. () in
  let cluster = Pm2.launch ~config mix_program ~spawns:[ (0, "mix_parent", 14) ] in
  let single =
    Balancer.attach cluster ~policy:(Balancer.Threshold { high = 2; low = 4 }) ~period:400.
  in
  let group =
    Balancer.attach cluster
      ~policy:(Balancer.Group_threshold { high = 3; low = 5; limit = 3 })
      ~period:700.
  in
  let seen = Hashtbl.create 8 in
  let see what = Hashtbl.replace seen what () in
  let self_request = ref None in
  let observe () =
    List.iter
      (fun (th : Thread.t) ->
        match th.Thread.state with
        | Thread.Blocked -> see "blocked"
        | Thread.Migrating -> see "migrating"
        | Thread.Exited _ -> see "exited"
        | Thread.Ready | Thread.Running ->
          if th.Thread.pending_migration <> None then see "pending")
      (Cluster.threads cluster);
    (* Once, ask a movable thread to migrate to the node it is on: it
       leaves the index until its next quantum clears the request. *)
    if !self_request = None then
      match Seq.uncons (Cluster.movable_threads cluster 0) with
      | Some (th, _) when Cluster.live_threads cluster > 4 ->
        Cluster.request_migration cluster th ~dest:0;
        self_request := Some th;
        Alcotest.(check bool) "a thread with a request pending is not movable" false
          (Seq.exists (fun th' -> th' == th) (Cluster.movable_threads cluster 0))
      | _ -> ()
  in
  let rec drive checks =
    if Cluster.step_events cluster ~max_events:5 > 0 then begin
      Cluster.check_invariants cluster;
      observe ();
      drive (checks + 1)
    end
    else checks
  in
  let checks = drive 0 in
  Cluster.check_invariants cluster;
  Alcotest.(check bool) "checked while running" true (checks > 50);
  List.iter
    (fun what -> Alcotest.(check bool) ("saw a thread " ^ what) true (Hashtbl.mem seen what))
    [ "blocked"; "migrating"; "exited"; "pending" ];
  (match !self_request with
   | Some th ->
     Alcotest.(check bool) "the own-node request was cleared" true
       (th.Thread.pending_migration = None)
   | None -> Alcotest.fail "no thread was asked to migrate to its own node");
  Alcotest.(check bool) "threshold rounds moved threads" true
    ((Balancer.stats single).Balancer.migrations_requested > 0);
  Alcotest.(check bool) "group rounds moved groups" true
    ((Balancer.stats group).Balancer.groups_requested > 0);
  Alcotest.(check bool) "the crash failed threads over" true
    (Cluster.restored_threads cluster > 0);
  Alcotest.(check int) "nothing lost" 0 (List.length (Cluster.lost_threads cluster));
  Alcotest.(check int) "every thread finished" 0 (Cluster.live_threads cluster);
  (* A host-driven hop moves a Ready thread, so it changes index too. *)
  let host = Cluster.host_thread cluster ~node:2 in
  Cluster.host_migrate cluster host ~dest:3;
  Cluster.check_invariants cluster;
  let ids n =
    List.map (fun (th : Thread.t) -> th.Thread.id) (List.of_seq (Cluster.movable_threads cluster n))
  in
  Alcotest.(check (list int)) "left node 2's index" [] (ids 2);
  Alcotest.(check (list int)) "joined node 3's index" [ host.Thread.id ] (ids 3)

(* Re-filing threads in the movable index allocates nothing: a migration
   request allocates the [Some dest] it stores (2 words) and no more. The
   first request also queues the node's tick, whose closure the node
   built at boot. *)
let test_index_upkeep_allocates_nothing () =
  let cluster = Cluster.create (Cluster.default_config ~nodes:2) program in
  let ths = Array.init 200 (fun _ -> Cluster.host_thread cluster ~node:0) in
  Gc.minor ();
  let before = Gc.minor_words () in
  for i = 0 to 199 do
    Cluster.request_migration cluster ths.(i) ~dest:1
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 200 requests" 400. words;
  Alcotest.(check int) "none movable" 0 (Seq.length (Cluster.movable_threads cluster 0));
  Alcotest.(check int) "all resident" 200 (Seq.length (Cluster.node_threads cluster 0));
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
    Alcotest.test_case "movable index matches a scan" `Quick test_movable_index_matches_scan;
    Alcotest.test_case "index upkeep allocates nothing" `Quick
      test_index_upkeep_allocates_nothing;
  ]

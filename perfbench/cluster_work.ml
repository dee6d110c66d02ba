(* The three in-process workloads (compute, swarm, isochurn): boot,
   drive, verify — untraced for the end-to-end metrics, traced for the
   per-layer ledger — plus the replays that time layers emitting no
   events. *)

module Cluster = Pm2_core.Cluster
module Thread = Pm2_core.Thread

type iteration = {
  setup_ns : int;
  wall_ns : int;
  cpu_s : float; (* process CPU time over the same phase *)
  events : int;
  slices_ns : int list;
  fp : Fingerprint.t;
  attempted : int;
  failed : int;
  minor_words : float;
  major_collections : int;
  rss_mb : float; (* the process's peak RSS so far *)
}

(* Events per untraced slice. A slice is what one pm2simd [step]
   request of this size costs in-process: the cluster workloads' unit of
   request latency. Slices of 512 events made p99 three times less steady
   across seeds. *)
let slice_events = 64

let printed c =
  List.map (fun e -> e.Pm2_sim.Trace.text) (Pm2_sim.Trace.entries (Cluster.trace c))

(* Program assembly, cluster boot, spawns and (optionally) the balancer. *)
let boot ?(traced = false) (spec : Gen.cluster_spec) =
  let program = Guest.image () in
  let c = Cluster.create (Pm2_core.Pm2.Config.make ~nodes:spec.nodes ()) program in
  List.iter
    (fun (s : Gen.spawn) -> ignore (Cluster.spawn c ~node:s.node ~entry:s.entry ~arg:s.arg ()))
    spec.spawns;
  let probe =
    match spec.balancer with
    | None -> None
    | Some (policy, period) when traced -> Some (Layers.attach_balancer c ~policy ~period)
    | Some (policy, period) ->
      ignore (Pm2_loadbal.Balancer.attach c ~policy ~period);
      None
  in
  (c, probe)

(* Failed operations and the fingerprint of a drained cluster. An
   invariant violation or a thread left alive fails every operation. *)
let verify (spec : Gen.cluster_spec) c =
  let attempted = List.length spec.spawns in
  let sound =
    Cluster.live_threads c = 0
    && match Cluster.check_invariants c with () -> true | exception Failure _ -> false
  in
  let failed =
    if not sound then attempted
    else
      Fingerprint.failed_checks
        ~expect:(List.map (fun (s : Gen.spawn) -> s.expect) spec.spawns)
        ~printed:(printed c)
  in
  let fp = Fingerprint.of_cluster c ~lines:(Pm2_sim.Trace.lines (Cluster.trace c)) in
  (fp, attempted, failed)

let untraced spec =
  Gc.full_major ();
  let (c, _), setup_ns = Clock.time (fun () -> boot spec) in
  let g0 = Gc.quick_stat () in
  let slices = ref [] and events = ref 0 in
  let cpu0 = Sys.time () in
  let t0 = Clock.now_ns () in
  let rec go () =
    let n, dt = Clock.time (fun () -> Cluster.step_events c ~max_events:slice_events) in
    if n > 0 then begin
      slices := dt :: !slices;
      events := !events + n;
      go ()
    end
  in
  go ();
  let wall_ns = Clock.now_ns () - t0 in
  let cpu_s = Sys.time () -. cpu0 in
  let g1 = Gc.quick_stat () in
  let fp, attempted, failed = verify spec c in
  {
    setup_ns;
    wall_ns;
    cpu_s;
    events = !events;
    slices_ns = !slices;
    fp;
    attempted;
    failed;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    rss_mb = Clock.peak_rss_mb "self";
  }

(* {1 Replays of layers that emit no events} *)

(* MVM dispatch: every spawned thread of a fresh boot runs through
   [Pm2_mvm.Engine.run] at the cluster's quantum fuel, in host mode —
   syscalls are emulated (iso-heap calls through [Cluster.host_env],
   migration and scheduling ignored) and only [Engine.run] is timed.
   Returns (instructions, ns). *)
let mvm_replay spec =
  let c, _ = boot spec in
  let fuel = (Cluster.config c).Cluster.quantum in
  let engine = Pm2_mvm.Engine.create (Cluster.config c).Cluster.engine_kind (Cluster.program c) in
  let instrs = ref 0 and ns = ref 0 in
  List.iter
    (fun (th : Thread.t) ->
      let node = th.Thread.node in
      let space = Cluster.node_space c node in
      let env = Cluster.host_env c node in
      let ctx = th.Thread.ctx in
      let r = ctx.Pm2_mvm.Interp.regs in
      let rec go () =
        let (outcome, steps), dt =
          Clock.time (fun () -> Pm2_mvm.Engine.run engine ctx space ~fuel)
        in
        instrs := !instrs + steps;
        ns := !ns + dt;
        match outcome with
        | Pm2_mvm.Interp.Running -> go ()
        | Pm2_mvm.Interp.Syscall sc -> (
          match sc with
          | Pm2_mvm.Isa.Sys_isomalloc ->
            r.(0) <- Option.value ~default:0 (Pm2_core.Iso_heap.isomalloc env th r.(1));
            go ()
          | Pm2_mvm.Isa.Sys_isofree ->
            Pm2_core.Iso_heap.isofree env th r.(1);
            go ()
          | Pm2_mvm.Isa.Sys_node ->
            r.(0) <- node;
            go ()
          | Pm2_mvm.Isa.Sys_print | Pm2_mvm.Isa.Sys_yield | Pm2_mvm.Isa.Sys_workload
          | Pm2_mvm.Isa.Sys_migrate ->
            go ()
          | _ -> ())
        | Pm2_mvm.Interp.Halted | Pm2_mvm.Interp.Fault _ -> ()
      in
      go ())
    (Cluster.threads c);
  (!instrs, !ns)

(* The iso-heap calls of every churn thread (allocate, free the odd
   cells, refill), on host threads of a fresh boot. Returns (ops, ns). *)
let iso_replay (spec : Gen.cluster_spec) =
  let c, _ = boot spec in
  let ops = ref 0 and ns = ref 0 in
  let timed f =
    let r, dt = Clock.time f in
    incr ops;
    ns := !ns + dt;
    r
  in
  List.iter
    (fun (s : Gen.spawn) ->
      if s.entry = "pb_churn" then begin
        let env = Cluster.host_env c s.node in
        let th = Cluster.host_thread c ~node:s.node in
        let plan =
          Guest.churn_plan ~x0:(s.arg lsr 8) ~k:(s.arg land 255)
        in
        let alloc size =
          Option.get (timed (fun () -> Pm2_core.Iso_heap.isomalloc env th size))
        in
        (* the list is head-first: the last allocation is position 0 *)
        let cells = List.rev_map alloc plan.Guest.first in
        List.iteri
          (fun i a -> if i mod 2 = 1 then timed (fun () -> Pm2_core.Iso_heap.isofree env th a))
          cells;
        List.iter (fun size -> ignore (alloc size)) plan.Guest.refill
      end)
    spec.spawns;
  (!ops, !ns)

(* [Cluster.threads] over the final thread table: median of 21 calls. *)
let threads_us c =
  Stats.median
    (List.init 21 (fun _ ->
         Clock.us_of_ns (snd (Clock.time (fun () -> ignore (Cluster.threads c))))))

(* {1 Layer counts of a drained cluster} *)

type counts = {
  negotiations : int;
  migrations : int;
  migration_bytes : int;
  msgs : int;
  bytes : int;
  retransmits : int;
  delta_fallbacks : int;
  checkpoint_saves : int;
  collector_events : int;
  threads_us : float;
}

let counts c =
  let net = Cluster.network c and rel = Cluster.reliable c in
  {
    negotiations = Pm2_core.Negotiation.count (Cluster.negotiation c);
    migrations = Fingerprint.migrations c;
    migration_bytes =
      List.fold_left (fun n m -> n + m.Cluster.bytes) 0 (Cluster.migrations c)
      + List.fold_left (fun n g -> n + g.Cluster.g_bytes) 0 (Cluster.group_migrations c);
    msgs = Pm2_net.Network.messages_sent net;
    bytes = Pm2_net.Network.bytes_sent net;
    retransmits = Pm2_net.Reliable.retransmits rel + Pm2_net.Reliable.train_retransmits rel;
    delta_fallbacks = Cluster.delta_fallbacks c;
    checkpoint_saves = Pm2_recover.Image_store.saves (Cluster.image_store c);
    collector_events = Pm2_obs.Collector.emitted (Cluster.obs c);
    threads_us = threads_us c;
  }

type traced_run = {
  ledger : Layers.t;
  t_counts : counts;
  t_fp : Fingerprint.t;
  t_failed : int;
}

let traced spec =
  Gc.full_major ();
  let c, probe = boot ~traced:true spec in
  let led = Layers.create () in
  Pm2_obs.Collector.attach (Cluster.obs c) (Layers.sink led);
  let run () = Cluster.step_events c ~max_events:1 in
  let t0 = Clock.now_ns () in
  while Layers.step led c ~probe ~run > 0 do
    ()
  done;
  led.Layers.wall_ns <- Clock.now_ns () - t0;
  let fp, _, failed = verify spec c in
  { ledger = led; t_counts = counts c; t_fp = fp; t_failed = failed }


(* Causal tracing: the two numbers the layer must defend, plus the
   telemetry payoff.

   (1) Tracing OFF is free — byte-identical: the same workload run with
       and without the full observability stack attached (chrome
       exporter, metrics registry; the flight recorder is always on)
       produces the same guest-visible lines, the same wire bytes and
       the same virtual finish time. Spans only exist when tracing is
       on, and trace context only rides the wire when a span asks it to,
       so an untraced run cannot be perturbed even in principle — this
       experiment is the regression net for that claim.

   (2) Tracing ON is cheap — bounded host-time overhead: the same
       workload with tracing enabled (spans emitted, chrome exporter
       attached) must stay within 5% of the untraced host wall-clock
       (median of paired per-rep ratios, which cancels scheduler noise).

   (3) The telemetry earns its keep: on a skewed-access workload —
       run-queue lengths perfectly balanced, write bandwidth all on one
       node — the load-based policies ([Threshold], [Cache_affinity])
       see nothing to fix, while [Access_imbalance] consumes the
       dirty-epoch heat feed, spreads the writers, and levels the
       per-node write bandwidth. Measured as the time-averaged
       node-heat imbalance (pages/window) and the number of hot
       threads that left the overloaded node. *)

open Pm2_core
open Pm2_mvm.Asm
module Isa = Pm2_mvm.Isa
module Balancer = Pm2_loadbal.Balancer
module Engine = Pm2_sim.Engine
module Network = Pm2_net.Network
module Obs = Pm2_obs
module Table = Pm2_support.Table

let page = Pm2_vmem.Layout.page_size
let hot_threads = 8
let cold_threads = 8
let hot_pages = 16 (* pages each hot writer dirties per round *)
let cold_pages = 1
let rounds = 40
let work_us = 150 (* equal per-round compute, so run queues stay balanced *)
let period = 600. (* balancer period; the heat sampler runs phase-shifted *)
let delta_budget = 4 * 1024 * 1024

(* The guest: isomalloc [r1] pages, then [rounds] times dirty one word in
   each page and compute for [work_us]. Hot and cold threads differ only
   in the page count, so thread count and compute per node are identical
   — only the write bandwidth is skewed. *)
let emit b =
  proc b "writer" (fun b ->
      mov b r12 r1; (* pages *)
      imm b r11 rounds;
      imm b r4 page;
      mul b r1 r12 r4;
      sys b Isa.Sys_isomalloc;
      mov b r8 r0;
      label b "w.round";
      imm b r4 0;
      beq b r11 r4 "w.done";
      imm b r7 0;
      label b "w.page";
      bge b r7 r12 "w.paged";
      imm b r4 page;
      mul b r6 r7 r4;
      add b r6 r8 r6;
      store b r11 r6 0;
      addi b r7 r7 1;
      jmp b "w.page";
      label b "w.paged";
      imm b r1 work_us;
      sys b Isa.Sys_workload;
      addi b r11 r11 (-1);
      jmp b "w.round";
      label b "w.done";
      mov b r1 r8;
      sys b Isa.Sys_isofree;
      imm b r0 0;
      halt b)

let program = lazy (Pm2.build emit)

type outcome = {
  makespan : float;
  wire_bytes : int;
  guest_lines : string list;
  mean_heat_imbalance : float;
  hot_moved : int; (* hot writers that ended off their spawn node *)
  migrations : int;
  spans : int;
}

(* One run of the skewed workload: hot writers on node 0, cold ones on
   node 1. A phase-shifted sampler refreshes the heat feed between
   balancer rounds and records the node-heat spread — the same sampler
   in every run, so the comparison only varies the policy. *)
let run_workload ?policy ?(tracing = false) ?(sinks = []) () =
  let config =
    Pm2.Config.make ~nodes:2 ~delta_cache_bytes:delta_budget ~tracing ()
  in
  let c = Cluster.create config (Lazy.force program) in
  List.iter (Obs.Collector.attach (Cluster.obs c)) sinks;
  let spans = ref 0 in
  Obs.Collector.attach (Cluster.obs c)
    (Obs.Sink.make ~name:"span-count" (fun ~time:_ ~node:_ ev ->
         match (ev : Obs.Event.t) with Span_end _ -> incr spans | _ -> ()));
  let hot =
    List.init hot_threads (fun _ ->
        Cluster.spawn c ~node:0 ~entry:"writer" ~arg:hot_pages ())
  in
  let _cold =
    List.init cold_threads (fun _ ->
        Cluster.spawn c ~node:1 ~entry:"writer" ~arg:cold_pages ())
  in
  (match policy with
   | Some policy -> ignore (Balancer.attach c ~policy ~period)
   | None -> ());
  let samples = ref [] in
  let engine = Cluster.engine c in
  let rec sample () =
    if Cluster.live_threads c > 0 then begin
      Cluster.refresh_heat c;
      let h i = Obs.Feed.get_or (Cluster.feed c) (Obs.Feed.node_heat_key i) ~default:0. in
      samples := abs_float (h 0 -. h 1) :: !samples;
      Engine.schedule_after engine ~delay:period sample
    end
  in
  Engine.schedule_after engine ~delay:(period /. 2.) sample;
  let makespan = Cluster.run c in
  Cluster.check_invariants c;
  let mean l =
    if l = [] then 0. else List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  {
    makespan;
    wire_bytes = Network.bytes_sent (Cluster.network c);
    guest_lines = Pm2_sim.Trace.lines (Cluster.trace c);
    mean_heat_imbalance = mean !samples;
    hot_moved =
      List.length (List.filter (fun (th : Thread.t) -> th.Thread.node <> 0) hot);
    migrations = List.length (Cluster.migrations c);
    spans = !spans;
  }

(* Host wall-clock, tracing off vs on, one pair per rep. The two
   variants are interleaved rep by rep, and which one goes first
   alternates, so slow drift in host speed (frequency scaling, noisy
   neighbours) and any first-run/second-run bias hit both equally.
   Returns the median of the per-rep on/off ratios (each pair shares its
   host conditions, so the ratio cancels most of the noise a min of
   each side cannot) and, for comparison, each side's minimum. *)
let host_times ?policy ~reps () =
  let time tracing =
    let sinks = if tracing then [ Obs.Chrome.sink (Obs.Chrome.create ()) ] else [] in
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (run_workload ?policy ~tracing ~sinks ());
    Unix.gettimeofday () -. t0
  in
  let best_off = ref infinity and best_on = ref infinity in
  let ratios =
    List.init reps (fun i ->
        let off, on =
          if i land 1 = 0 then
            let off = time false in
            (off, time true)
          else
            let on = time true in
            (time false, on)
        in
        best_off := Float.min !best_off off;
        best_on := Float.min !best_on on;
        on /. off)
  in
  (Pm2_util.Stats.percentile 50. ratios, !best_off, !best_on)

let balanced_policy = Balancer.Access_imbalance { ratio = 2.; min_pages = 4 }

let run () =
  Harness.section
    (Printf.sprintf
       "T5: causal tracing: off = byte-identical, on < 5%% host time, heat feed\n\
        (%d hot x %d pages vs %d cold x %d page, %d rounds, 2 nodes)"
       hot_threads hot_pages cold_threads cold_pages rounds);
  (* (1) determinism: tracing off, with vs without the full stack. *)
  let plain = run_workload ~policy:balanced_policy () in
  let observed =
    let chrome = Obs.Chrome.create () in
    let metrics = Obs.Metrics.create () in
    run_workload ~policy:balanced_policy
      ~sinks:[ Obs.Chrome.sink chrome; Obs.Metrics.sink metrics ]
      ()
  in
  let identical =
    plain.makespan = observed.makespan
    && plain.wire_bytes = observed.wire_bytes
    && plain.guest_lines = observed.guest_lines
  in
  Harness.note "tracing off, sinks attached: makespan %.1f vs %.1f us, wire %d vs %d B -> %s"
    plain.makespan observed.makespan plain.wire_bytes observed.wire_bytes
    (if identical then "identical" else "DIVERGED");
  Report.record ~suite:"trace-overhead" ~name:"determinism"
    ~params:
      [
        ("hot_threads", string_of_int hot_threads);
        ("cold_threads", string_of_int cold_threads);
        ("rounds", string_of_int rounds);
      ]
    [
      ("identical", if identical then 1. else 0.);
      ("makespan_us", plain.makespan);
      ("wire_bytes", float_of_int plain.wire_bytes);
    ];
  if not identical then
    failwith "trace_overhead: attaching sinks perturbed a tracing-off run";
  (* Tracing on: spans exist, context rides the wire; the virtual clock
     may legitimately shift (the wire carries real extra bytes). *)
  let traced =
    run_workload ~policy:balanced_policy ~tracing:true
      ~sinks:[ Obs.Chrome.sink (Obs.Chrome.create ()) ]
      ()
  in
  Harness.note "tracing on: %d spans, +%d wire bytes over untraced"
    traced.spans (traced.wire_bytes - plain.wire_bytes);
  if traced.spans = 0 then failwith "trace_overhead: tracing-on run emitted no spans";
  if plain.spans <> 0 then failwith "trace_overhead: tracing-off run emitted spans";
  (* (2) host-time overhead: median of the paired per-rep ratios. *)
  let reps = 61 in
  let ratio, off, on = host_times ~policy:balanced_policy ~reps () in
  let overhead = ratio -. 1. in
  let min_overhead = (on -. off) /. off in
  Harness.note
    "host time (%d paired reps): median on/off %+.1f%% overhead (min of each: %.2f ms \
     off, %.2f ms on -> %+.1f%%)"
    reps (overhead *. 100.) (off *. 1000.) (on *. 1000.) (min_overhead *. 100.);
  Report.record ~suite:"trace-overhead" ~name:"host-overhead"
    ~params:[ ("reps", string_of_int reps); ("estimator", "median-paired-ratio") ]
    [
      ("host_off_s", off);
      ("host_on_s", on);
      ("overhead_frac", overhead);
      ("overhead_min_frac", min_overhead);
      ("spans", float_of_int traced.spans);
    ];
  if overhead >= 0.05 then
    failwith "trace_overhead: tracing-on host overhead above the 5% bar";
  (* (3) the telemetry payoff: heat-blind vs heat-driven placement. *)
  let load =
    run_workload ~policy:(Balancer.Threshold { high = hot_threads + 2; low = 2 }) ()
  in
  let affinity = run_workload ~policy:Balancer.Cache_affinity () in
  let access = run_workload ~policy:balanced_policy () in
  let t =
    Table.create
      [ "policy"; "makespan (us)"; "mean heat imbalance"; "hot moved"; "migrations" ]
  in
  let row name (r : outcome) =
    Table.add_rowf t "%s|%.0f|%.1f|%d|%d" name r.makespan r.mean_heat_imbalance
      r.hot_moved r.migrations
  in
  row "load threshold" load;
  row "cache affinity" affinity;
  row "access imbalance" access;
  Table.print t;
  Harness.note "run queues are 8 vs 8 throughout: the load policies never act, the";
  Harness.note "heat feed alone reveals the skew (paper's transparency made measurable)";
  Report.record ~suite:"trace-overhead" ~name:"telemetry-placement"
    ~params:
      [
        ("hot_pages", string_of_int hot_pages);
        ("cold_pages", string_of_int cold_pages);
        ("ratio", "2");
        ("min_pages", "4");
      ]
    [
      ("heat_imbalance_load", load.mean_heat_imbalance);
      ("heat_imbalance_affinity", affinity.mean_heat_imbalance);
      ("heat_imbalance_access", access.mean_heat_imbalance);
      ("hot_moved_load", float_of_int load.hot_moved);
      ("hot_moved_access", float_of_int access.hot_moved);
      ("makespan_load", load.makespan);
      ("makespan_access", access.makespan);
      ("migrations_access", float_of_int access.migrations);
    ];
  if access.mean_heat_imbalance >= load.mean_heat_imbalance then
    failwith "trace_overhead: access-imbalance did not beat the load policy";
  if access.hot_moved < 1 then
    failwith "trace_overhead: access-imbalance never moved a hot writer";
  if load.hot_moved <> 0 then
    failwith "trace_overhead: the load policy moved threads on a balanced queue"

(* §5 — "The time needed to migrate a thread with no static data between
   two nodes is less than 75 us. It was measured by means of a thread
   ping-pong between two nodes." The paper compares against the 150 us
   null-thread migration of Active Threads. *)

open Pm2_core
module Table = Pm2_support.Table
module Stats = Pm2_util.Stats

let active_threads_reference_us = 150.

let null_thread () =
  Harness.section "T1: null-thread migration (ping-pong, 2 nodes)";
  let rounds = 500 in
  let c, metrics = Harness.run_guest_observed ~entry:"pingpong" ~arg:rounds () in
  let lat = Harness.migration_latencies c in
  let s = Stats.summarize lat in
  let wire = (List.hd (Cluster.migrations c)).Cluster.bytes in
  let t = Table.create [ "metric"; "value" ] in
  Table.add_rowf t "one-way migrations|%d" s.Stats.n;
  Table.add_rowf t "mean latency|%.1f us" s.Stats.mean;
  Table.add_rowf t "median latency|%.1f us" s.Stats.median;
  Table.add_rowf t "min / max|%.1f / %.1f us" s.Stats.min s.Stats.max;
  Table.add_rowf t "wire image|%d bytes" wire;
  Table.add_rowf t "paper (PM2, BIP/Myrinet)|< 75 us";
  Table.add_rowf t "paper baseline (Active Threads)|150 us";
  Table.add_rowf t "speedup vs Active Threads|%.2fx"
    (active_threads_reference_us /. s.Stats.mean);
  Table.print t;
  Report.record ~suite:"migration" ~name:"null-thread ping-pong"
    ~params:[ ("rounds", string_of_int rounds); ("nodes", "2") ]
    [
      ("mean_us", s.Stats.mean);
      ("median_us", s.Stats.median);
      ("wire_bytes", float_of_int wire);
    ];
  Harness.note
    "no post-migration processing of any kind: the iso-address copy is enough";
  if s.Stats.mean >= 75. then
    Harness.note "WARNING: mean latency exceeds the paper's 75 us bound!";
  Harness.metrics_json ~experiment:"t-migration" metrics

let payload_sweep () =
  Harness.section "T1b: migration latency vs private data carried (pm2_isomalloc'd)";
  let t =
    Table.create
      [ "isomalloc'd payload"; "mean one-way (us)"; "wire bytes"; "bandwidth-bound?" ]
  in
  List.iter
    (fun bytes ->
       let c = Harness.run_guest ~entry:"pingpong_payload" ~arg:bytes () in
       let lat = Harness.migration_latencies c in
       let s = Stats.summarize lat in
       let wire = (List.hd (Cluster.migrations c)).Cluster.bytes in
       Report.record ~suite:"migration" ~name:"payload ping-pong"
         ~params:[ ("payload", string_of_int bytes) ]
         [ ("mean_us", s.Stats.mean); ("wire_bytes", float_of_int wire) ];
       Table.add_rowf t "%s|%.1f|%d|%s"
         (Pm2_util.Units.bytes_to_string bytes)
         s.Stats.mean wire
         (if bytes > 65536 then "yes" else "no"))
    [ 1_024; 4_096; 16_384; 65_536; 262_144; 1_048_576 ];
  Table.print t;
  Harness.note "the thread's data slots follow it; cost grows with the live bytes shipped"

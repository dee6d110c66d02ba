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

(* The direct hop's host cost: the page-ownership hop against the
   buffered image it models ([Migration.pack] then [unpack]), on an
   isochurn-shaped thread. Both sides hop the same heap back and forth
   between two spaces; reps interleave the two, and each side keeps its
   fastest hop. *)

module As = Pm2_vmem.Address_space

let hop_cells = 64

let hop_reps = 101

(* A two-node cluster whose node-0 thread holds an isochurn-shaped list:
   one multi-slot cell, every 4th cell medium, the rest below a page,
   each cell's head written; the odd cells freed, then half as many
   allocated again. *)
let churned_thread () =
  let c = Cluster.create (Cluster.default_config ~nodes:2) (Pm2.build (fun _ -> ())) in
  let th = Cluster.host_thread c ~node:0 in
  let env = Cluster.host_env c 0 and space = Cluster.node_space c 0 in
  let x = ref 12345 in
  let alloc i =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let s = !x / 32 in
    let size =
      if i = 19 then 65536 + (s mod 65536)
      else if i mod 4 = 1 then 4096 + (s mod 28672)
      else 16 + (s mod 4000)
    in
    let a = Option.get (Iso_heap.isomalloc env th size) in
    As.store_word space a i;
    As.store_word space (a + 8) (i * 7);
    a
  in
  let cells = List.init hop_cells alloc in
  List.iteri (fun i a -> if i mod 2 = 1 then Iso_heap.isofree env th a) cells;
  for i = 1 to hop_cells / 2 do
    ignore (alloc (hop_cells + i))
  done;
  (c, th)

let host_hop () =
  Harness.section
    "T1c: the direct hop on the host: page ownership vs the buffered image";
  let cost = Pm2_sim.Cost_model.default and packing = Migration.Blocks_only in
  let spaces c = (Cluster.node_space c 0, Cluster.node_space c 1) in
  let hc, hth = churned_thread () and bc, bth = churned_thread () in
  let bytes = Migration.image_size ~space:(fst (spaces hc)) ~packing hth in
  let best_hop = ref infinity and best_buf = ref infinity in
  let time best f =
    let t0 = Unix.gettimeofday () in
    f ();
    best := Float.min !best (Unix.gettimeofday () -. t0)
  in
  for rep = 1 to hop_reps do
    (* Odd reps go 0 -> 1, even reps come back. *)
    let there (a, b) = if rep mod 2 = 1 then (a, b) else (b, a) in
    let hop () =
      let src, dst = there (spaces hc) in
      let m = Migration.move_out ~cost ~space:src ~packing hth in
      ignore (Migration.move_in ~cost ~space:dst hth m)
    in
    let buffered () =
      let src, dst = there (spaces bc) in
      let p = Migration.pack ~cost ~space:src ~packing bth in
      ignore (Migration.unpack ~cost ~space:dst bth p.Migration.buffer)
    in
    if rep mod 4 < 2 then (time best_hop hop; time best_buf buffered)
    else (time best_buf buffered; time best_hop hop)
  done;
  let hop_ns = !best_hop *. 1e9 and buf_ns = !best_buf *. 1e9 in
  let kb = float_of_int bytes /. 1024. in
  let cores = Domain.recommended_domain_count () in
  let t = Table.create [ "hop"; "best ns"; "ns per KB" ] in
  Table.add_rowf t "page ownership|%.0f|%.0f" hop_ns (hop_ns /. kb);
  Table.add_rowf t "buffered pack/unpack|%.0f|%.0f" buf_ns (buf_ns /. kb);
  Table.print t;
  Harness.note "%d-byte image, %d cells, min of %d interleaved reps, %d host cores: %.1fx"
    bytes hop_cells hop_reps cores (buf_ns /. hop_ns);
  Report.record ~suite:"migration" ~name:"host-hop"
    ~params:
      [ ("cells", string_of_int hop_cells);
        ("reps", string_of_int hop_reps);
        ("image_bytes", string_of_int bytes);
        ("host_cores", string_of_int cores) ]
    [
      ("hop_ns", hop_ns);
      ("buffered_ns", buf_ns);
      ("ns_per_kb", hop_ns /. kb);
      ("buffered_ns_per_kb", buf_ns /. kb);
      ("speedup_vs_buffered", buf_ns /. hop_ns);
    ]

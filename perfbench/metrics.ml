(* The metric sets: end-to-end (tracing off) and the per-layer ledger. *)

(* Nearest-rank percentile; the largest sample when too few lie beyond. *)
let pct xs p =
  match Stats.percentile xs p with
  | Some v -> v
  | None -> List.fold_left Float.max 0. xs

(* p99 as the median of per-block p99s; pooled when no block is full. *)
let tail_pct xs p =
  match Stats.block_percentile xs p with Some v -> v | None -> pct xs p

let e2e_metrics ~wall ~npe ~setup ~rss ~lat =
  let s_of = List.map Clock.s_of_ns in
  Report.
    [
      metric "wall_s" "s" (Stats.median (s_of wall));
      metric "ns_per_event" "ns" (Stats.median npe);
      metric "setup_s" "s" (Stats.median (s_of setup));
      metric "peak_rss_mb" "MB" rss;
      metric "req_p50_us" "us" (pct (List.map Clock.us_of_ns lat) 50);
      metric "req_p99_us" "us" (tail_pct (List.map Clock.us_of_ns lat) 99);
    ]

(* Sum of the ledgers of several traced runs; counts are per run. *)
type ledger_sum = {
  self : Layers.layer -> float; (* ns per run *)
  steps : Layers.layer -> float; (* per run *)
  wall : float; (* ns per run *)
  committed : float;
  last : Layers.t;
}

let sum_ledgers (ls : Layers.t list) =
  let runs = List.length ls in
  let per f = List.fold_left (fun s l -> s +. float_of_int (f l)) 0. ls /. float_of_int runs in
  {
    self = (fun layer -> per (fun l -> Layers.self_ns l layer));
    steps = (fun layer -> per (fun l -> Layers.steps l layer));
    wall = per (fun l -> l.Layers.wall_ns);
    committed = per (fun l -> l.Layers.committed);
    last = List.nth ls (runs - 1);
  }

(* Encode every sampled event as the daemon would push it. *)
let encode_ns_per_event (l : Layers.t) =
  match l.Layers.sample with
  | [] -> 0.
  | sample ->
    let _, ns =
      Clock.time (fun () ->
          List.iter
            (fun (time, node, ev) -> ignore (Pm2_svc.Protocol.encode_event ~sub:1 ~time ~node ev))
            sample)
    in
    float_of_int ns /. float_of_int (List.length sample)

type extras = {
  mvm : int * int; (* instructions, ns *)
  iso : int * int; (* ops, ns *)
  scale : float;
  decode_us : float;
  encode_us : float;
  apply_us : float;
  overhead_us : float;
  minor_words_per_event : float;
  major_collections : float;
  overhead_frac : float;
}

let layer_metrics (s : ledger_sum) (c : Cluster_work.counts) (x : extras) =
  let open Report in
  let div a b = if b = 0. then 0. else a /. b in
  let share l = div (s.self l) s.wall in
  let step_us l = div (s.self l) (s.steps l) /. 1e3 in
  let f = float_of_int in
  let instrs, mvm_ns = x.mvm and iso_ops, iso_ns = x.iso in
  let ns_per_instr = div (f mvm_ns) (f instrs) in
  let l = s.last in
  let covered = List.fold_left (fun acc layer -> acc +. s.self layer) 0. Layers.all in
  [
    metric "mvm.instrs" "count" (f instrs);
    metric "mvm.ns_per_instr" "ns" ns_per_instr;
    metric "sim.events" "count" s.committed;
    metric "cluster.quantum_ns" "ns" (div (s.self Layers.Quantum) (s.steps Layers.Quantum));
    metric "cluster.quantum_overhead_frac" "ratio"
      (if instrs = 0 then 0. else 1. -. div (f mvm_ns) (s.self Layers.Quantum));
    metric "cluster.quantum.share" "ratio" (share Layers.Quantum);
    metric "balancer.rounds" "count" (s.steps Layers.Balancer);
    metric "balancer.round_us" "us" (step_us Layers.Balancer);
    metric "balancer.share" "ratio" (share Layers.Balancer);
    metric "cluster.threads_us" "us" c.threads_us;
    metric "scale.ns_per_event_x4" "ratio" x.scale;
    metric "slot_manager.reserves" "count" (f l.Layers.slot_reserves);
    metric "slot_manager.cache_hit_ratio" "ratio"
      (div (f l.Layers.slot_cache_hits) (f l.Layers.slot_reserves));
    metric "slot_manager.share" "ratio" (share Layers.Slots);
    metric "negotiation.count" "count" (f c.negotiations);
    metric "negotiation.step_us" "us" (step_us Layers.Negotiation);
    metric "negotiation.share" "ratio" (share Layers.Negotiation);
    metric "iso_heap.allocs" "count" (f l.Layers.iso_allocs);
    metric "iso_heap.ns_per_op" "ns" (div (f iso_ns) (f iso_ops));
    metric "iso_heap.share" "ratio" (share Layers.Iso_heap);
    metric "migration.count" "count" (f c.migrations);
    metric "migration.bytes" "bytes" (f c.migration_bytes);
    metric "migration.step_us" "us" (step_us Layers.Migration);
    metric "migration.ns_per_kb" "ns" (div (s.self Layers.Migration) (f c.migration_bytes /. 1024.));
    metric "migration.share" "ratio" (share Layers.Migration);
    metric "network.msgs" "count" (f c.msgs);
    metric "network.bytes" "bytes" (f c.bytes);
    metric "reliable.retransmits" "count" (f c.retransmits);
    metric "reliable.retransmit_ratio" "ratio" (div (f c.retransmits) (f c.msgs));
    metric "net.share" "ratio" (share Layers.Net);
    metric "delta_cache.hit_ratio" "ratio"
      (div (f l.Layers.delta_hit_pages) (f (l.Layers.delta_hit_pages + l.Layers.delta_miss_pages)));
    metric "delta_cache.fallbacks" "count" (f c.delta_fallbacks);
    metric "image_store.saves" "count" (f c.checkpoint_saves);
    metric "image_store.dedup_ratio" "ratio"
      (if l.Layers.ckpt_full_bytes = 0 then 0.
       else 1. -. div (f l.Layers.ckpt_bytes) (f l.Layers.ckpt_full_bytes));
    metric "checkpoint.step_us" "us" (step_us Layers.Checkpoint);
    metric "checkpoint.share" "ratio" (share Layers.Checkpoint);
    metric "recovery.share" "ratio" (share Layers.Recovery);
    metric "collector.events" "count" (f c.collector_events);
    metric "obs.encode_ns_per_event" "ns" (encode_ns_per_event l);
    metric "obs.share" "ratio" (share Layers.Obs);
    metric "protocol.decode_us" "us" x.decode_us;
    metric "protocol.encode_us" "us" x.encode_us;
    metric "protocol.share" "ratio" (share Layers.Protocol);
    metric "session.apply_us" "us" x.apply_us;
    metric "session.share" "ratio" (share Layers.Session);
    metric "pm2simd.overhead_us" "us" x.overhead_us;
    metric "gc.minor_words_per_event" "words" x.minor_words_per_event;
    metric "gc.major_collections" "count" x.major_collections;
    metric "trace.coverage" "ratio" (div covered s.wall);
    metric "trace.overhead_frac" "ratio" x.overhead_frac;
  ]

let no_extras =
  { mvm = (0, 0); iso = (0, 0); scale = 0.; decode_us = 0.; encode_us = 0.; apply_us = 0.;
    overhead_us = 0.; minor_words_per_event = 0.; major_collections = 0.; overhead_frac = 0. }

(* Validator for the `--json` perf trajectory: parses BENCH_results.json
   with the in-tree JSON reader and checks the "pm2-bench/1" schema —
   every entry needs a suite, a name, and at least one finite numeric
   metric. Exits non-zero on any violation, which is what the
   @perf-smoke alias keys off.

   Known suites get semantic checks on top of the shape check. For
   "migration-batch" (the group-migration pipeline) every
   group-vs-sequential entry must carry the wire-byte and virtual-time
   metrics, show at least a 30% wire-byte reduction and a speedup over
   sequential migration, and its rollback entry must report an atomic
   abort. For "migration-delta" (the residual-cache pipeline) the
   ping-pong entry must show at least a 60% steady-state wire-byte
   reduction over the v2 baseline with no fallback on a clean run, and
   the hash-mismatch entry must show the corrupted residual re-fetched
   and the payload intact. For "mvm" (the execution engines) the
   blocks engine must beat the step interpreter by at least 5x host
   ns/instruction on the loop-heavy guest and the three engines must
   agree byte-for-byte on every virtual-time output of the parity
   workload; the loop-heavy guest under the scheduler must allocate at
   most 0.32 minor-heap words per instruction (its host ns over bare
   dispatch is recorded, not gated: host state moves it more than the
   charge path does). For "bitset" the
   round-robin multi-slot search must beat the bit-by-bit reference by
   at least 10x; for "json" the cursor reader must parse the ctl frame
   mix at least 1.5x as fast as the reference reader. For
   "migration"/"host-hop" the page-ownership direct
   hop must beat the buffered pack/unpack image it models by at least
   2x host time. For "balancer-scale" (Threshold rounds over workers
   born on one node) 2000 workers may cost at most 1.5x the minor-heap
   words and 2.5x the host ns per event of 125 workers, both on 4
   nodes. `--require-suite NAME` (repeatable)
   additionally fails if no entry of suite NAME is present — the @ci
   alias uses it to pin both migration suites into the trajectory. *)

module Json = Pm2_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("check_bench: " ^ s); exit 1) fmt

let read_file path =
  let ic = try open_in_bin path with Sys_error e -> fail "%s" e in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let str_field name obj = Option.bind (Json.member name obj) Json.to_string_val

(* Semantic checks for suites whose numbers are acceptance criteria, not
   just trajectory points. [metrics] holds only the finite numbers the
   shape check already admitted. *)
let check_known_suite ~suite ~name metrics =
  let get k =
    match List.assoc_opt k metrics with
    | Some v -> v
    | None -> fail "%s/%s: required metric %s missing" suite name k
  in
  match (suite, name) with
  | "migration-batch", "group-vs-sequential" ->
    let seq = get "wire_bytes_sequential" and grp = get "wire_bytes_group" in
    if grp >= seq then fail "%s/%s: group image not smaller than sequential" suite name;
    if get "byte_reduction" < 0.30 then
      fail "%s/%s: wire-byte reduction %.2f below the 0.30 bar" suite name
        (get "byte_reduction");
    if get "speedup" <= 1.0 then
      fail "%s/%s: no virtual-time speedup (%.2fx)" suite name (get "speedup");
    ignore (get "vtime_sequential_us");
    ignore (get "vtime_group_us")
  | "migration-batch", "train-drop-rollback" ->
    if get "groups_aborted" < 1. then fail "%s/%s: no group aborted" suite name;
    if get "groups_completed" <> 0. then
      fail "%s/%s: a group completed despite the dropped train" suite name;
    if get "partial_migrations" <> 0. then
      fail "%s/%s: partially migrated threads after rollback" suite name;
    if get "payload_intact" <> 1. then
      fail "%s/%s: payload corrupted by the rollback" suite name
  | "migration-delta", "ping-pong" ->
    let v2 = get "wire_bytes_steady_v2" and v3 = get "wire_bytes_steady_v3" in
    if v3 >= v2 then fail "%s/%s: delta hops not smaller than the v2 baseline" suite name;
    if get "byte_reduction_steady" < 0.60 then
      fail "%s/%s: steady-state reduction %.2f below the 0.60 bar" suite name
        (get "byte_reduction_steady");
    if get "cached_pages_total" < 1. then
      fail "%s/%s: no page ever travelled as a hash" suite name;
    if get "fallback_pages_clean" <> 0. then
      fail "%s/%s: a clean run used the full-resend fallback" suite name;
    ignore (get "wire_bytes_first_hop")
  | "migration-delta", "hash-mismatch-fallback" ->
    if get "fallback_pages" < 1. then
      fail "%s/%s: the corrupted residual never triggered the fallback" suite name;
    if get "groups_aborted" <> 0. then
      fail "%s/%s: the fallback aborted instead of committing" suite name;
    if get "payload_intact" <> 1. then
      fail "%s/%s: corrupted residual leaked into the reconstructed image" suite name
  | "trace-overhead", "determinism" ->
    if get "identical" <> 1. then
      fail "%s/%s: a tracing-off run diverged with sinks attached" suite name;
    ignore (get "makespan_us");
    ignore (get "wire_bytes")
  | "trace-overhead", "host-overhead" ->
    if get "spans" < 1. then fail "%s/%s: traced run emitted no spans" suite name;
    if get "overhead_frac" >= 0.05 then
      fail "%s/%s: tracing-on host overhead %.3f above the 0.05 bar" suite name
        (get "overhead_frac")
  | "crash-recovery", "failover" ->
    if get "restored" < 1. then
      fail "%s/%s: the crashed thread was never restored" suite name;
    if get "lost" <> 0. || get "stranded" <> 0. then
      fail "%s/%s: checkpointed failover lost or stranded a thread" suite name;
    if get "output_identical" <> 1. then
      fail "%s/%s: failover run diverged from the fault-free guest output" suite name
  | "crash-recovery", "crash-mid-migration" ->
    if get "restored" < 1. then
      fail "%s/%s: the in-flight thread was never restored" suite name;
    if get "lost" <> 0. || get "stranded" <> 0. then
      fail "%s/%s: mid-flight crash lost or stranded a thread" suite name;
    if get "output_identical" <> 1. then
      fail "%s/%s: mid-flight crash diverged from the fault-free guest output" suite
        name;
    if get "aborted_groups" < 1. then
      fail "%s/%s: the crash missed the migration in flight (no group aborted or \
            abandoned)" suite name
  | "crash-recovery", "double-crash" ->
    if get "restored" < 2. then
      fail "%s/%s: fewer than 2 threads restored across two crashes" suite name;
    if get "stranded" <> 0. || get "live_at_end" <> 0. then
      fail "%s/%s: double crash left threads behind" suite name
  | "crash-recovery", "degradation" ->
    if get "lost" < 1. then
      fail "%s/%s: crash without checkpoints reported no typed loss" suite name;
    if get "restored" <> 0. then
      fail "%s/%s: a thread was restored with checkpointing off" suite name;
    if get "live_at_end" <> 0. then
      fail "%s/%s: degraded run hung instead of declaring the loss" suite name
  | "crash-recovery", "checkpoint-dedup" ->
    if get "snapshots" < 4. then
      fail "%s/%s: too few snapshots (%.0f) for a steady-state measurement" suite
        name (get "snapshots");
    if get "ckpt_ratio_steady" > 0.25 then
      fail "%s/%s: steady-state checkpoint ratio %.2f above the 0.25 bar" suite name
        (get "ckpt_ratio_steady");
    if get "dedup_pages" < 1. then
      fail "%s/%s: the content pool never deduplicated a page" suite name
  | "mvm", "loop-heavy" ->
    if get "speedup_blocks_vs_step" < 5.0 then
      fail "%s/%s: blocks engine %.2fx over step, below the 5x bar" suite name
        (get "speedup_blocks_vs_step");
    ignore (get "step_ns_per_instr");
    ignore (get "blocks_ns_per_instr")
  | "mvm", "call-heavy" ->
    if get "speedup_blocks_vs_step" < 2.5 then
      fail "%s/%s: blocks engine %.2fx over step, below the 2.5x bar" suite name
        (get "speedup_blocks_vs_step")
  | "mvm", "scheduler" ->
    if get "minor_words_per_instr" > 0.32 then
      fail "%s/%s: %.3f minor words per instruction, above the 0.32 bar" suite name
        (get "minor_words_per_instr");
    ignore (get "host_ns_per_instr");
    ignore (get "scheduler_overhead")
  | "mvm", "engine-parity" ->
    if get "identical" <> 1. then
      fail
        "%s/%s: step/blocks diverged on virtual-time outputs" suite name;
    ignore (get "makespan_us");
    ignore (get "wire_bytes");
    if get "migrations" < 1. then
      fail "%s/%s: parity workload never migrated" suite name
  | "migration", "host-hop" ->
    if get "speedup_vs_buffered" < 2. then
      fail "%s/%s: ownership hop %.2fx over the buffered image, below the 2x bar" suite
        name (get "speedup_vs_buffered");
    ignore (get "ns_per_kb")
  | "bitset", "find_run_round_robin" ->
    if get "speedup_vs_ref" < 10. then
      fail "%s/%s: round-robin find_run %.2fx over the reference, below the 10x bar"
        suite name (get "speedup_vs_ref")
  | "json", "parse_ctl_mix" ->
    if get "speedup_vs_ref" < 1.5 then
      fail "%s/%s: the cursor reader %.2fx over the reference, below the 1.5x bar"
        suite name (get "speedup_vs_ref")
  | "balancer-scale", "flatness" ->
    if get "minor_words_per_event_ratio" > 1.5 then
      fail "%s/%s: 2000 workers allocate %.2fx the minor words per event of 125, above \
            the 1.5x bar" suite name (get "minor_words_per_event_ratio");
    if get "ns_per_event_ratio" > 2.5 then
      fail "%s/%s: 2000 workers cost %.2fx the host ns per event of 125, above the 2.5x \
            bar" suite name (get "ns_per_event_ratio")
  | "trace-overhead", "telemetry-placement" ->
    if get "heat_imbalance_access" >= get "heat_imbalance_load" then
      fail "%s/%s: access-imbalance did not beat the load policy on node heat" suite
        name;
    if get "hot_moved_access" < 1. then
      fail "%s/%s: access-imbalance never moved a hot writer" suite name;
    if get "hot_moved_load" <> 0. then
      fail "%s/%s: the load policy acted on a balanced run queue" suite name
  | _ -> ()

let () =
  let rec parse path required = function
    | "--require-suite" :: s :: rest -> parse path (s :: required) rest
    | [ "--require-suite" ] -> fail "--require-suite needs a NAME"
    | a :: rest -> parse (Some a) required rest
    | [] -> (path, required)
  in
  let path, required = parse None [] (List.tl (Array.to_list Sys.argv)) in
  let path =
    match path with
    | Some p -> p
    | None -> fail "usage: check_bench FILE [--require-suite NAME]..."
  in
  let json =
    match Json.parse (read_file path) with
    | Ok j -> j
    | Error e -> fail "%s: invalid JSON: %s" path e
  in
  (match str_field "schema" json with
   | Some "pm2-bench/1" -> ()
   | Some s -> fail "%s: unexpected schema %S" path s
   | None -> fail "%s: no schema field" path);
  let results =
    match Option.bind (Json.member "results" json) Json.to_list with
    | Some l -> l
    | None -> fail "%s: no results array" path
  in
  if results = [] then fail "%s: empty results" path;
  let metrics_total = ref 0 in
  let suites_seen = ref [] in
  List.iter
    (fun e ->
       let suite = match str_field "suite" e with
         | Some s -> s
         | None -> fail "entry without suite" in
       let name = match str_field "name" e with
         | Some n -> n
         | None -> fail "entry in suite %s without name" suite in
       if not (List.mem suite !suites_seen) then suites_seen := suite :: !suites_seen;
       match Json.member "metrics" e with
       | Some (Json.Obj fields) ->
         if fields = [] then fail "%s/%s: no metrics" suite name;
         let metrics =
           List.map
             (fun (k, v) ->
                match Json.to_float v with
                | Some f when Float.is_finite f ->
                  incr metrics_total;
                  (k, f)
                | _ -> fail "%s/%s: metric %s is not a finite number" suite name k)
             fields
         in
         check_known_suite ~suite ~name metrics
       | _ -> fail "%s/%s: no metrics object" suite name)
    results;
  List.iter
    (fun s ->
       if not (List.mem s !suites_seen) then
         fail "%s: required suite %S has no entries" path s)
    required;
  Printf.printf "check_bench: %s ok (%d entries, %d metrics)\n" path
    (List.length results) !metrics_total

(* Tests of the benchmark itself: generators, statistics, fingerprints,
   failure counting, metric names and the result line. *)

open Perfbench
module Json = Pm2_obs.Json

let check = Alcotest.(check bool)

(* {1 Generators} *)

let specs seed = [ Gen.compute seed; Gen.swarm seed; Gen.isochurn seed ]

let args (s : Gen.cluster_spec) = List.map (fun (sp : Gen.spawn) -> (sp.node, sp.arg)) s.spawns

let mix_prefix seed =
  let next = Gen.ctl_mix seed in
  List.init 200 (fun _ -> next ())

let test_deterministic () =
  List.iter2
    (fun a b -> check "same seed, same spawns" true (args a = args b))
    (specs 7) (specs 7);
  check "same seed, same jobs" true (Gen.ctl_jobs 7 = Gen.ctl_jobs 7);
  check "same seed, same mix" true (mix_prefix 7 = mix_prefix 7)

let test_seeds_differ () =
  List.iter2
    (fun a b -> check "different seeds, different spawns" false (args a = args b))
    (specs 1) (specs 2);
  check "different jobs" false (Gen.ctl_jobs 1 = Gen.ctl_jobs 2);
  check "different mix" false (mix_prefix 1 = mix_prefix 2)

let test_work_constant () =
  (* totals are fixed; only their split moves with the seed *)
  let iters seed =
    List.fold_left
      (fun n (s : Gen.spawn) -> n + (s.arg land ((1 lsl Guest.iters_bits) - 1)))
      0 (Gen.compute seed).spawns
  in
  check "compute iterations fixed" true (iters 1 = Gen.compute_total_iters && iters 5 = iters 1);
  let demand seed =
    List.fold_left (fun n (s : Gen.spawn) -> n + (s.arg mod Guest.demand_mod)) 0 (Gen.swarm seed).spawns
  in
  check "swarm demand fixed" true (demand 1 = demand 9)

let test_keys_unique () =
  List.iter
    (fun (s : Gen.cluster_spec) ->
      let keys = List.concat_map (fun (sp : Gen.spawn) -> List.map Fingerprint.line_key sp.expect) s.spawns in
      check "self-check keys unique" true
        (List.length keys = List.length (List.sort_uniq compare keys)))
    (specs 3)

(* The predictors agree with the simulator on a small cluster. *)
let test_predictions () =
  let spec : Gen.cluster_spec =
    let take n l = List.filteri (fun i _ -> i < n) l in
    let c = Gen.compute 4 and w = Gen.swarm ~workers:12 4 and i = Gen.isochurn 4 in
    {
      nodes = Guest.churn_nodes;
      balancer = w.balancer;
      spawns =
        List.map
          (fun (s : Gen.spawn) ->
            (* short kernels: keep the key, shrink the iteration count *)
            let x0 = s.arg lsr Guest.iters_bits in
            { s with arg = Guest.compute_arg ~x0 ~iters:300;
                     expect = [ Guest.predict_compute ~x0 ~iters:300 ] })
          (take 3 c.spawns)
        @ w.spawns @ take 4 i.spawns;
    }
  in
  let it = Cluster_work.untraced spec in
  Alcotest.(check int) "no failed operation" 0 it.failed;
  Alcotest.(check int) "every operation attempted" (List.length spec.spawns) it.attempted;
  let tr = Cluster_work.traced spec in
  check "traced fingerprint = untraced" true (Fingerprint.equal it.fp tr.t_fp)

(* {1 Statistics} *)

let ints a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

let test_percentiles () =
  let opt = Alcotest.(option (float 0.)) in
  Alcotest.check opt "p50 of 1..100" (Some 50.) (Stats.percentile (ints 1 100) 50);
  Alcotest.check opt "p99 of 1..1000 (10 beyond)" (Some 990.) (Stats.percentile (ints 1 1000) 99);
  Alcotest.check opt "p99 of 1..999 (9 beyond)" None (Stats.percentile (ints 1 999) 99);
  Alcotest.check opt "p99 of 100 samples" None (Stats.percentile (ints 1 100) 99);
  Alcotest.check opt "nearest rank, unsorted input" (Some 2.)
    (Stats.percentile ~min_beyond:1 [ 3.; 1.; 2. ] 50);
  Alcotest.check opt "empty" None (Stats.percentile [] 50);
  Alcotest.(check int) "rank of p99 over 1000" 990 (Stats.rank ~n:1000 99);
  Alcotest.(check (float 1e-9)) "median, even count" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  (* three full blocks, one with a burst in its tail, and a short block *)
  let burst = List.map (fun x -> if x > 900. then x *. 100. else x) (ints 1 1000) in
  let xs = ints 1 1000 @ burst @ ints 1 1000 @ ints 1 500 in
  Alcotest.check opt "block p99 ignores one burst" (Some 990.) (Stats.block_percentile xs 99);
  Alcotest.check opt "no full block" None (Stats.block_percentile (ints 1 999) 99)

(* {1 Fingerprints and failure counting} *)

let fp =
  {
    Fingerprint.makespan = 1234.5;
    wire_bytes = 10;
    wire_msgs = 2;
    migrations = 1;
    negotiations = 0;
    lines = 3;
    digest = Fingerprint.digest_lines [ "a"; "b"; "c" ];
  }

let test_fingerprints () =
  check "equal to itself" true (Fingerprint.equal fp { fp with lines = 3 });
  List.iter
    (fun other -> check "any field differs" false (Fingerprint.equal fp other))
    [ { fp with makespan = 1234.6 }; { fp with wire_bytes = 11 }; { fp with wire_msgs = 3 };
      { fp with migrations = 2 }; { fp with negotiations = 1 }; { fp with lines = 4 };
      { fp with digest = Fingerprint.digest_lines [ "a"; "c"; "b" ] } ];
  let other = { fp with migrations = 9 } in
  let bad, reference = Fingerprint.disagreements [ Some fp; Some fp; Some other; None ] in
  Alcotest.(check int) "one different, one missing" 2 bad;
  Alcotest.(check string) "reference is the first" (Fingerprint.to_string fp) reference;
  let bad, _ = Fingerprint.disagreements ~pinned:(Fingerprint.to_string other) [ Some fp; Some fp ] in
  Alcotest.(check int) "pinned mismatch fails every run" 2 bad;
  let bad, _ = Fingerprint.disagreements ~pinned:(Fingerprint.to_string fp) [ Some fp; Some fp ] in
  Alcotest.(check int) "pinned match" 0 bad

let test_failed_counting () =
  let expect = [ [ "c 1 10" ]; [ "c 2 20" ]; [ "i 48 5"; "i 49 5" ]; [ "w 7 3" ] ] in
  let count printed = Fingerprint.failed_checks ~expect ~printed in
  Alcotest.(check int) "all printed" 0 (count [ "w 7 3"; "i 49 5"; "c 2 20"; "i 48 5"; "c 1 10" ]);
  Alcotest.(check int) "one missing" 1 (count [ "c 1 10"; "c 2 20"; "i 48 5"; "i 49 5" ]);
  Alcotest.(check int) "wrong value" 1 (count [ "c 1 11"; "c 2 20"; "i 48 5"; "i 49 5"; "w 7 3" ]);
  Alcotest.(check int) "duplicated line" 1
    (count [ "c 1 10"; "c 1 10"; "c 2 20"; "i 48 5"; "i 49 5"; "w 7 3" ]);
  Alcotest.(check int) "one of a thread's lines missing" 1
    (count [ "c 1 10"; "c 2 20"; "i 48 5"; "w 7 3" ]);
  Alcotest.(check int) "nothing printed" 4 (count []);
  Alcotest.(check (float 0.)) "failed_frac" 0.25 (Report.failed_frac ~attempted:8 ~failed:2)

(* {1 Metric names and the result line} *)

(* Metric names: a letter or digit, then up to 63 of [A-Za-z0-9_.-]. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s


let dummy_counts : Cluster_work.counts =
  { negotiations = 0; migrations = 0; migration_bytes = 0; msgs = 0; bytes = 0; retransmits = 0;
    delta_fallbacks = 0; checkpoint_saves = 0; collector_events = 0; threads_us = 0. }

let all_metrics () =
  let e2e = Metrics.e2e_metrics ~wall:[ 1 ] ~npe:[ 1. ] ~setup:[ 1 ] ~rss:1. ~lat:[ 1 ] in
  let layers =
    Metrics.layer_metrics (Metrics.sum_ledgers [ Layers.create () ]) dummy_counts Metrics.no_extras
  in
  (e2e, layers)

let test_metric_names () =
  let e2e, layers = all_metrics () in
  let names = List.map (fun (m : Report.metric) -> m.name) (e2e @ layers) in
  List.iter (fun n -> check ("valid name " ^ n) true (valid_name n)) names;
  check "names unique" true (List.length names = List.length (List.sort_uniq compare names));
  check "rejects bad names" false
    (List.exists valid_name [ ""; ".x"; "a b"; "a/b"; String.make 65 'a' ]);
  Alcotest.(check (list string)) "end-to-end set"
    [ "wall_s"; "ns_per_event"; "setup_s"; "peak_rss_mb"; "req_p50_us"; "req_p99_us" ]
    (List.map (fun (m : Report.metric) -> m.name) e2e)

let test_result_line () =
  let e2e, _ = all_metrics () in
  let line = Report.result_line ~correct:true ~attempted:4 ~failed:0 (Report.metric "nan" "s" nan :: e2e) in
  match Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let keys = match j with Json.Obj kv -> List.map fst kv | _ -> [] in
    Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ] keys;
    let m = Option.get (Json.member "metrics" j) in
    let wall = Option.get (Json.member "wall_s" m) in
    Alcotest.(check (option string)) "unit" (Some "s")
      (Option.bind (Json.member "unit" wall) Json.to_string_val)

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [ Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
          Alcotest.test_case "differ across seeds" `Quick test_seeds_differ;
          Alcotest.test_case "work held constant" `Quick test_work_constant;
          Alcotest.test_case "self-check keys unique" `Quick test_keys_unique;
          Alcotest.test_case "predictions match the simulator" `Quick test_predictions ] );
      ("stats", [ Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles ]);
      ( "verification",
        [ Alcotest.test_case "fingerprints compare" `Quick test_fingerprints;
          Alcotest.test_case "failed operations counted" `Quick test_failed_counting ] );
      ( "report",
        [ Alcotest.test_case "metric names" `Quick test_metric_names;
          Alcotest.test_case "result line" `Quick test_result_line ] );
    ]

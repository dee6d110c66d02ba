open Pm2_util
open Pm2_support

(* -- Prng -- *)

let test_deterministic () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.next a) (Prng.next b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:8 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.next a = Prng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_bounds () =
  let p = Prng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in p (-5) 5 in
    Alcotest.(check bool) "int_in range" true (v >= -5 && v <= 5)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound <= 0") (fun () ->
      ignore (Prng.int p 0))

let test_float_range () =
  let p = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let f = Prng.float p in
    Alcotest.(check bool) "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_uniformity () =
  (* Coarse chi-square-ish sanity: each of 8 buckets gets 8-17% of 8000. *)
  let p = Prng.create ~seed:11 in
  let buckets = Array.make 8 0 in
  for _ = 1 to 8000 do
    let i = Prng.int p 8 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "bucket balance" true (c > 640 && c < 1360))
    buckets

let test_exponential_mean () =
  let p = Prng.create ~seed:5 in
  let n = 20000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Prng.exponential p ~mean:100.
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 100" true (mean > 90. && mean < 110.)

let test_shuffle_permutes () =
  let p = Prng.create ~seed:13 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted;
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 50 Fun.id)

let test_split_independent () =
  let p = Prng.create ~seed:17 in
  let q = Prng.split p in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.next p = Prng.next q then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 5)

(* -- Stats -- *)

let feq msg a b = Alcotest.(check (float 1e-9)) msg a b

let test_mean_stddev () =
  feq "mean" 3. (Stats.mean [ 1.; 2.; 3.; 4.; 5. ]);
  feq "stddev" (sqrt 2.5) (Stats.stddev [ 1.; 2.; 3.; 4.; 5. ]);
  feq "stddev single" 0. (Stats.stddev [ 42. ])

let test_percentile () =
  let xs = [ 10.; 20.; 30.; 40. ] in
  feq "p0" 10. (Stats.percentile 0. xs);
  feq "p100" 40. (Stats.percentile 100. xs);
  feq "p50" 25. (Stats.percentile 50. xs);
  feq "single" 5. (Stats.percentile 73. [ 5. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile 50. []))

let test_summarize () =
  let s = Stats.summarize [ 4.; 1.; 3.; 2. ] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  feq "mean" 2.5 s.Stats.mean;
  feq "min" 1. s.Stats.min;
  feq "max" 4. s.Stats.max;
  feq "median" 2.5 s.Stats.median

let test_acc_matches_batch () =
  let xs = [ 3.1; 4.1; 5.9; 2.6; 5.3; 5.8 ] in
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) xs;
  Alcotest.(check int) "n" (List.length xs) (Stats.Acc.n acc);
  Alcotest.(check (float 1e-9)) "mean" (Stats.mean xs) (Stats.Acc.mean acc);
  Alcotest.(check (float 1e-9)) "stddev" (Stats.stddev xs) (Stats.Acc.stddev acc);
  feq "min" 2.6 (Stats.Acc.min acc);
  feq "max" 5.9 (Stats.Acc.max acc);
  Alcotest.(check (float 1e-9)) "total" (List.fold_left ( +. ) 0. xs) (Stats.Acc.total acc)

let prop_acc_welford =
  QCheck2.Test.make ~name:"online Acc agrees with batch stats"
    QCheck2.Gen.(list_size (int_range 2 50) (float_range (-1000.) 1000.))
    (fun xs ->
       let acc = Stats.Acc.create () in
       List.iter (Stats.Acc.add acc) xs;
       abs_float (Stats.Acc.mean acc -. Stats.mean xs) < 1e-6
       && abs_float (Stats.Acc.stddev acc -. Stats.stddev xs) < 1e-6)

(* -- Stats.Histogram -- *)

module H = Stats.Histogram

let test_hist_bucket_boundaries () =
  (* Buckets are (prev, bound]: a value equal to a bound lands in that
     bound's bucket, the next representable value above it in the next. *)
  let h = H.create ~bounds:[| 1.; 2.; 5. |] () in
  List.iter (H.add h) [ 0.5; 1.0; 1.5; 2.0; 4.9; 5.0; 5.1; 100. ];
  Alcotest.(check int) "buckets incl. overflow" 4 (H.num_buckets h);
  Alcotest.(check (list int)) "per-bucket counts" [ 2; 2; 2; 2 ]
    (List.init 4 (H.bucket_count h));
  feq "bucket uppers" 1. (H.bucket_upper h 0);
  feq "middle upper" 2. (H.bucket_upper h 1);
  feq "overflow reports observed max" 100. (H.bucket_upper h 3);
  Alcotest.(check int) "count" 8 (H.count h);
  feq "min" 0.5 (H.min_value h);
  feq "max" 100. (H.max_value h)

let test_hist_empty () =
  let h = H.create () in
  Alcotest.(check int) "count" 0 (H.count h);
  feq "sum" 0. (H.sum h);
  feq "mean" 0. (H.mean h);
  (* The empty histogram must never leak its internal ±infinity
     sentinels: reports and JSON encoders would turn them into garbage. *)
  feq "min" 0. (H.min_value h);
  feq "max" 0. (H.max_value h);
  Alcotest.(check (option (float 1e-9))) "p50 of nothing" None (H.percentile h 50.);
  Alcotest.(check (option (float 1e-9))) "p100 of nothing" None (H.percentile h 100.);
  Alcotest.check_raises "no bounds" (Invalid_argument "Histogram.create: no bounds")
    (fun () -> ignore (H.create ~bounds:[||] ()));
  Alcotest.check_raises "unsorted bounds"
    (Invalid_argument "Histogram.create: bounds not strictly increasing") (fun () ->
        ignore (H.create ~bounds:[| 1.; 1. |] ()))

let test_hist_single_sample () =
  (* One sample: every quantile — p0 through p100, including the p95/p99
     the metrics report prints — is that sample, never a bucket bound
     beyond it and never an infinity. *)
  let h = H.create () in
  H.add h 42.;
  Alcotest.(check int) "count" 1 (H.count h);
  feq "min" 42. (H.min_value h);
  feq "max" 42. (H.max_value h);
  feq "mean" 42. (H.mean h);
  List.iter
    (fun p ->
       match H.percentile h p with
       | Some v -> feq (Printf.sprintf "p%g is the sample" p) 42. v
       | None -> Alcotest.failf "p%g of one sample is None" p)
    [ 0.; 50.; 95.; 99.; 100. ];
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Histogram.percentile: p out of range") (fun () ->
        ignore (H.percentile h 101.))

let test_hist_percentile () =
  let h = H.create () in
  for i = 1 to 100 do
    H.add h (float_of_int i)
  done;
  (* Quantiles are bucket uppers clamped to the observed extrema, so they
     are monotone in p and exact at the ends. *)
  feq "p0 = min" 1. (Option.get (H.percentile h 0.));
  feq "p100 = max" 100. (Option.get (H.percentile h 100.));
  let prev = ref 0. in
  List.iter
    (fun p ->
       let v = Option.get (H.percentile h p) in
       Alcotest.(check bool) "monotone" true (v >= !prev);
       Alcotest.(check bool) "clamped to range" true (v >= 1. && v <= 100.);
       prev := v)
    [ 10.; 25.; 50.; 75.; 90.; 95.; 99. ];
  feq "p50 bucket upper" 50. (Option.get (H.percentile h 50.))

let test_hist_merge () =
  let bounds = [| 10.; 100. |] in
  let a = H.create ~bounds () and b = H.create ~bounds () in
  List.iter (H.add a) [ 1.; 50. ];
  List.iter (H.add b) [ 5.; 500. ];
  let m = H.merge a b in
  Alcotest.(check int) "merged count" 4 (H.count m);
  feq "merged sum" 556. (H.sum m);
  feq "merged min" 1. (H.min_value m);
  feq "merged max" 500. (H.max_value m);
  Alcotest.(check (list int)) "merged buckets" [ 2; 1; 1 ]
    (List.init 3 (H.bucket_count m));
  (* Merging must not alias its inputs. *)
  H.add m 7.;
  Alcotest.(check int) "inputs untouched" 2 (H.count a);
  let other = H.create ~bounds:[| 1.; 2. |] () in
  Alcotest.check_raises "incompatible bounds"
    (Invalid_argument "Histogram.merge: bounds differ") (fun () ->
        ignore (H.merge a other))

(* -- Units / Table -- *)

let test_units () =
  Alcotest.(check string) "bytes" "512 B" (Units.bytes_to_string 512);
  Alcotest.(check string) "KB" "64 KB" (Units.bytes_to_string (Units.kib 64));
  Alcotest.(check string) "MB" "8 MB" (Units.bytes_to_string (Units.mib 8));
  Alcotest.(check string) "GB" "3.5 GB" (Units.bytes_to_string (Units.gib 7 / 2));
  Alcotest.(check string) "us" "74.3 us" (Units.us_to_string 74.3);
  Alcotest.(check string) "ms" "1.25 ms" (Units.us_to_string 1250.);
  Alcotest.(check string) "s" "2.000 s" (Units.us_to_string 2_000_000.)

let test_table_render () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "value" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_rowf t "%s|%d" "bb" 22;
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "line count" 4 (List.length lines);
  Alcotest.(check bool) "row content" true
    (List.exists (fun l -> l = "  bb        22") lines)

let tests =
  [
    Alcotest.test_case "prng deterministic" `Quick test_deterministic;
    Alcotest.test_case "prng seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "prng bounds" `Quick test_bounds;
    Alcotest.test_case "prng float range" `Quick test_float_range;
    Alcotest.test_case "prng uniformity" `Quick test_uniformity;
    Alcotest.test_case "prng exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "prng shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "prng split independence" `Quick test_split_independent;
    Alcotest.test_case "stats mean/stddev" `Quick test_mean_stddev;
    Alcotest.test_case "stats percentile" `Quick test_percentile;
    Alcotest.test_case "stats summarize" `Quick test_summarize;
    Alcotest.test_case "stats online acc" `Quick test_acc_matches_batch;
    QCheck_alcotest.to_alcotest prop_acc_welford;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_hist_bucket_boundaries;
    Alcotest.test_case "histogram empty" `Quick test_hist_empty;
    Alcotest.test_case "histogram single sample" `Quick test_hist_single_sample;
    Alcotest.test_case "histogram percentile" `Quick test_hist_percentile;
    Alcotest.test_case "histogram merge" `Quick test_hist_merge;
    Alcotest.test_case "units rendering" `Quick test_units;
    Alcotest.test_case "table rendering" `Quick test_table_render;
  ]

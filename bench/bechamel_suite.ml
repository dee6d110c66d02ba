(* Host wall-clock micro-benchmarks of the allocator and migration code
   paths themselves (Bechamel, monotonic clock) — one [Test.make] per
   paper table/figure:

   - B1/B2: the word-level bitmap scans against the bit-by-bit reference
     model (the paper-geometry 57 344-bit slot bitmap, worst-case
     patterns);
   - B3: the multi-slot search as the paper's round-robin distribution
     actually issues it: a node's own bitmap never holds two adjacent
     slots, so every local [find_run 2] scans the whole map and fails;
   - F11a: the sub-slot isomalloc fast path vs the malloc baseline;
   - F11b: multi-slot isomalloc (negotiation + merged slot) vs malloc;
   - T1:  a full pack/transfer/unpack migration round trip;
   - T2:  one negotiation protocol execution;
   - C1:  the pm2-ctl/1 client's reader: [Json.parse] of a mix of event
     pushes and replies shaped like a ctl session's, against the
     [char option] reference reader [Json_ref].

   These complement the virtual-time figures: virtual time tells you what
   the modelled 1999 cluster would measure; these tell you what the OCaml
   implementation costs on the host today. Results are recorded into
   {!Report} (suite "bechamel" / "bitset" / "json") for
   BENCH_results.json. *)

open Bechamel
open Toolkit
open Pm2_core
module Bitset = Pm2_util.Bitset
module Bitset_ref = Pm2_support.Bitset_ref
module Json_ref = Pm2_support.Json_ref

(* Each staged function allocates and frees (or migrates back and forth),
   so the simulated state is in steady state across samples. *)

(* A benchmark whose staged body runs its operation [batch] times;
   [measure] divides the fit by [batch], so every row stays per
   operation. A batch spans enough work to average out the allocator
   and GC noise that makes a one-operation sample of a short or
   allocating path fit poorly. *)
type bench = { test : Test.t; batch : int }

let bench ?(batch = 1) name f =
  let body = if batch = 1 then f else fun () -> for _ = 1 to batch do f () done in
  { test = Test.make ~name (Staged.stage body); batch }

(* -- bitset scans, paper geometry (57 344 slots) -- *)

let bitset_bits = 57344

(* Worst case for [first_set_from 0]: every bit clear except the last. *)
let mk_sparse set = set (bitset_bits - 1)

(* Worst case for [find_run 8]: short runs of 4 scattered every 64 bits
   (each one a false candidate), with the only adequate run at the end. *)
let mk_scattered set =
  let i = ref 0 in
  while !i < bitset_bits - 64 do
    for j = !i to !i + 3 do set j done;
    i := !i + 64
  done;
  for j = bitset_bits - 9 to bitset_bits - 1 do set j done

let test_bitset_first_set () =
  let w = Bitset.create bitset_bits in
  mk_sparse (Bitset.set w);
  bench ~batch:64 "B1: Bitset.first_set_from, sparse 57344b (word)" (fun () ->
      ignore (Bitset.first_set_from w 0))

let test_bitset_first_set_ref () =
  let r = Bitset_ref.create bitset_bits in
  mk_sparse (Bitset_ref.set r);
  bench "B1: Bitset.first_set_from, sparse 57344b (ref)" (fun () ->
      ignore (Bitset_ref.first_set_from r 0))

let test_bitset_find_run () =
  let w = Bitset.create bitset_bits in
  mk_scattered (Bitset.set w);
  bench "B2: Bitset.find_run 8, scattered 57344b (word)" (fun () ->
      ignore (Bitset.find_run w 8))

let test_bitset_find_run_ref () =
  let r = Bitset_ref.create bitset_bits in
  mk_scattered (Bitset_ref.set r);
  bench "B2: Bitset.find_run 8, scattered 57344b (ref)" (fun () ->
      ignore (Bitset_ref.find_run r 8))

(* Node 3's bitmap under the round-robin distribution over 8 nodes. *)
let mk_round_robin set =
  for i = 0 to bitset_bits - 1 do
    if i mod 8 = 3 then set i
  done

let test_bitset_round_robin () =
  let w = Bitset.create bitset_bits in
  mk_round_robin (Bitset.set w);
  bench "B3: Bitset.find_run 2, round-robin 57344b (word)" (fun () ->
      ignore (Bitset.find_run w 2))

let test_bitset_round_robin_ref () =
  let r = Bitset_ref.create bitset_bits in
  mk_round_robin (Bitset_ref.set r);
  bench "B3: Bitset.find_run 2, round-robin 57344b (ref)" (fun () ->
      ignore (Bitset_ref.find_run r 2))

(* -- allocator / migration / negotiation round trips -- *)

let test_f11a_isomalloc () =
  let c = Harness.cluster () in
  let th = Cluster.host_thread c ~node:0 in
  let env = Cluster.host_env c 0 in
  bench "F11a: isomalloc+isofree 1 KB" (fun () ->
      match Iso_heap.isomalloc env th 1024 with
      | Some a -> Iso_heap.isofree env th a
      | None -> failwith "exhausted")

let test_f11a_malloc () =
  let c = Harness.cluster () in
  let heap = Cluster.node_heap c 0 in
  bench "F11a: malloc+free 1 KB" (fun () ->
      let a = Pm2_heap.Malloc.malloc_exn heap 1024 in
      Pm2_heap.Malloc.free_exn heap a)

let test_f11b_isomalloc () =
  let c = Harness.cluster () in
  let th = Cluster.host_thread c ~node:0 in
  let env = Cluster.host_env c 0 in
  bench ~batch:16 "F11b: isomalloc+isofree 1 MB (multi-slot)" (fun () ->
      match Iso_heap.isomalloc env th (1024 * 1024) with
      | Some a -> Iso_heap.isofree env th a
      | None -> failwith "exhausted")

let test_f11b_malloc () =
  let c = Harness.cluster () in
  let heap = Cluster.node_heap c 0 in
  bench "F11b: malloc+free 1 MB" (fun () ->
      let a = Pm2_heap.Malloc.malloc_exn heap (1024 * 1024) in
      Pm2_heap.Malloc.free_exn heap a)

let test_t1_migration () =
  let c = Harness.cluster () in
  let th = Cluster.host_thread c ~node:0 in
  let dest = ref 1 in
  bench "T1: null-thread migration (one way)" (fun () ->
      Cluster.host_migrate c th ~dest:!dest;
      dest := 1 - !dest)

let test_t2_negotiation () =
  let c = Harness.cluster ~nodes:4 () in
  let neg = Cluster.negotiation c in
  bench "T2: negotiation protocol (4 nodes)" (fun () ->
      ignore (Negotiation.execute neg ~requester:0 ~n:4))

(* -- the pm2-ctl/1 reader -- *)

(* About what a ctl session's client reads, by bytes: seven in ten are
   event pushes (mostly packet traffic, stamped with non-integral
   times), the rest replies, mostly thread lists. *)
let ctl_frame_mix =
  let module P = Pm2_svc.Protocol in
  let module E = Pm2_obs.Event in
  let events =
    [ E.Packet_send { src = 0; dst = 2; bytes = 4152 };
      E.Packet_deliver { src = 0; dst = 2; bytes = 4152 };
      E.Block_alloc { heap = E.Iso; addr = 0x7f3a_2000; bytes = 96 };
      E.Net_retransmit { src = 1; dst = 3; seq = 118; attempt = 2; bytes = 576 };
      E.Migration_phase { tid = 37; phase = E.Pack; bytes = 12_800; slots = 3; dur = 18.4 };
      E.Checkpoint { tid = 41; node = 1; bytes = 2048; full_bytes = 65_536; new_pages = 1 };
      E.Thread_printf { tid = 33; text = "iteration 12 on node 2" } ]
  in
  let pushes =
    List.concat (List.init 4 (fun _ -> events))
    |> List.mapi (fun i ev ->
        P.encode_event ~sub:1 ~time:(1000. +. (float_of_int i *. 12.7)) ~node:(i mod 4) ev)
  in
  let threads =
    List.init 40 (fun i ->
        { Pm2_svc.Session.ti_tid = 32 + i; ti_node = i mod 4;
          ti_state = (if i mod 3 = 0 then "blocked" else "ready");
          ti_pending_dest = None })
  in
  pushes
  @ [ P.encode_reply ~id:7 (Ok (P.Threads threads));
      P.encode_reply ~id:8 (Ok (P.Stepped { events = 64; time = 1355.6; live = 40; pending = 17 }))
    ]

let parse_mix parse () = List.iter (fun s -> ignore (parse s)) ctl_frame_mix

let test_c1_parse () = bench "C1: Json.parse, ctl frame mix (new)" (parse_mix Pm2_obs.Json.parse)

let test_c1_parse_ref () =
  bench "C1: Json.parse, ctl frame mix (ref)" (parse_mix Json_ref.parse)

(* The reader's speedup for the check_bench bar: the median of 101
   ref/new time ratios, each over 5 mixes parsed by one reader right
   after the other (which goes first alternates). A slow host spell then
   hits both sides of a pair, and a pair short enough to fit in one
   scheduler slice is rarely split; the ratio of the two bechamel fits,
   taken at different moments, read from 1.2 to 3.2 with another process
   on the same CPU. *)
let c1_paired_speedup () =
  let time parse =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 5 do
      parse_mix parse ()
    done;
    Unix.gettimeofday () -. t0
  in
  let ratios =
    List.init 101 (fun i ->
        if i land 1 = 0 then
          let r = time Json_ref.parse in
          r /. time Pm2_obs.Json.parse
        else
          let n = time Pm2_obs.Json.parse in
          time Json_ref.parse /. n)
  in
  Pm2_util.Stats.percentile 50. ratios

(* Run [benches] under bechamel and return [(name, ns_per_op, r2)] rows,
   sorted by name. *)
let measure ~quota benches =
  let batch name =
    (List.find (fun b -> "pm2/" ^ Test.name b.test = name) benches).batch
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let grouped = Test.make_grouped ~name:"pm2" (List.map (fun b -> b.test) benches) in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    Analyze.merge ols instances (List.map (fun i -> Analyze.all ols i raw) instances)
  in
  match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> []
  | Some per_test ->
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) per_test []
    |> List.sort compare
    |> List.map (fun (name, ols) ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e /. float_of_int (batch name)
          | _ -> nan
        in
        let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
        (name, est, r2))

let find_ns rows needle =
  List.find_map
    (fun (name, ns, _) ->
       (* bechamel prefixes group names; match on the test's own label *)
       let contains =
         let nl = String.length needle and hl = String.length name in
         let rec go i = i + nl <= hl && (String.sub name i nl = needle || go (i + 1)) in
         go 0
       in
       if contains then Some ns else None)
    rows

(* Record the rows and each fast-vs-reference speedup into the report. *)
let record_rows rows =
  List.iter
    (fun (name, ns, r2) ->
       Report.record ~suite:"bechamel" ~name [ ("ns_per_op", ns); ("r_square", r2) ])
    rows;
  List.iter
    (fun (label, fast, suite, tag, params) ->
       match
         ( find_ns rows (Printf.sprintf "%s (%s)" label fast),
           find_ns rows (Printf.sprintf "%s (ref)" label) )
       with
       | Some w, Some r when w > 0. ->
         let speedup = if suite = "json" then c1_paired_speedup () else r /. w in
         Report.record ~suite ~name:tag ~params
           [ (fast ^ "_ns_per_op", w); ("ref_ns_per_op", r); ("speedup_vs_ref", speedup) ]
       | _ -> ())
    (let bits = [ ("bits", string_of_int bitset_bits) ] in
     [
       ("B1: Bitset.first_set_from, sparse 57344b", "word", "bitset", "first_set_from", bits);
       ("B2: Bitset.find_run 8, scattered 57344b", "word", "bitset", "find_run", bits);
       ("B3: Bitset.find_run 2, round-robin 57344b", "word", "bitset", "find_run_round_robin",
        bits);
       ( "C1: Json.parse, ctl frame mix", "new", "json", "parse_ctl_mix",
         [ ("frames", string_of_int (List.length ctl_frame_mix)) ] );
     ])

let print_rows rows =
  let t = Pm2_support.Table.create [ "benchmark"; "ns/op (host)"; "r^2" ] in
  List.iter (fun (name, ns, r2) -> Pm2_support.Table.add_rowf t "%s|%.0f|%.3f" name ns r2) rows;
  Pm2_support.Table.print t

let full_tests () =
  [
    test_bitset_first_set ();
    test_bitset_first_set_ref ();
    test_bitset_find_run ();
    test_bitset_find_run_ref ();
    test_bitset_round_robin ();
    test_bitset_round_robin_ref ();
    test_f11a_malloc ();
    test_f11a_isomalloc ();
    test_f11b_malloc ();
    test_f11b_isomalloc ();
    test_t1_migration ();
    test_t2_negotiation ();
    test_c1_parse ();
    test_c1_parse_ref ();
  ]

let run_suite () =
  Harness.section "Bechamel: host wall-clock cost of the implementation paths";
  let rows = measure ~quota:0.4 (full_tests ()) in
  print_rows rows;
  record_rows rows;
  Harness.note "host wall-clock of the same code paths the virtual-time figures model;";
  Harness.note "they measure this OCaml implementation, not the 1999 testbed"

(* Trimmed variant for the @perf-smoke alias: the bitset and reader
   pairs (the speedup entries the trajectory tracks and check_bench
   gates) plus the F11a fast path, under a short quota. *)
let run_smoke () =
  Harness.section "Bechamel (smoke): trimmed wall-clock suite";
  let rows =
    measure ~quota:0.1
      [
        test_bitset_first_set ();
        test_bitset_first_set_ref ();
        test_bitset_find_run ();
        test_bitset_find_run_ref ();
        test_bitset_round_robin ();
        test_bitset_round_robin_ref ();
        test_f11a_malloc ();
        test_f11a_isomalloc ();
        test_c1_parse ();
        test_c1_parse_ref ();
      ]
  in
  print_rows rows;
  record_rows rows

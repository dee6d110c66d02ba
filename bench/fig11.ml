(* Fig. 11 — "Compared performance of malloc and pm2_isomalloc for
   respectively small and large requests in a 2-node configuration."

   The paper plots average allocation time against block size, with slots
   distributed round-robin, so every multi-slot request (> 64 KB) pays a
   negotiation. We print both series; the paper's qualitative result to
   look for: the two curves are nearly identical, isomalloc sits a small,
   roughly constant amount above malloc once requests span several slots,
   and the overhead becomes insignificant for large requests. *)

open Pm2_core
module Table = Pm2_support.Table

let series ~id ~title ~sizes ~iters =
  Harness.section title;
  let t =
    Table.create
      [ "block size (bytes)"; "malloc (us)"; "pm2_isomalloc (us)"; "overhead"; "negotiations" ]
  in
  List.iter
    (fun size ->
       let m, _ = Harness.avg_alloc_time Harness.Malloc ~size ~iters in
       let i, c = Harness.avg_alloc_time Harness.Isomalloc ~size ~iters in
       let negs = Negotiation.count (Cluster.negotiation c) in
       Report.record ~suite:id ~name:(Printf.sprintf "alloc %d B" size)
         ~params:[ ("size", string_of_int size); ("iters", string_of_int iters) ]
         [
           ("malloc_us", m);
           ("isomalloc_us", i);
           ("negotiations", float_of_int negs);
         ];
       Table.add_rowf t "%d|%.1f|%.1f|%+.1f%%|%d" size m i ((i -. m) /. m *. 100.) negs)
    sizes;
  Table.print t

let small () =
  series ~id:"f11-small"
    ~title:"Fig. 11 (top): small requests, 0-500 KB, 2 nodes, round-robin slots"
    ~sizes:
      [
        1_024; 4_096; 16_384; 50_000; 65_536; 100_000; 150_000; 200_000; 250_000;
        300_000; 350_000; 400_000; 450_000; 500_000;
      ]
    ~iters:25;
  Harness.note
    "paper: both curves near-linear and close; isomalloc slightly above malloc once";
  Harness.note
    "requests exceed the 64 KB slot (every multi-slot allocation negotiates under";
  Harness.note "round-robin); ~6000 us at 500 KB";
  (* Sanity: on the fast path (well below one slot) the two allocators are
     indistinguishable. *)
  let m, _ = Harness.avg_alloc_time Harness.Malloc ~size:4_096 ~iters:25 in
  let i, _ = Harness.avg_alloc_time Harness.Isomalloc ~size:4_096 ~iters:25 in
  Harness.note "fast-path check at 4 KB: malloc %.1f us vs isomalloc %.1f us;" m i;
  Harness.note
    "the bumps between 16 KB and 64 KB are slot-granularity fragmentation (blocks";
  Harness.note "that don't divide the 64 KB slot leave a paid-for tail)"

let large () =
  series ~id:"f11-large"
    ~title:"Fig. 11 (bottom): large requests, 1-8 MB, 2 nodes, round-robin slots"
    ~sizes:(List.init 8 (fun k -> (k + 1) * 1024 * 1024))
    ~iters:10;
  Harness.note "paper: ~100000 us at 8 MB; the negotiation overhead is";
  Harness.note "\"small and rather insignificant compared to the total allocation time\""

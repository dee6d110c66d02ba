(* Ablations over the design choices the paper discusses but does not plot:

   A1 initial slot distribution vs negotiation frequency (§4.1 "it is
      therefore important to choose a good initial slot distribution");
   A2 migration packing: blocks-only (§6 optimization) vs full slots;
   A3 the slot cache (§6: released slots stay mmapped);
   A4 post-migration processing: the registered-pointer legacy scheme (§2)
      against the flat iso-address cost;
   A5 slot size (§4.1: fixed at 64 KB so that thread creation is local). *)

open Pm2_core
module Table = Pm2_support.Table
module Stats = Pm2_util.Stats
module Prng = Pm2_util.Prng

(* A mixed allocation workload: mostly sub-slot requests with a tail of
   multi-slot ones, as a data-parallel runtime would issue. *)
let mixed_workload ?slot_size ~distribution ~allocs () =
  let c = Harness.cluster ?slot_size ~distribution () in
  let th = Cluster.host_thread c ~node:0 in
  let env = Cluster.host_env c 0 in
  let prng = Prng.create ~seed:7 in
  ignore (Cluster.drain_charges c 0);
  let live = ref [] in
  for _ = 1 to allocs do
    let size =
      if Prng.int prng 10 < 7 then Prng.int_in prng 64 32_768
      else Prng.int_in prng 131_072 524_288
    in
    (match Iso_heap.isomalloc env th size with
     | Some a -> live := a :: !live
     | None -> failwith "exhausted");
    (* Free roughly half of what we hold, oldest first, to keep churn. *)
    if Prng.bool prng then begin
      match List.rev !live with
      | [] -> ()
      | a :: _ ->
        Iso_heap.isofree env th a;
        live := List.filter (fun x -> x <> a) !live
    end
  done;
  let spent = Cluster.drain_charges c 0 in
  Cluster.check_invariants c;
  (c, spent /. float_of_int allocs)

let distribution () =
  Harness.section "A1: initial slot distribution vs negotiation frequency (2 nodes)";
  let t =
    Table.create
      [ "distribution"; "avg alloc (us)"; "negotiations"; "neg time total (us)"; "slots bought" ]
  in
  List.iter
    (fun d ->
       let c, avg = mixed_workload ~distribution:d ~allocs:150 () in
       let neg = Cluster.negotiation c in
       let bought =
         (Slot_manager.stats (Cluster.node_mgr c 0)).Slot_manager.grants
       in
       Table.add_rowf t "%s|%.1f|%d|%.0f|%d" (Distribution.to_string d) avg
         (Negotiation.count neg)
         (Stats.Acc.total (Negotiation.durations neg))
         bought)
    [
      Distribution.Round_robin;
      Distribution.Block_cyclic 4;
      Distribution.Block_cyclic 32;
      Distribution.Partition;
    ];
  Table.print t;
  Harness.note "round-robin (the paper's default) negotiates for every multi-slot request;";
  Harness.note "coarser distributions keep multi-slot allocations local (paper, 4.1)"

(* A2 — build a fragmented thread (little live data spread over several
   slots), migrate it under each packing, compare wire size and latency. *)
let packing () =
  Harness.section "A2: migration packing - blocks-only (paper 6) vs full slots";
  let t =
    Table.create
      [ "live data"; "slots held"; "packing"; "wire bytes"; "one-way latency (us)" ]
  in
  List.iter
    (fun (keep_every, blocks) ->
       List.iter
         (fun packing ->
            let c = Harness.cluster ~packing () in
            let th = Cluster.host_thread c ~node:0 in
            let env = Cluster.host_env c 0 in
            (* allocate [blocks] 8 KB blocks, then free all but every
               [keep_every]-th: live data spread thinly over many slots. *)
            let addrs = List.init blocks (fun _ -> Option.get (Iso_heap.isomalloc env th 8192)) in
            List.iteri (fun i a -> if i mod keep_every <> 0 then Iso_heap.isofree env th a) addrs;
            let live = List.length (Iso_heap.live_blocks env th) * 8192 in
            let slots = List.length (Iso_heap.slot_list env th) in
            Cluster.host_migrate c th ~dest:1;
            let m = List.hd (Cluster.migrations c) in
            Table.add_rowf t "%s|%d|%s|%d|%.1f"
              (Pm2_util.Units.bytes_to_string live)
              slots
              (Migration.packing_to_string packing)
              m.Cluster.bytes
              (m.Cluster.resumed -. m.Cluster.started);
            Iso_heap.check_invariants (Cluster.host_env c 1) th;
            Cluster.check_invariants c)
         [ Migration.Blocks_only; Migration.Full_slots ])
    [ (4, 64); (8, 128) ];
  Table.print t;
  Harness.note "\"when migrating a slot attached to a thread, it is sufficient to send";
  Harness.note "its internally allocated blocks\" (paper, 6)"

let slot_cache () =
  Harness.section "A3: the slot cache (paper 6) - alloc/free churn of slot-sized blocks";
  let t =
    Table.create
      [ "cache capacity"; "avg alloc+free (us)"; "cache hits"; "mmap calls"; "munmap calls" ]
  in
  List.iter
    (fun cache ->
       let c = Harness.cluster ~cache () in
       let th = Cluster.host_thread c ~node:0 in
       let env = Cluster.host_env c 0 in
       let iters = 200 in
       ignore (Cluster.drain_charges c 0);
       for _ = 1 to iters do
         (* 32 KB blocks: each allocation takes a slot, each free returns
            it — the pattern the cache is built for. *)
         let a = Option.get (Iso_heap.isomalloc env th 32_768) in
         Iso_heap.isofree env th a
       done;
       let avg = Cluster.drain_charges c 0 /. float_of_int iters in
       let s = Slot_manager.stats (Cluster.node_mgr c 0) in
       Table.add_rowf t "%d|%.1f|%d|%d|%d" cache avg s.Slot_manager.cache_hits
         s.Slot_manager.mmap_count s.Slot_manager.munmap_count;
       Cluster.check_invariants c)
    [ 0; 1; 16; 64 ];
  Table.print t;
  Harness.note "\"this saves the mmapping time at the next slot allocation\" (paper, 6)"

let registered_pointers () =
  Harness.section
    "A4: post-migration processing - iso-address vs registered-pointer relocation";
  let t =
    Table.create
      [ "registered pointers"; "iso scheme (us)"; "relocating scheme (us)"; "relocation penalty" ]
  in
  List.iter
    (fun n ->
       let latency scheme =
         let c = Harness.run_guest ~scheme ~entry:"registered_hop" ~arg:n () in
         match Harness.migration_latencies c with
         | [ l ] -> l
         | _ -> failwith "expected exactly one migration"
       in
       let iso = latency Cluster.Iso in
       let reloc = latency Cluster.Relocating in
       Table.add_rowf t "%d|%.1f|%.1f|%+.1f us" n iso reloc (reloc -. iso))
    [ 0; 10; 100; 400; 1000 ];
  Table.print t;
  Harness.note "both schemes ship the registration table, so both grow with the wire";
  Harness.note "size; the relocating scheme additionally pays (a) a fresh zero-filled";
  Harness.note "stack slot at the destination and (b) one patch per registered pointer";
  Harness.note "and frame link -- and the iso scheme needs no registrations in the";
  Harness.note "first place (the workload registers them only so both schemes run the";
  Harness.note "same program; see Fig. 2: unregistered pointers crash under relocation)"

(* A6 — first-fit (the paper's strategy) vs best-fit: §3.3 notes "other
   strategies could be considered as well, especially if fragmentation is
   to be kept low". *)
let fit_strategy () =
  Harness.section "A6: block placement - first-fit (paper) vs best-fit";
  let t =
    Table.create
      [
        "strategy";
        "avg alloc (us)";
        "fragmentation";
        "footprint";
        "live";
        "failed fits (new slots)";
      ]
  in
  List.iter
    (fun fit ->
       let config = Pm2.Config.make ~fit () in
       let c = Cluster.create config (Lazy.force Harness.program) in
       let th = Cluster.host_thread c ~node:0 in
       let env = Cluster.host_env c 0 in
       let prng = Prng.create ~seed:11 in
       ignore (Cluster.drain_charges c 0);
       let live = ref [] in
       let iters = 600 in
       for _ = 1 to iters do
         (* bimodal sizes create holes that only a careful fit reuses *)
         let size =
           if Prng.bool prng then Prng.int_in prng 100 900
           else Prng.int_in prng 4_000 9_000
         in
         (match Iso_heap.isomalloc env th size with
          | Some a -> live := a :: !live
          | None -> failwith "exhausted");
         if Prng.int prng 3 > 0 then begin
           match !live with
           | [] -> ()
           | l ->
             let i = Prng.int prng (List.length l) in
             let a = List.nth l i in
             Iso_heap.isofree env th a;
             live := List.filter (fun x -> x <> a) !live
         end
       done;
       let avg = Cluster.drain_charges c 0 /. float_of_int iters in
       let s = Iso_heap.stats env th in
       Iso_heap.check_invariants env th;
       Table.add_rowf t "%s|%.1f|%.1f%%|%s|%s|%d"
         (Iso_heap.fit_to_string fit)
         avg
         (Iso_heap.fragmentation s *. 100.)
         (Pm2_util.Units.bytes_to_string s.Iso_heap.footprint_bytes)
         (Pm2_util.Units.bytes_to_string s.Iso_heap.live_payload_bytes)
         (Slot_manager.stats (Cluster.node_mgr c 0)).Slot_manager.acquires)
    [ Iso_heap.First_fit; Iso_heap.Best_fit ];
  Table.print t;
  Harness.note "best-fit packs holes tighter (lower footprint for the same live data)";
  Harness.note "at the price of scanning every free block on each allocation"

(* A7 — pre-buying slots during a negotiation (§4.4 remark). *)
let prebuy () =
  Harness.section "A7: pre-buying slots during negotiations (paper 4.4 remark)";
  let t =
    Table.create
      [ "prebuy"; "negotiations"; "neg time total (us)"; "avg multi-slot alloc (us)" ]
  in
  List.iter
    (fun prebuy ->
       let config = Pm2.Config.make ~prebuy () in
       let c = Cluster.create config (Lazy.force Harness.program) in
       let th = Cluster.host_thread c ~node:0 in
       let env = Cluster.host_env c 0 in
       ignore (Cluster.drain_charges c 0);
       let iters = 24 in
       for _ = 1 to iters do
         ignore (Option.get (Iso_heap.isomalloc env th (3 * 65536)))
       done;
       let avg = Cluster.drain_charges c 0 /. float_of_int iters in
       let neg = Cluster.negotiation c in
       Table.add_rowf t "%d|%d|%.0f|%.1f" prebuy (Negotiation.count neg)
         (Stats.Acc.total (Negotiation.durations neg))
         avg;
       Cluster.check_invariants c)
    [ 0; 8; 32; 128 ];
  Table.print t;
  Harness.note "each negotiation buys a reserve of contiguous slots, so later";
  Harness.note "multi-slot requests are served from the local bitmap"

(* A8 — global restructuring of the slot distribution (§4.4 remark). *)
let restructure () =
  Harness.section "A8: global slot restructuring (paper 4.4 remark)";
  let t =
    Table.create
      [
        "phase";
        "negotiations";
        "largest local run (node 0)";
        "avg multi-slot alloc (us)";
      ]
  in
  let config = Pm2.Config.make () in
  let c = Cluster.create config (Lazy.force Harness.program) in
  let th = Cluster.host_thread c ~node:0 in
  let env = Cluster.host_env c 0 in
  let neg = Cluster.negotiation c in
  let phase name allocs =
    let before = Negotiation.count neg in
    ignore (Cluster.drain_charges c 0);
    for _ = 1 to allocs do
      ignore (Option.get (Iso_heap.isomalloc env th (3 * 65536)))
    done;
    let avg = Cluster.drain_charges c 0 /. float_of_int allocs in
    Table.add_rowf t "%s|%d|%d|%.1f" name
      (Negotiation.count neg - before)
      (Negotiation.largest_local_run neg ~node:0)
      avg
  in
  phase "round-robin, before" 12;
  let moved, duration = Negotiation.restructure neg in
  phase "after restructure" 12;
  Table.print t;
  Harness.note "the restructure moved %d slots in %.0f us; afterwards every" moved duration;
  Harness.note "multi-slot request is served locally (\"grouping contiguous free slots";
  Harness.note "as much as possible on the various nodes\")";
  Cluster.check_invariants c

let slot_size () =
  Harness.section "A5: slot size sweep (the paper fixes 64 KB = 16 pages)";
  let t =
    Table.create
      [
        "slot size";
        "avg mixed alloc (us)";
        "negotiations";
        "null migration (us)";
        "bitmap bytes";
      ]
  in
  List.iter
    (fun slot_size ->
       let c, avg =
         mixed_workload ~slot_size ~distribution:Distribution.Round_robin ~allocs:120 ()
       in
       let c2 = Harness.run_guest ~slot_size ~entry:"pingpong" ~arg:100 () in
       let mig = Stats.mean (Harness.migration_latencies c2) in
       Table.add_rowf t "%s|%.1f|%d|%.1f|%d"
         (Pm2_util.Units.bytes_to_string slot_size)
         avg
         (Negotiation.count (Cluster.negotiation c))
         mig
         (Slot.bitmap_bytes (Cluster.geometry c)))
    [ 16 * 1024; 64 * 1024; 256 * 1024; 1024 * 1024 ];
  Table.print t;
  Harness.note "small slots: more negotiations (more requests span slots), bigger bitmaps;";
  Harness.note "large slots: internal fragmentation and costlier stack-slot mappings --";
  Harness.note "64 KB \"fits a thread stack\", making thread creation always local (4.1)"

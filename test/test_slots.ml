module Layout = Pm2_vmem.Layout
module As = Pm2_vmem.Address_space
module Cm = Pm2_sim.Cost_model
module Bitset = Pm2_util.Bitset
open Pm2_core

(* -- Slot geometry -- *)

let test_default_geometry () =
  let g = Slot.default in
  Alcotest.(check int) "slot size" (64 * 1024) g.Slot.slot_size;
  Alcotest.(check int) "slot count (paper 4.2)" 57344 g.Slot.count;
  Alcotest.(check int) "bitmap is 7 KB (paper 4.2)" 7168 (Slot.bitmap_bytes g);
  Alcotest.(check int) "pages per slot" 16 (Slot.pages_per_slot g)

let test_geometry_math () =
  let g = Slot.default in
  Alcotest.(check int) "base of slot 0" Layout.iso_base (Slot.base g 0);
  Alcotest.(check int) "base of slot 3" (Layout.iso_base + (3 * 65536)) (Slot.base g 3);
  Alcotest.(check int) "index roundtrip" 3 (Slot.index g (Slot.base g 3));
  Alcotest.(check int) "interior address" 3 (Slot.index g (Slot.base g 3 + 1000));
  Alcotest.(check bool) "outside area rejected" true
    (try ignore (Slot.index g Layout.heap_base); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad index rejected" true
    (try ignore (Slot.base g g.Slot.count); false with Invalid_argument _ -> true)

let test_slots_for () =
  let g = Slot.default in
  Alcotest.(check int) "tiny" 1 (Slot.slots_for g 1);
  Alcotest.(check int) "exact" 1 (Slot.slots_for g 65536);
  Alcotest.(check int) "one over" 2 (Slot.slots_for g 65537);
  Alcotest.(check int) "8 MB" 128 (Slot.slots_for g (8 * 1024 * 1024))

let test_bad_geometry () =
  Alcotest.(check bool) "unaligned" true
    (try ignore (Slot.make ~slot_size:1000); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-divisor" true
    (try ignore (Slot.make ~slot_size:(3 * 4096)); false with Invalid_argument _ -> true)

(* -- Distribution -- *)

let test_round_robin () =
  List.iter
    (fun (slot, node) ->
       Alcotest.(check int)
         (Printf.sprintf "slot %d" slot)
         node
         (Distribution.owner Distribution.Round_robin ~slots:100 ~nodes:4 ~slot))
    [ (0, 0); (1, 1); (2, 2); (3, 3); (4, 0); (99, 3) ]

let test_block_cyclic () =
  let d = Distribution.Block_cyclic 3 in
  List.iter
    (fun (slot, node) ->
       Alcotest.(check int) (Printf.sprintf "slot %d" slot) node
         (Distribution.owner d ~slots:100 ~nodes:2 ~slot))
    [ (0, 0); (2, 0); (3, 1); (5, 1); (6, 0) ]

let test_partition () =
  let d = Distribution.Partition in
  Alcotest.(check int) "first half" 0 (Distribution.owner d ~slots:100 ~nodes:2 ~slot:49);
  Alcotest.(check int) "second half" 1 (Distribution.owner d ~slots:100 ~nodes:2 ~slot:50)

let test_custom_validation () =
  let d = Distribution.Custom (fun ~slots:_ ~nodes:_ ~slot:_ -> 7) in
  Alcotest.(check bool) "bad custom rejected" true
    (try ignore (Distribution.owner d ~slots:10 ~nodes:2 ~slot:0); false
     with Invalid_argument _ -> true)

let test_populate_partitions_all () =
  let g = Slot.make ~slot_size:(1024 * 1024) in
  List.iter
    (fun d ->
       List.iter
         (fun nodes ->
            let maps = Distribution.populate d ~geometry:g ~nodes in
            let total = Array.fold_left (fun acc m -> acc + Bitset.count m) 0 maps in
            Alcotest.(check int)
              (Distribution.to_string d ^ " covers all slots")
              g.Slot.count total;
            (* disjointness *)
            Array.iteri
              (fun i a ->
                 Array.iteri
                   (fun j b ->
                      if i < j then
                        Alcotest.(check bool) "disjoint" false (Bitset.intersects a b))
                   maps)
              maps)
         [ 1; 2; 3; 7 ])
    [ Distribution.Round_robin; Distribution.Block_cyclic 4; Distribution.Partition ]

(* [populate] builds the maps a word at a time; the reference sets one
   bit per slot at its [owner]. Slot counts run from 1 to 3584, multiples
   of 64 or not, against periods from 1 to 700 slots. *)
let prop_populate_matches_owner =
  QCheck2.Test.make ~name:"populate agrees with owner slot by slot" ~count:200
    ~print:(fun (a, b, nodes, k) ->
        Printf.sprintf "slot_size 4096*2^%d*7^%d, %d nodes, k=%d" a b nodes k)
    QCheck2.Gen.(quad (int_range 4 17) (int_range 0 1) (int_range 1 10) (int_range 1 70))
    (fun (a, b, nodes, k) ->
       let g = Slot.make ~slot_size:(4096 * (1 lsl a) * if b = 1 then 7 else 1) in
       let slots = g.Slot.count in
       List.for_all
         (fun d ->
            let reference = Array.init nodes (fun _ -> Bitset.create slots) in
            for slot = 0 to slots - 1 do
              Bitset.set reference.(Distribution.owner d ~slots ~nodes ~slot) slot
            done;
            Array.for_all2 Bitset.equal reference (Distribution.populate d ~geometry:g ~nodes))
         [ Distribution.Round_robin; Distribution.Block_cyclic k; Distribution.Partition ])

(* -- Slot_header -- *)

let header_space () =
  let sp = As.create ~node:0 () in
  As.mmap sp ~addr:Layout.iso_base ~size:(4 * 65536);
  sp

let test_header_fields () =
  let sp = header_space () in
  let base = Layout.iso_base in
  Slot_header.init sp base ~size:65536 ~kind:Slot_header.Data ~owner:99;
  Slot_header.check_magic sp base;
  Alcotest.(check int) "size" 65536 (Slot_header.read_size sp base);
  Alcotest.(check int) "owner" 99 (Slot_header.read_owner sp base);
  Alcotest.(check bool) "kind" true (Slot_header.read_kind sp base = Slot_header.Data);
  Alcotest.(check int) "free head nil" 0 (Slot_header.read_free_head sp base);
  Slot_header.write_free_head sp base 0x1234;
  Alcotest.(check int) "free head" 0x1234 (Slot_header.read_free_head sp base);
  Slot_header.init sp (base + 65536) ~size:65536 ~kind:Slot_header.Stack ~owner:1;
  Alcotest.(check bool) "stack kind" true
    (Slot_header.read_kind sp (base + 65536) = Slot_header.Stack)

let test_header_corruption_detected () =
  let sp = header_space () in
  let base = Layout.iso_base in
  Slot_header.init sp base ~size:65536 ~kind:Slot_header.Data ~owner:0;
  As.store_word sp base 0xBAD;
  Alcotest.(check bool) "corrupt magic detected" true
    (try Slot_header.check_magic sp base; false with Failure _ -> true)

let test_chain_ops () =
  let sp = header_space () in
  let s0 = Layout.iso_base
  and s1 = Layout.iso_base + 65536
  and s2 = Layout.iso_base + (2 * 65536) in
  List.iter
    (fun s -> Slot_header.init sp s ~size:65536 ~kind:Slot_header.Data ~owner:0)
    [ s0; s1; s2 ];
  let head = Slot_header.link_front sp ~head:0 s0 in
  let head = Slot_header.link_front sp ~head s1 in
  let head = Slot_header.link_front sp ~head s2 in
  Alcotest.(check (list int)) "chain order" [ s2; s1; s0 ]
    (Slot_header.chain_to_list sp ~head);
  (* unlink the middle element *)
  let head = Slot_header.unlink sp ~head s1 in
  Alcotest.(check (list int)) "middle removed" [ s2; s0 ]
    (Slot_header.chain_to_list sp ~head);
  (* unlink the head *)
  let head = Slot_header.unlink sp ~head s2 in
  Alcotest.(check (list int)) "head removed" [ s0 ] (Slot_header.chain_to_list sp ~head);
  let head = Slot_header.unlink sp ~head s0 in
  Alcotest.(check (list int)) "empty" [] (Slot_header.chain_to_list sp ~head);
  Alcotest.(check int) "nil head" 0 head

(* -- Slot_manager -- *)

let manager ?(cache = 4) ?(owned = [ 0; 1; 2; 5; 6; 7 ]) () =
  let g = Slot.default in
  let sp = As.create ~node:0 () in
  let bitmap = Bitset.create g.Slot.count in
  List.iter (Bitset.set bitmap) owned;
  let charged = ref 0. in
  let mgr =
    Slot_manager.create ~node:0 ~geometry:g ~space:sp ~cost:Cm.default
      ~charge:(fun c -> charged := !charged +. c)
      ~bitmap ~cache_capacity:cache ()
  in
  (mgr, sp, g, charged)

let test_acquire_local () =
  let mgr, sp, g, _ = manager () in
  Alcotest.(check int) "initially owned" 6 (Slot_manager.owned mgr);
  (match Slot_manager.acquire_local mgr with
   | Ok i ->
     Alcotest.(check int) "first-fit slot" 0 i;
     Alcotest.(check bool) "mapped" true (As.is_mapped sp (Slot.base g i));
     Alcotest.(check bool) "no longer owned" false (Slot_manager.owns_free mgr i)
   | Error _ -> Alcotest.fail "expected a slot");
  Alcotest.(check int) "owned decremented" 5 (Slot_manager.owned mgr);
  Slot_manager.check_invariants mgr

let test_acquire_exhaustion () =
  let mgr, _, _, _ = manager ~owned:[ 3 ] () in
  Alcotest.(check bool) "one available" true
    (Result.is_ok (Slot_manager.acquire_local mgr));
  Alcotest.(check bool) "exhausted node reports Out_of_slots" true
    (Slot_manager.acquire_local mgr = Error Slot_manager.Out_of_slots)

let test_release_and_cache () =
  let mgr, sp, g, _ = manager ~cache:2 () in
  let i = Slot_manager.acquire_local_exn mgr in
  Slot_manager.release_exn mgr i;
  Alcotest.(check bool) "owned again" true (Slot_manager.owns_free mgr i);
  Alcotest.(check bool) "still mapped (cached)" true (As.is_mapped sp (Slot.base g i));
  Slot_manager.check_invariants mgr;
  (* The next acquisition prefers the cached slot and skips the mmap. *)
  let before = As.mmap_calls sp in
  let j = Slot_manager.acquire_local_exn mgr in
  Alcotest.(check int) "cache hit returns the same slot" i j;
  Alcotest.(check int) "no new mmap" before (As.mmap_calls sp);
  Alcotest.(check int) "hit counted" 1 (Slot_manager.stats mgr).Slot_manager.cache_hits

let test_cache_eviction () =
  let mgr, sp, g, _ = manager ~cache:1 () in
  let a = Slot_manager.acquire_local_exn mgr in
  let b = Slot_manager.acquire_local_exn mgr in
  Slot_manager.release_exn mgr a; (* cached *)
  Slot_manager.release_exn mgr b; (* cache full: unmapped *)
  Alcotest.(check bool) "a cached" true (As.is_mapped sp (Slot.base g a));
  Alcotest.(check bool) "b unmapped" false (As.is_mapped sp (Slot.base g b));
  Slot_manager.check_invariants mgr

let test_cache_disabled () =
  let mgr, sp, g, _ = manager ~cache:0 () in
  let a = Slot_manager.acquire_local_exn mgr in
  Slot_manager.release_exn mgr a;
  Alcotest.(check bool) "unmapped immediately" false (As.is_mapped sp (Slot.base g a));
  Slot_manager.check_invariants mgr

let test_find_and_acquire_run () =
  let mgr, sp, g, _ = manager ~owned:[ 0; 1; 2; 5; 6; 7; 8 ] () in
  Alcotest.(check (option int)) "run of 3" (Some 0) (Slot_manager.find_local_run mgr 3);
  Alcotest.(check (option int)) "run of 4" (Some 5) (Slot_manager.find_local_run mgr 4);
  Alcotest.(check (option int)) "run of 5" None (Slot_manager.find_local_run mgr 5);
  Slot_manager.acquire_run_exn mgr ~start:5 ~n:4;
  Alcotest.(check bool) "whole range mapped" true
    (As.range_mapped sp ~addr:(Slot.base g 5) ~size:(4 * g.Slot.slot_size));
  Alcotest.(check int) "owned" 3 (Slot_manager.owned mgr);
  Alcotest.(check bool) "not owned anymore" false (Slot_manager.owns_free mgr 6);
  Alcotest.(check bool) "acquire_run of unowned rejected" true
    (match Slot_manager.acquire_run mgr ~start:5 ~n:1 with
     | Error (Slot_manager.Not_owned { slot = 5; op = "acquire_run" }) -> true
     | _ -> false);
  Slot_manager.check_invariants mgr

let test_release_run () =
  let mgr, _, _, _ = manager ~owned:[ 0; 1; 2 ] ~cache:8 () in
  Slot_manager.acquire_run_exn mgr ~start:0 ~n:3;
  Slot_manager.release_run_exn mgr ~start:0 ~n:3;
  Alcotest.(check int) "all owned again" 3 (Slot_manager.owned mgr);
  Slot_manager.check_invariants mgr

let test_release_run_grouped_munmap () =
  (* With the cache disabled, releasing a 4-slot run must unmap the whole
     contiguous range with a single munmap, mirroring acquire_run's
     grouped mmap. *)
  let mgr, sp, g, _ = manager ~owned:[ 0; 1; 2; 3 ] ~cache:0 () in
  Slot_manager.acquire_run_exn mgr ~start:0 ~n:4;
  Slot_manager.release_run_exn mgr ~start:0 ~n:4;
  let st = Slot_manager.stats mgr in
  Alcotest.(check int) "one grouped munmap" 1 st.Slot_manager.munmap_count;
  Alcotest.(check int) "four releases" 4 st.Slot_manager.releases;
  Alcotest.(check bool) "range unmapped" true
    (As.range_unmapped sp ~addr:(Slot.base g 0) ~size:(4 * g.Slot.slot_size));
  Slot_manager.check_invariants mgr;
  (* A partially cached run groups only the uncached tail. *)
  let mgr2, _, _, _ = manager ~owned:[ 0; 1; 2; 3 ] ~cache:2 () in
  Slot_manager.acquire_run_exn mgr2 ~start:0 ~n:4;
  Slot_manager.release_run_exn mgr2 ~start:0 ~n:4;
  let st2 = Slot_manager.stats mgr2 in
  Alcotest.(check int) "tail munmapped in one call" 1 st2.Slot_manager.munmap_count;
  Slot_manager.check_invariants mgr2;
  (* Releasing an already-free slot is rejected before any mutation. *)
  let mgr3, _, _, _ = manager ~owned:[ 0; 1; 2 ] ~cache:0 () in
  Slot_manager.acquire_run_exn mgr3 ~start:0 ~n:2;
  Alcotest.(check bool) "already-free slot rejected" true
    (match Slot_manager.release_run mgr3 ~start:0 ~n:3 with
     | Error (Slot_manager.Already_free { slot = 2; op = "release_run" }) -> true
     | _ -> false);
  Alcotest.(check int) "nothing released" 0 (Slot_manager.stats mgr3).Slot_manager.releases

let test_steal_grant () =
  let mgr, sp, g, _ = manager ~cache:4 () in
  (* Cached slot must be unmapped when stolen. *)
  let i = Slot_manager.acquire_local_exn mgr in
  Slot_manager.release_exn mgr i;
  Alcotest.(check bool) "cached" true (As.is_mapped sp (Slot.base g i));
  Slot_manager.steal_exn mgr i;
  Alcotest.(check bool) "unmapped on steal" false (As.is_mapped sp (Slot.base g i));
  Alcotest.(check bool) "not owned" false (Slot_manager.owns_free mgr i);
  Slot_manager.grant_exn mgr i;
  Alcotest.(check bool) "granted back" true (Slot_manager.owns_free mgr i);
  Alcotest.(check bool) "double grant rejected" true
    (match Slot_manager.grant mgr i with
     | Error (Slot_manager.Already_owned _) -> true
     | _ -> false);
  Slot_manager.steal_exn mgr i;
  Alcotest.(check bool) "steal of unowned rejected" true
    (match Slot_manager.steal mgr i with
     | Error (Slot_manager.Not_owned _) -> true
     | _ -> false);
  Slot_manager.check_invariants mgr

let test_charges_flow () =
  let mgr, _, _, charged = manager () in
  charged := 0.;
  ignore (Slot_manager.acquire_local mgr);
  Alcotest.(check bool) "fresh acquire charges mmap + touch" true
    (!charged > Cm.default.Cm.page_touch *. 16.)

let tests =
  [
    Alcotest.test_case "default geometry (paper constants)" `Quick test_default_geometry;
    Alcotest.test_case "geometry address math" `Quick test_geometry_math;
    Alcotest.test_case "slots_for" `Quick test_slots_for;
    Alcotest.test_case "bad geometry rejected" `Quick test_bad_geometry;
    Alcotest.test_case "round-robin distribution" `Quick test_round_robin;
    Alcotest.test_case "block-cyclic distribution" `Quick test_block_cyclic;
    Alcotest.test_case "partition distribution" `Quick test_partition;
    Alcotest.test_case "custom distribution validated" `Quick test_custom_validation;
    Alcotest.test_case "populate partitions every slot" `Quick test_populate_partitions_all;
    QCheck_alcotest.to_alcotest prop_populate_matches_owner;
    Alcotest.test_case "slot header fields" `Quick test_header_fields;
    Alcotest.test_case "header corruption detected" `Quick test_header_corruption_detected;
    Alcotest.test_case "slot chain link/unlink" `Quick test_chain_ops;
    Alcotest.test_case "acquire_local first-fit" `Quick test_acquire_local;
    Alcotest.test_case "acquire exhaustion" `Quick test_acquire_exhaustion;
    Alcotest.test_case "release goes to the cache" `Quick test_release_and_cache;
    Alcotest.test_case "cache eviction at capacity" `Quick test_cache_eviction;
    Alcotest.test_case "cache disabled" `Quick test_cache_disabled;
    Alcotest.test_case "contiguous runs" `Quick test_find_and_acquire_run;
    Alcotest.test_case "release_run" `Quick test_release_run;
    Alcotest.test_case "release_run groups munmaps" `Quick test_release_run_grouped_munmap;
    Alcotest.test_case "steal and grant (negotiation hooks)" `Quick test_steal_grant;
    Alcotest.test_case "virtual costs charged" `Quick test_charges_flow;
  ]

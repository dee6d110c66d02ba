module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout
module Cm = Pm2_sim.Cost_model
module B = Pm2_heap.Blockfmt
module Malloc = Pm2_heap.Malloc

(* -- Blockfmt -- *)

let test_blockfmt_sizes () =
  Alcotest.(check int) "align" 8 (B.align 1);
  Alcotest.(check int) "align exact" 16 (B.align 16);
  Alcotest.(check int) "min block" B.min_block (B.block_size_for ~payload:1);
  Alcotest.(check int) "payload 16" 32 (B.block_size_for ~payload:16);
  Alcotest.(check int) "payload 17" 40 (B.block_size_for ~payload:17);
  Alcotest.(check int) "payload back" 16 (B.payload_of_block 32);
  Alcotest.(check int) "payload addr" 0x1008 (B.payload_addr 0x1000);
  Alcotest.(check int) "block of payload" 0x1000 (B.block_of_payload 0x1008)

(* A one-page region [lo, hi) at 0x10000 holding one free block. *)
let lo = 0x10000
let hi = lo + 4096

let region () =
  let sp = As.create ~node:0 () in
  As.mmap sp ~addr:lo ~size:4096;
  (sp, B.release sp ~head:0 ~lo ~hi lo ~size:4096)

let free_blocks sp =
  B.fold sp ~lo ~hi (fun n _ ~size:_ ~used -> if used then n else n + 1) 0

let test_blockfmt_tags () =
  let sp, head = region () in
  Alcotest.(check int) "released block is the head" lo head;
  Alcotest.(check int) "size" 4096 (B.read_size sp lo);
  Alcotest.(check bool) "free" false (B.read_used sp lo);
  let head, rest = B.carve sp ~head lo ~need:64 in
  Alcotest.(check int) "split rest" (4096 - 64) rest;
  Alcotest.(check int) "rest heads the list" (lo + 64) head;
  Alcotest.(check int) "carved size" 64 (B.read_size sp lo);
  Alcotest.(check bool) "carved used" true (B.read_used sp lo);
  (* [check] reads every footer back. *)
  B.check sp ~head ~lo ~hi ~used:ignore;
  As.store_word sp (lo + 64 - 8) 0;
  Alcotest.(check bool) "corrupt footer caught" true
    (try B.check sp ~head ~lo ~hi ~used:ignore; false with Failure _ -> true);
  Alcotest.(check bool) "bad size rejected" true
    (try ignore (B.release sp ~head ~lo ~hi lo ~size:20); false
     with Invalid_argument _ -> true)

let test_blockfmt_links () =
  let sp, head = region () in
  (* carve three used blocks, then free the first and the third: two
     free blocks that cannot merge, plus the tail *)
  let head, _ = B.carve sp ~head lo ~need:64 in
  let head, _ = B.carve sp ~head (lo + 64) ~need:64 in
  let head, _ = B.carve sp ~head (lo + 128) ~need:64 in
  let head = B.release sp ~head ~lo ~hi lo ~size:64 in
  let head = B.release sp ~head ~lo ~hi (lo + 128) ~size:64 in
  Alcotest.(check int) "third merged with the tail, at the front" (lo + 128) head;
  Alcotest.(check int) "next" lo (B.read_next_free sp head);
  Alcotest.(check int) "end" 0 (B.read_next_free sp lo);
  Alcotest.(check int) "two free blocks" 2 (free_blocks sp);
  B.check sp ~head ~lo ~hi ~used:ignore;
  let head = B.unlink sp ~head (lo + 128) in
  Alcotest.(check int) "unlinked head" lo head;
  let head = B.push sp ~head (lo + 128) in
  B.check sp ~head ~lo ~hi ~used:ignore;
  (* the rebuilt list holds the gaps in ascending order *)
  let head = B.rebuild sp ~lo ~hi [ (lo + 64, 64) ] in
  Alcotest.(check int) "rebuilt head" lo head;
  Alcotest.(check int) "rebuilt next" (lo + 128) (B.read_next_free sp lo);
  B.check sp ~head ~lo ~hi ~used:ignore

(* -- Malloc -- *)

let heap () =
  let sp = As.create ~node:0 () in
  let charged = ref 0. in
  (Malloc.create sp Cm.default ~charge:(fun c -> charged := !charged +. c), sp, charged)

let test_basic_alloc () =
  let h, sp, _ = heap () in
  let a = Malloc.malloc_exn h 100 in
  Alcotest.(check bool) "in heap segment" true (Layout.in_heap a);
  Alcotest.(check int) "aligned" 0 (a land 7);
  Alcotest.(check bool) "usable size" true (Malloc.usable_size h a >= 100);
  As.fill sp ~addr:a ~size:100 0xcd;
  Alcotest.(check int) "writable" 0xcd (As.load_u8 sp (a + 99));
  Alcotest.(check int) "live blocks" 1 (Malloc.live_blocks h);
  Malloc.check_invariants h

let test_distinct_blocks () =
  let h, _, _ = heap () in
  let a = Malloc.malloc_exn h 64 and b = Malloc.malloc_exn h 64 in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "non-overlapping" true (abs (a - b) >= 64);
  Malloc.check_invariants h

let test_free_and_reuse () =
  let h, _, _ = heap () in
  let a = Malloc.malloc_exn h 100 in
  Malloc.free_exn h a;
  Alcotest.(check int) "no live blocks" 0 (Malloc.live_blocks h);
  let b = Malloc.malloc_exn h 100 in
  Alcotest.(check int) "first-fit reuses the freed block" a b;
  Malloc.check_invariants h

let test_coalescing () =
  let h, sp, _ = heap () in
  let blocks = List.init 8 (fun _ -> Malloc.malloc_exn h 1000) in
  List.iter (Malloc.free_exn h) blocks;
  Malloc.check_invariants h;
  (* After freeing everything the arena must have coalesced to one block. *)
  let free_blocks =
    B.fold sp ~lo:Layout.heap_base ~hi:(Layout.heap_base + Malloc.heap_bytes h)
      (fun n _ ~size:_ ~used -> if used then n else n + 1)
      0
  in
  Alcotest.(check int) "single free block" 1 free_blocks;
  (* And a block as large as all the freed space must fit without growth. *)
  let before = Malloc.heap_bytes h in
  ignore (Malloc.malloc_exn h 7000);
  Alcotest.(check int) "no growth needed" before (Malloc.heap_bytes h)

let test_free_interior_coalesce () =
  let h, _, _ = heap () in
  let a = Malloc.malloc_exn h 500 in
  let b = Malloc.malloc_exn h 500 in
  let c = Malloc.malloc_exn h 500 in
  ignore (Malloc.malloc_exn h 500);
  (* free in the order that exercises next- then prev-coalescing *)
  Malloc.free_exn h b;
  Malloc.check_invariants h;
  Malloc.free_exn h a;
  Malloc.check_invariants h;
  Malloc.free_exn h c;
  Malloc.check_invariants h

(* A guest that links a freed block to itself makes the fit search's
   list a cycle: the next search that does not fit earlier must fail as
   a runtime error, not spin. *)
let test_free_list_cycle_rejected () =
  let h, sp, _ = heap () in
  let a = Malloc.malloc_exn h 100 in
  ignore (Malloc.malloc_exn h 100);
  Malloc.free_exn h a;
  As.store_word sp a (a - 8);
  match Malloc.malloc h 60000 with
  | _ -> Alcotest.fail "the search returned through a free-list cycle"
  | exception Invalid_argument _ -> ()

let test_bad_free_rejected () =
  let h, _, _ = heap () in
  let a = Malloc.malloc_exn h 100 in
  Alcotest.(check bool) "wild free" true
    (try Malloc.free_exn h (a + 8); false with Invalid_argument _ -> true);
  Malloc.free_exn h a;
  Alcotest.(check bool) "double free" true
    (try Malloc.free_exn h a; false with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad size" true
    (try ignore (Malloc.malloc_exn h 0); false with Invalid_argument _ -> true)

let test_large_alloc_grows () =
  let h, sp, _ = heap () in
  let a = Malloc.malloc_exn h (8 * 1024 * 1024) in
  Alcotest.(check bool) "big block usable" true (Malloc.usable_size h a >= 8 * 1024 * 1024);
  As.store_u8 sp (a + (8 * 1024 * 1024) - 1) 1;
  Alcotest.(check bool) "heap grew" true (Malloc.heap_bytes h >= 8 * 1024 * 1024);
  Malloc.check_invariants h

let test_growth_cost_linear () =
  (* The Fig. 11 driver: the virtual cost of fresh allocations must be
     dominated by the page-touch term, i.e. linear in size. *)
  let h, _, charged = heap () in
  charged := 0.;
  ignore (Malloc.malloc_exn h (1024 * 1024));
  let one_mb = !charged in
  charged := 0.;
  ignore (Malloc.malloc_exn h (4 * 1024 * 1024));
  let four_mb = !charged in
  let ratio = four_mb /. one_mb in
  Alcotest.(check bool)
    (Printf.sprintf "4 MB costs about 4x 1 MB (got %.2fx)" ratio)
    true
    (ratio > 3.5 && ratio < 4.5)

let test_live_bytes_accounting () =
  let h, _, _ = heap () in
  let a = Malloc.malloc_exn h 100 in
  let _b = Malloc.malloc_exn h 200 in
  Alcotest.(check bool) "live bytes >= requested" true (Malloc.live_bytes h >= 300);
  let before = Malloc.live_bytes h in
  Malloc.free_exn h a;
  Alcotest.(check bool) "freed bytes subtracted" true (Malloc.live_bytes h < before)

let test_oversize_refused () =
  (* Sizes whose block cannot fit the segment must fail cleanly, never
     wrap to a tiny block (the guest's r1 reaches [malloc] unchecked). *)
  let h, _, _ = heap () in
  List.iter
    (fun size ->
       Alcotest.(check bool)
         (Printf.sprintf "malloc %d refused" size)
         true
         (Malloc.malloc h size = Error Malloc.Heap_exhausted))
    [ max_int; max_int - 7; max_int - 4096; Layout.heap_max_size + 1 ];
  Alcotest.(check int) "nothing allocated" 0 (Malloc.live_blocks h);
  Malloc.check_invariants h

(* Property: random malloc/free interleavings keep the arena coherent and
   never hand out overlapping blocks. *)
let run_random_ops ops =
  let h, _, _ = heap () in
  let live = ref [] in
  List.iter
    (fun (is_alloc, size) ->
       if is_alloc || !live = [] then begin
         let a = Malloc.malloc_exn h size in
         List.iter
           (fun (b, bsize) ->
              if a < b + bsize && b < a + size then failwith "overlap")
           !live;
         live := (a, size) :: !live
       end
       else begin
         match !live with
         | (a, _) :: rest ->
           Malloc.free_exn h a;
           live := rest
         | [] -> ()
       end;
       Malloc.check_invariants h)
    ops;
  true

let prop_random_ops =
  let gen = QCheck2.Gen.(list_size (int_range 1 120) (pair bool (int_range 1 5000))) in
  QCheck2.Test.make ~name:"malloc arena stays coherent under random ops" ~count:60 gen
    run_random_ops

let tests =
  [
    Alcotest.test_case "blockfmt sizes" `Quick test_blockfmt_sizes;
    Alcotest.test_case "blockfmt tags" `Quick test_blockfmt_tags;
    Alcotest.test_case "blockfmt links" `Quick test_blockfmt_links;
    Alcotest.test_case "basic alloc" `Quick test_basic_alloc;
    Alcotest.test_case "distinct blocks" `Quick test_distinct_blocks;
    Alcotest.test_case "free and first-fit reuse" `Quick test_free_and_reuse;
    Alcotest.test_case "full coalescing" `Quick test_coalescing;
    Alcotest.test_case "interior coalescing" `Quick test_free_interior_coalesce;
    Alcotest.test_case "bad frees rejected" `Quick test_bad_free_rejected;
    Alcotest.test_case "free-list cycle rejected" `Quick test_free_list_cycle_rejected;
    Alcotest.test_case "large allocation grows arena" `Quick test_large_alloc_grows;
    Alcotest.test_case "growth cost linear in size" `Quick test_growth_cost_linear;
    Alcotest.test_case "live bytes accounting" `Quick test_live_bytes_accounting;
    Alcotest.test_case "oversize requests refused" `Quick test_oversize_refused;
    QCheck_alcotest.to_alcotest prop_random_ops;
  ]

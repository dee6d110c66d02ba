module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout
module Interp = Pm2_mvm.Interp
open Pm2_core

let empty_program = Pm2.build (fun _ -> ())

let cluster ?(packing = Migration.Blocks_only) ?(scheme = Cluster.Iso) () =
  let config = { (Cluster.default_config ~nodes:2) with Cluster.packing; scheme } in
  Cluster.create config empty_program

(* Build a thread with recognisable content: a linked chain of blocks in
   the iso area plus a pattern on its stack. Returns the chain head. *)
let furnish c th =
  let env = Cluster.host_env c th.Thread.node in
  let space = env.Iso_heap.space in
  let rec build prev n =
    if n = 0 then prev
    else begin
      let a = Option.get (Iso_heap.isomalloc env th (64 + (n * 8))) in
      As.store_word space a (n * 1000);
      As.store_word space (a + 8) prev;
      build a (n - 1)
    end
  in
  let head = build 0 10 in
  (* A fake frame on the stack containing a pointer to the chain head. *)
  let ctx = th.Thread.ctx in
  ctx.Interp.sp <- ctx.Interp.sp - 64;
  As.store_word space ctx.Interp.sp head;
  head

let verify_chain c th head =
  let space = Cluster.node_space c th.Thread.node in
  let rec walk a n =
    if a <> 0 then begin
      Alcotest.(check int) "chain value" (n * 1000) (As.load_word space a);
      walk (As.load_word space (a + 8)) (n + 1)
    end
    else Alcotest.(check int) "chain length" 11 n
  in
  walk head 1;
  Alcotest.(check int) "stack pointer cell" head (As.load_word space th.Thread.ctx.Interp.sp)

let test_roundtrip packing () =
  let c = cluster ~packing () in
  let th = Cluster.host_thread c ~node:0 in
  let head = furnish c th in
  let slots_before = Iso_heap.slot_list (Cluster.host_env c 0) th in
  let sp_before = th.Thread.ctx.Interp.sp in
  Cluster.host_migrate c th ~dest:1;
  Alcotest.(check int) "thread moved" 1 th.Thread.node;
  Alcotest.(check int) "sp unchanged (iso!)" sp_before th.Thread.ctx.Interp.sp;
  (* Source memory is gone. *)
  Alcotest.(check bool) "source slots unmapped" false
    (As.is_mapped (Cluster.node_space c 0) (List.hd slots_before));
  (* Destination has the same chain at the same addresses. *)
  verify_chain c th head;
  Alcotest.(check (list int)) "same slot list at destination" slots_before
    (Iso_heap.slot_list (Cluster.host_env c 1) th);
  Iso_heap.check_invariants (Cluster.host_env c 1) th;
  Cluster.check_invariants c

let test_blocks_only_smaller () =
  (* The §6 optimization: shipping only live blocks beats full slots. *)
  let size_of packing =
    let c = cluster ~packing () in
    let th = Cluster.host_thread c ~node:0 in
    ignore (furnish c th);
    Cluster.host_migrate c th ~dest:1;
    (List.hd (Cluster.migrations c)).Cluster.bytes
  in
  let blocks = size_of Migration.Blocks_only in
  let full = size_of Migration.Full_slots in
  Alcotest.(check bool)
    (Printf.sprintf "blocks-only %d << full %d" blocks full)
    true
    (blocks * 10 < full)

let test_allocator_usable_after_migration () =
  let c = cluster () in
  let th = Cluster.host_thread c ~node:0 in
  let env0 = Cluster.host_env c 0 in
  let a = Option.get (Iso_heap.isomalloc env0 th 128) in
  let b = Option.get (Iso_heap.isomalloc env0 th 128) in
  Iso_heap.isofree env0 th a;
  Cluster.host_migrate c th ~dest:1;
  let env1 = Cluster.host_env c 1 in
  Iso_heap.check_invariants env1 th;
  (* The rebuilt free list serves the hole left by [a]. *)
  let a' = Option.get (Iso_heap.isomalloc env1 th 128) in
  Alcotest.(check int) "freed hole reused after migration" a a';
  (* Freeing a block allocated before migration works on the new node. *)
  Iso_heap.isofree env1 th b;
  Iso_heap.check_invariants env1 th;
  Cluster.check_invariants c

let test_slot_released_to_visited_node () =
  (* Fig. 6 step 4: slots released after migration go to the destination
     node, which may end up owning slots it never had initially. *)
  let c = cluster () in
  let th = Cluster.host_thread c ~node:0 in
  let env0 = Cluster.host_env c 0 in
  let a = Option.get (Iso_heap.isomalloc env0 th 128) in
  let slot = Slot.index (Cluster.geometry c) a in
  Alcotest.(check int) "slot initially node 0's (round-robin even)" 0 (slot mod 2);
  Cluster.host_migrate c th ~dest:1;
  Iso_heap.isofree (Cluster.host_env c 1) th a;
  Alcotest.(check bool) "destination node now owns an even slot" true
    (Slot_manager.owns_free (Cluster.node_mgr c 1) slot);
  Alcotest.(check bool) "origin node does not" false
    (Slot_manager.owns_free (Cluster.node_mgr c 0) slot);
  Cluster.check_invariants c

let test_migration_back_and_forth () =
  let c = cluster () in
  let th = Cluster.host_thread c ~node:0 in
  let head = furnish c th in
  for _ = 1 to 5 do
    Cluster.host_migrate c th ~dest:1;
    verify_chain c th head;
    Cluster.host_migrate c th ~dest:0;
    verify_chain c th head
  done;
  Alcotest.(check int) "10 migrations recorded" 10 (List.length (Cluster.migrations c));
  Cluster.check_invariants c

let test_registry_travels () =
  let c = cluster () in
  let th = Cluster.host_thread c ~node:0 in
  let cell = th.Thread.ctx.Interp.sp - 8 in
  let key = Thread.register_ptr th cell in
  Cluster.host_migrate c th ~dest:1;
  Alcotest.(check (list int)) "registry restored from the wire" [ cell ]
    (Thread.registered_cells th);
  Thread.unregister_ptr th key;
  Alcotest.(check (list int)) "unregister works after migration" []
    (Thread.registered_cells th)

let test_merged_slot_migrates () =
  let c = cluster () in
  let th = Cluster.host_thread c ~node:0 in
  let env0 = Cluster.host_env c 0 in
  let size = 5 * 65536 in
  let a = Option.get (Iso_heap.isomalloc env0 th size) in
  let space0 = Cluster.node_space c 0 in
  As.store_word space0 (a + size - 8) 0xFEED;
  Cluster.host_migrate c th ~dest:1;
  let space1 = Cluster.node_space c 1 in
  Alcotest.(check int) "big block content intact" 0xFEED (As.load_word space1 (a + size - 8));
  Iso_heap.check_invariants (Cluster.host_env c 1) th;
  Iso_heap.isofree (Cluster.host_env c 1) th a;
  Cluster.check_invariants c

let test_null_thread_wire_size () =
  (* A null thread ships its descriptor + the live stack region only; the
     wire image must be far below the 64 KB slot size. *)
  let c = cluster () in
  let th = Cluster.host_thread c ~node:0 in
  Cluster.host_migrate c th ~dest:1;
  let m = List.hd (Cluster.migrations c) in
  Alcotest.(check bool)
    (Printf.sprintf "wire size %d < 1 KB" m.Cluster.bytes)
    true (m.Cluster.bytes < 1024)

let test_null_hop_independent_of_slot_size () =
  (* The hop maps the whole stack slot at the destination but allocates
     only the pages the image writes, so its host cost does not grow with
     the slot size. *)
  let allocated slot_size =
    let config = { (Cluster.default_config ~nodes:2) with Cluster.slot_size } in
    let c = Cluster.create config empty_program in
    let th = Cluster.host_thread c ~node:0 in
    let dst = Cluster.node_space c 1 in
    let before = As.resident_pages dst in
    Cluster.host_migrate c th ~dest:1;
    As.resident_pages dst - before
  in
  let small = allocated (64 * 1024) and large = allocated (1024 * 1024) in
  Alcotest.(check int) "a 1 MB slot hop allocates what a 64 KB one does" small large;
  Alcotest.(check bool) (Printf.sprintf "%d pages allocated" small) true (small <= 2)

(* [pack] allocates its wire buffer from [image_size]; a wire-format
   change that forgets the sizer shows here, not as a silent copy. *)
let test_image_size_exact packing () =
  let c = cluster ~packing () in
  let th = Cluster.host_thread c ~node:0 in
  (* A stack tail, a data slot of chained blocks, one block spanning
     several slots, and a registered pointer in the descriptor. *)
  ignore (furnish c th);
  ignore (Option.get (Iso_heap.isomalloc (Cluster.host_env c 0) th (3 * 65536)));
  ignore (Thread.register_ptr th th.Thread.ctx.Interp.sp);
  let expected =
    Migration.image_size ~space:(Cluster.node_space c 0) ~packing th
  in
  Cluster.host_migrate c th ~dest:1;
  Alcotest.(check int) "precomputed size = packed length" expected
    (List.hd (Cluster.migrations c)).Cluster.bytes

(* The sum of a chain's values, read through [space]. *)
let chain_sum space head =
  let rec walk a acc =
    if a = 0 then acc else walk (As.load_word space (a + 8)) (acc + As.load_word space a)
  in
  walk head 0

let test_untouched_memory_across_hop () =
  let pg = Layout.page_size in
  let c = cluster () in
  let th = Cluster.host_thread c ~node:0 in
  let src = Cluster.node_space c 0 and dst = Cluster.node_space c 1 in
  let head = furnish c th in
  let big_size = 40 * pg in
  let big = Option.get (Iso_heap.isomalloc (Cluster.host_env c 0) th big_size) in
  (* Pages inside the block, clear of its boundary tags: never written. *)
  let lo = Layout.addr_of_page (Layout.page_of_addr big + 2) in
  let hi = Layout.addr_of_page (Layout.page_of_addr (big + big_size) - 2) in
  let interior = List.init ((hi - lo) / pg) (fun i -> lo + (i * pg)) in
  List.iter
    (fun a -> Alcotest.(check bool) "interior never written" false (As.page_dirty src a))
    interior;
  let sum = chain_sum src head in
  let cost = Pm2_sim.Cost_model.default in
  let image = Migration.image_size ~space:src ~packing:Migration.Blocks_only th in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let packed =
    Migration.pack ~cost ~space:src ~packing:Migration.Blocks_only th
  in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "one exact-size image" image (Bytes.length packed.Migration.buffer);
  Alcotest.(check bool)
    (Printf.sprintf "packing allocated %.0f bytes for a %d-byte image" allocated image)
    true
    (allocated < float_of_int (image + (8 * pg)));
  As.advance_epoch dst;
  let mapped0 = As.mapped_pages dst and resident0 = As.resident_pages dst in
  ignore (Migration.unpack ~cost ~space:dst th packed.Migration.buffer);
  let mapped = As.mapped_pages dst - mapped0 in
  let resident = As.resident_pages dst - resident0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d mapped pages allocated; %d untouched" resident mapped
       (List.length interior))
    true
    (mapped - resident >= List.length interior);
  (* The store bookkeeping matches a space where the zeros were really
     written. *)
  let reference = As.create ~node:1 () in
  As.mmap reference ~addr:lo ~size:(hi - lo);
  As.advance_epoch reference;
  As.fill reference ~addr:lo ~size:(hi - lo) 0;
  List.iter
    (fun a ->
      let name what = Printf.sprintf "%s at 0x%x" what a in
      Alcotest.(check bool) (name "dirty") (As.page_dirty reference a) (As.page_dirty dst a);
      Alcotest.(check bool) (name "zero") (As.page_is_zero reference a) (As.page_is_zero dst a);
      Alcotest.(check int) (name "hash") (As.page_hash reference a) (As.page_hash dst a))
    interior;
  Alcotest.(check int) "epoch heat"
    (As.dirty_in_epoch reference ~addr:lo ~size:(hi - lo))
    (As.dirty_in_epoch dst ~addr:lo ~size:(hi - lo));
  Alcotest.(check int) "the checks allocate nothing" resident
    (As.resident_pages dst - resident0);
  Alcotest.(check int) "list checksum after the hop" sum (chain_sum dst head)

(* -- relocation (legacy scheme) unit behaviour -- *)

let test_relocation_moves_stack () =
  let c = cluster ~scheme:Cluster.Relocating () in
  let th = Cluster.host_thread c ~node:0 in
  let space0 = Cluster.node_space c 0 in
  let old_base = th.Thread.stack_slot in
  (* A local variable on the stack... *)
  let ctx = th.Thread.ctx in
  ctx.Interp.sp <- ctx.Interp.sp - 32;
  As.store_word space0 ctx.Interp.sp 4242;
  let old_sp = ctx.Interp.sp in
  Cluster.host_migrate c th ~dest:1;
  let space1 = Cluster.node_space c 1 in
  Alcotest.(check bool) "stack base changed" true (th.Thread.stack_slot <> old_base);
  Alcotest.(check bool) "sp rebased" true (th.Thread.ctx.Interp.sp <> old_sp);
  Alcotest.(check int) "local variable copied" 4242
    (As.load_word space1 th.Thread.ctx.Interp.sp);
  Cluster.check_invariants c

let test_relocation_patches_registered () =
  let c = cluster ~scheme:Cluster.Relocating () in
  let th = Cluster.host_thread c ~node:0 in
  let space0 = Cluster.node_space c 0 in
  let ctx = th.Thread.ctx in
  (* target at sp-8, pointer cell at sp-16, registered *)
  ctx.Interp.sp <- ctx.Interp.sp - 32;
  let target = ctx.Interp.sp + 16 and cell = ctx.Interp.sp + 8 in
  As.store_word space0 target 7;
  As.store_word space0 cell target;
  ignore (Thread.register_ptr th cell);
  Cluster.host_migrate c th ~dest:1;
  let space1 = Cluster.node_space c 1 in
  let cell' = List.hd (Thread.registered_cells th) in
  Alcotest.(check bool) "cell address rebased" true (cell' <> cell);
  let ptr = As.load_word space1 cell' in
  Alcotest.(check int) "patched pointer dereferences" 7 (As.load_word space1 ptr)

let test_relocation_rejects_data_slots () =
  let c = cluster ~scheme:Cluster.Relocating () in
  let th = Cluster.host_thread c ~node:0 in
  ignore (Option.get (Iso_heap.isomalloc (Cluster.host_env c 0) th 100));
  (* The failure is a typed error carrying the thread and stage, not a
     bare Failure: callers can match on it. *)
  match Cluster.host_migrate c th ~dest:1 with
  | () -> Alcotest.fail "legacy scheme accepted a thread with data slots"
  | exception Relocation.Error { tid; stage; _ } ->
    Alcotest.(check int) "error names the thread" th.Thread.id tid;
    Alcotest.(check string) "failed while packing" "pack" (Relocation.stage_name stage)

let test_relocation_releases_source_slot () =
  let c = cluster ~scheme:Cluster.Relocating () in
  let th = Cluster.host_thread c ~node:0 in
  let old_slot = Slot.index (Cluster.geometry c) th.Thread.stack_slot in
  Cluster.host_migrate c th ~dest:1;
  Alcotest.(check bool) "old stack slot back to node 0" true
    (Slot_manager.owns_free (Cluster.node_mgr c 0) old_slot)

let prop_iso_migration_preserves_blocks =
  QCheck2.Test.make ~name:"iso migration preserves every live block bit for bit" ~count:25
    QCheck2.Gen.(pair bool (list_size (int_range 1 20) (int_range 1 150_000)))
    (fun (full, sizes) ->
       let packing = if full then Migration.Full_slots else Migration.Blocks_only in
       let c = cluster ~packing () in
       let th = Cluster.host_thread c ~node:0 in
       let env0 = Cluster.host_env c 0 in
       let space0 = Cluster.node_space c 0 in
       let prng = Pm2_util.Prng.create ~seed:7 in
       let blocks =
         List.map
           (fun size ->
              let a = Option.get (Iso_heap.isomalloc env0 th size) in
              let data = Bytes.init (min size 4096) (fun _ -> Char.chr (Pm2_util.Prng.int prng 256)) in
              As.store_bytes space0 a data;
              (a, data))
           sizes
       in
       Cluster.host_migrate c th ~dest:1;
       let space1 = Cluster.node_space c 1 in
       Iso_heap.check_invariants (Cluster.host_env c 1) th;
       Cluster.check_invariants c;
       List.for_all
         (fun (a, data) -> Bytes.equal data (As.load_bytes space1 a (Bytes.length data)))
         blocks)

(* The full life cycle under fire: random allocs, frees, reallocs and
   migrations interleaved, with every live block's content verified after
   every step. *)
let prop_mixed_ops_with_migrations =
  let op_gen =
    QCheck2.Gen.(
      oneof
        [
          map (fun s -> `Alloc s) (int_range 1 120_000);
          return `Free;
          map (fun s -> `Realloc s) (int_range 1 120_000);
          map (fun d -> `Migrate d) (int_range 0 2);
        ])
  in
  QCheck2.Test.make ~name:"alloc/free/realloc/migrate interleavings" ~count:25
    QCheck2.Gen.(list_size (int_range 1 50) op_gen)
    (fun ops ->
       let config = Cluster.default_config ~nodes:3 in
       let c = Cluster.create config empty_program in
       let th = Cluster.host_thread c ~node:0 in
       let env () = Cluster.host_env c th.Thread.node in
       let space () = Cluster.node_space c th.Thread.node in
       let fill a size seed =
         As.store_bytes (space ()) a
           (Bytes.init (min size 512) (fun i -> Char.chr ((seed + i) land 0xff)))
       in
       let verify (a, size, seed) =
         let data = As.load_bytes (space ()) a (min size 512) in
         let ok = ref true in
         Bytes.iteri (fun i c -> if Char.code c <> (seed + i) land 0xff then ok := false) data;
         if not !ok then failwith "content corrupted"
       in
       let live = ref [] in
       let seed = ref 0 in
       List.iter
         (fun op ->
            (match op with
             | `Alloc size ->
               incr seed;
               let a = Option.get (Iso_heap.isomalloc (env ()) th size) in
               fill a size !seed;
               live := (a, size, !seed) :: !live
             | `Free ->
               (match !live with
                | (a, _, _) :: rest ->
                  Iso_heap.isofree (env ()) th a;
                  live := rest
                | [] -> ())
             | `Realloc size ->
               (match !live with
                | (a, _, _) :: rest ->
                  incr seed;
                  let a' = Option.get (Iso_heap.isorealloc (env ()) th a size) in
                  fill a' size !seed;
                  live := (a', size, !seed) :: rest
                | [] -> ())
             | `Migrate dest ->
               if dest <> th.Thread.node then Cluster.host_migrate c th ~dest);
            List.iter verify !live;
            Iso_heap.check_invariants (env ()) th)
         ops;
       Cluster.check_invariants c;
       true)

(* -- the ownership hop against the buffered reference --

   The direct hop moves page buffers; [Migration.pack]/[unpack] build
   and apply the wire image it models. On random iso heaps the two must
   leave the destination identical in everything a guest, the codecs or
   the balancer can observe, and charge and report the same. *)

module B = Pm2_heap.Blockfmt
module Sh = Slot_header

type heap_op =
  | H_alloc of int
  | H_free of int (* index into the live blocks *)
  | H_store of int * int * int (* live block index, word index, value *)

(* Everything the generator draws: heap operations, stores into the free
   blocks left at the end, the stack depth with stores above and below
   [sp], and how many epochs each side has opened. *)
type heap_case = {
  full : bool;
  ops : heap_op list;
  freed_stores : (int * int * int) list; (* free block index, word index, value *)
  depth : int; (* words below the stack top *)
  stack_stores : (int * int) list; (* word offset from sp (negative: dead), value *)
  src_epochs : int;
  dst_epochs : int;
}

let gen_heap_case =
  let open QCheck2.Gen in
  let size =
    frequency [ (6, int_range 1 600); (3, int_range 600 9000); (1, int_range 60_000 150_000) ]
  in
  let op =
    frequency
      [
        (4, map (fun n -> H_alloc n) size);
        (2, map (fun i -> H_free i) nat);
        (3, map3 (fun i w v -> H_store (i, w, v)) nat nat int);
      ]
  in
  let* full = bool in
  let* ops = list_size (int_range 1 30) op in
  let* freed_stores = list_size (int_range 0 12) (triple nat nat int) in
  let* depth = int_range 0 1500 in
  let* stack_stores = list_size (int_range 0 12) (pair (int_range (-200) 200) int) in
  let* src_epochs = int_range 0 2 in
  let* dst_epochs = int_range 0 2 in
  return { full; ops; freed_stores; depth; stack_stores; src_epochs; dst_epochs }

let show_heap_case hc =
  Printf.sprintf "%s, %d ops, %d freed stores, depth %d, epochs %d/%d"
    (if hc.full then "full slots" else "blocks only")
    (List.length hc.ops) (List.length hc.freed_stores) hc.depth hc.src_epochs hc.dst_epochs

(* The free blocks of every data slot of [th], in address order. *)
let free_blocks space th =
  List.concat_map
    (fun slot ->
      if Sh.read_kind space slot <> Sh.Data then []
      else
        B.fold space ~lo:(Sh.blocks_base slot) ~hi:(slot + Sh.read_size space slot)
          (fun acc b ~size ~used -> if used then acc else (b, size) :: acc)
          []
        |> List.rev)
    (Sh.chain_to_list space ~head:th.Thread.slots_head)

(* A two-node cluster whose node-0 thread holds [hc]'s heap. Building it
   twice from the same case gives two identical sources. *)
let build_heap hc =
  let packing = if hc.full then Migration.Full_slots else Migration.Blocks_only in
  let c = cluster ~packing () in
  let th = Cluster.host_thread c ~node:0 in
  let env = Cluster.host_env c 0 and space = Cluster.node_space c 0 in
  let live = ref [] in
  let nth l i = List.nth l (i mod List.length l) in
  List.iter
    (function
      | H_alloc n -> Option.iter (fun a -> live := (a, n) :: !live) (Iso_heap.isomalloc env th n)
      | H_free i when !live <> [] ->
        let a, _ = nth !live i in
        Iso_heap.isofree env th a;
        live := List.filter (fun (b, _) -> b <> a) !live
      | H_store (i, w, v) when !live <> [] ->
        let a, n = nth !live i in
        if n >= 8 then As.store_word space (a + (8 * (w mod (n / 8)))) v
      | H_free _ | H_store _ -> ())
    hc.ops;
  (match free_blocks space th with
   | [] -> ()
   | frees ->
     List.iter
       (fun (i, w, v) ->
         (* Inside the block, clear of its tags and list links. *)
         let b, size = nth frees i in
         if size > 32 then As.store_word space (b + 24 + (8 * (w mod ((size - 32) / 8)))) v)
       hc.freed_stores);
  let ctx = th.Thread.ctx in
  ctx.Interp.sp <- ctx.Interp.sp - (8 * hc.depth);
  let floor = th.Thread.stack_slot + Sh.size_of_header in
  let top = th.Thread.stack_slot + Sh.read_size space th.Thread.stack_slot in
  List.iter
    (fun (off, v) ->
      let a = ctx.Interp.sp + (8 * off) in
      if a >= floor && a + 8 <= top then As.store_word space a v)
    hc.stack_stores;
  for _ = 1 to hc.src_epochs do As.advance_epoch space done;
  for _ = 1 to hc.dst_epochs do As.advance_epoch (Cluster.node_space c 1) done;
  (c, th, packing)

(* Every event the hop emits, in order. *)
let recording () =
  let events = ref [] in
  let obs = Pm2_obs.Collector.create ~now:(fun () -> 0.) () in
  Pm2_obs.Collector.attach obs
    (Pm2_obs.Sink.make ~name:"hop" (fun ~time:_ ~node ev -> events := (node, ev) :: !events));
  (obs, fun () -> List.rev !events)

(* The destination and source state one side of the oracle observes. *)
let observe c th ranges =
  let src = Cluster.node_space c 0 and dst = Cluster.node_space c 1 in
  let pages =
    List.concat_map
      (fun (addr, size) ->
        List.init (size / Layout.page_size) (fun i ->
            let a = addr + (i * Layout.page_size) in
            ( a,
              As.page_dirty dst a,
              As.dirty_in_epoch dst ~addr:a ~size:Layout.page_size,
              As.page_hash dst a,
              As.page_is_zero dst a )))
      ranges
  in
  let free_lists =
    List.map
      (fun slot ->
        let rec walk b acc =
          if b = 0 then List.rev acc else walk (B.read_next_free dst b) (b :: acc)
        in
        (slot, walk (Sh.read_free_head dst slot) []))
      (Sh.chain_to_list dst ~head:th.Thread.slots_head)
  in
  let bytes = List.map (fun (addr, size) -> As.load_bytes dst addr size) ranges in
  let unmapped = List.for_all (fun (addr, size) -> As.range_unmapped src ~addr ~size) ranges in
  (pages, free_lists, bytes, unmapped, As.mapped_pages src, As.mapped_pages dst)

let prop_ownership_hop_matches_buffered =
  QCheck2.Test.make ~name:"ownership hop leaves what pack/unpack leaves" ~count:150
    ~print:show_heap_case gen_heap_case (fun hc ->
      let cost = Pm2_sim.Cost_model.default in
      (* The reference: the wire image, packed and unpacked. *)
      let c1, th1, packing = build_heap hc in
      let ranges = Migration.slot_ranges (Cluster.node_space c1 0) th1 in
      let obs1, events1 = recording () in
      let packed =
        Migration.pack ~obs:obs1 ~cost ~space:(Cluster.node_space c1 0) ~packing th1
      in
      let unpack_cost =
        Migration.unpack ~obs:obs1 ~node:1 ~cost ~space:(Cluster.node_space c1 1) th1
          packed.Migration.buffer
      in
      (* The hop. *)
      let c2, th2, _ = build_heap hc in
      let obs2, events2 = recording () in
      let moved =
        Migration.move_out ~obs:obs2 ~cost ~space:(Cluster.node_space c2 0) ~packing th2
      in
      let move_cost =
        Migration.move_in ~obs:obs2 ~node:1 ~cost ~space:(Cluster.node_space c2 1) th2 moved
      in
      let check what ok = if not ok then QCheck2.Test.fail_reportf "%s differs" what in
      check "wire bytes" (moved.Migration.m_bytes = Bytes.length packed.Migration.buffer);
      check "pack cost" (moved.Migration.m_pack_cost = packed.Migration.pack_cost);
      check "slots" (moved.Migration.m_slots = packed.Migration.slots);
      check "unpack cost" (move_cost = unpack_cost);
      check "events" (events1 () = events2 ());
      let pages1, lists1, bytes1, unmapped1, src1, dst1 = observe c1 th1 ranges in
      let pages2, lists2, bytes2, unmapped2, src2, dst2 = observe c2 th2 ranges in
      check "page marks, heat, hashes or zero state" (pages1 = pages2);
      check "rebuilt free lists" (lists1 = lists2);
      check "page bytes" (List.equal Bytes.equal bytes1 bytes2);
      check "source left mapped" (unmapped1 && unmapped2);
      check "mapped page counts" (src1 = src2 && dst1 = dst2);
      true)

let tests =
  [
    Alcotest.test_case "roundtrip (blocks-only)" `Quick (test_roundtrip Migration.Blocks_only);
    Alcotest.test_case "roundtrip (full slots)" `Quick (test_roundtrip Migration.Full_slots);
    Alcotest.test_case "blocks-only ships less" `Quick test_blocks_only_smaller;
    Alcotest.test_case "allocator usable after migration" `Quick
      test_allocator_usable_after_migration;
    Alcotest.test_case "slots released to the visited node" `Quick
      test_slot_released_to_visited_node;
    Alcotest.test_case "repeated back and forth" `Quick test_migration_back_and_forth;
    Alcotest.test_case "pointer registry travels" `Quick test_registry_travels;
    Alcotest.test_case "merged slot migrates" `Quick test_merged_slot_migrates;
    Alcotest.test_case "null-thread wire size" `Quick test_null_thread_wire_size;
    Alcotest.test_case "null hop independent of slot size" `Quick
      test_null_hop_independent_of_slot_size;
    Alcotest.test_case "image size exact (blocks-only)" `Quick
      (test_image_size_exact Migration.Blocks_only);
    Alcotest.test_case "image size exact (full slots)" `Quick
      (test_image_size_exact Migration.Full_slots);
    Alcotest.test_case "untouched memory stays unallocated across a hop" `Quick
      test_untouched_memory_across_hop;
    Alcotest.test_case "relocation moves the stack" `Quick test_relocation_moves_stack;
    Alcotest.test_case "relocation patches registered pointers" `Quick
      test_relocation_patches_registered;
    Alcotest.test_case "relocation rejects data slots" `Quick
      test_relocation_rejects_data_slots;
    Alcotest.test_case "relocation releases the source slot" `Quick
      test_relocation_releases_source_slot;
    QCheck_alcotest.to_alcotest prop_iso_migration_preserves_blocks;
    QCheck_alcotest.to_alcotest prop_mixed_ops_with_migrations;
    QCheck_alcotest.to_alcotest prop_ownership_hop_matches_buffered;
  ]

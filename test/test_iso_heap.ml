module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout
module Cm = Pm2_sim.Cost_model
open Pm2_core

let empty_program = Pm2.build (fun _ -> ())

let cluster ?(nodes = 2) ?(distribution = Distribution.Round_robin) ?(cache = 16) () =
  let config =
    { (Cluster.default_config ~nodes) with
      Cluster.distribution;
      cache_capacity = cache;
    }
  in
  Cluster.create config empty_program

let setup ?nodes ?distribution ?cache () =
  let c = cluster ?nodes ?distribution ?cache () in
  let th = Cluster.host_thread c ~node:0 in
  let env = Cluster.host_env c 0 in
  (c, env, th)

let slot_payload = Iso_heap.slot_capacity Slot.default

(* A guest that links a freed block to itself makes the slot's free
   list a cycle: the next search that does not fit earlier must fail as
   a runtime error, not spin. *)
let test_free_list_cycle_rejected () =
  let _, env, th = setup () in
  let a = Option.get (Iso_heap.isomalloc env th 100) in
  ignore (Option.get (Iso_heap.isomalloc env th 100));
  Iso_heap.isofree env th a;
  As.store_word env.Iso_heap.space a (a - 8);
  match Iso_heap.isomalloc env th 60000 with
  | _ -> Alcotest.fail "the search returned through a free-list cycle"
  | exception Invalid_argument _ -> ()

let test_basic_alloc () =
  let c, env, th = setup () in
  let a = Option.get (Iso_heap.isomalloc env th 100) in
  Alcotest.(check bool) "in iso area" true (Layout.in_iso_area a);
  Alcotest.(check int) "aligned" 0 (a land 7);
  Alcotest.(check bool) "usable" true (Iso_heap.usable_size env th a >= 100);
  As.fill env.Iso_heap.space ~addr:a ~size:100 0xee;
  Alcotest.(check int) "writable" 0xee (As.load_u8 env.Iso_heap.space (a + 99));
  Iso_heap.check_invariants env th;
  Cluster.check_invariants c

let test_block_packing () =
  (* Many small blocks fit in one slot: footprint = stack slot + 1. *)
  let _, env, th = setup () in
  let addrs = List.init 50 (fun _ -> Option.get (Iso_heap.isomalloc env th 64)) in
  Alcotest.(check int) "live blocks" 50 (List.length (Iso_heap.live_blocks env th));
  Alcotest.(check int) "footprint: stack + one data slot" (2 * 65536)
    (Iso_heap.footprint env th);
  (* All distinct and non-overlapping. *)
  let sorted = List.sort compare addrs in
  let rec no_overlap = function
    | a :: (b :: _ as rest) -> a + 64 <= b && no_overlap rest
    | _ -> true
  in
  Alcotest.(check bool) "no overlap" true (no_overlap sorted);
  Iso_heap.check_invariants env th

let test_first_fit_reuse () =
  let _, env, th = setup () in
  let a = Option.get (Iso_heap.isomalloc env th 256) in
  let _b = Option.get (Iso_heap.isomalloc env th 256) in
  Iso_heap.isofree env th a;
  let c = Option.get (Iso_heap.isomalloc env th 256) in
  Alcotest.(check int) "freed block reused first-fit" a c;
  Iso_heap.check_invariants env th

let test_coalescing_inside_slot () =
  let _, env, th = setup () in
  let a = Option.get (Iso_heap.isomalloc env th 200) in
  let b = Option.get (Iso_heap.isomalloc env th 200) in
  let c = Option.get (Iso_heap.isomalloc env th 200) in
  let _d = Option.get (Iso_heap.isomalloc env th 200) in
  Iso_heap.isofree env th a;
  Iso_heap.isofree env th c;
  Iso_heap.check_invariants env th;
  Iso_heap.isofree env th b;
  Iso_heap.check_invariants env th;
  (* a+b+c coalesced into one 648-byte block (3 x 216): a 600-byte request
     (needs 616) must land at a's address, ahead of the slot remainder. *)
  let e = Option.get (Iso_heap.isomalloc env th 600) in
  Alcotest.(check int) "coalesced region reused" a e;
  Iso_heap.check_invariants env th

let test_slot_released_when_empty () =
  let c, env, th = setup () in
  let owned_before = Slot_manager.owned (Cluster.node_mgr c 0) in
  let a = Option.get (Iso_heap.isomalloc env th 100) in
  Alcotest.(check int) "slot taken" (owned_before - 1)
    (Slot_manager.owned (Cluster.node_mgr c 0));
  Iso_heap.isofree env th a;
  Alcotest.(check int) "slot given back" owned_before
    (Slot_manager.owned (Cluster.node_mgr c 0));
  Alcotest.(check int) "only the stack slot remains" 65536 (Iso_heap.footprint env th);
  Iso_heap.check_invariants env th;
  Cluster.check_invariants c

let test_multi_slot_alloc () =
  let c, env, th = setup () in
  let size = 3 * 65536 in
  let neg_before = Negotiation.count (Cluster.negotiation c) in
  let a = Option.get (Iso_heap.isomalloc env th size) in
  (* Round-robin over 2 nodes: no two contiguous slots are local, so this
     must have negotiated (paper, section 5). *)
  Alcotest.(check int) "negotiation happened" (neg_before + 1)
    (Negotiation.count (Cluster.negotiation c));
  (* The whole block is usable across slot boundaries. *)
  As.store_word env.Iso_heap.space a 0x11;
  As.store_word env.Iso_heap.space (a + size - 8) 0x22;
  Alcotest.(check int) "first word" 0x11 (As.load_word env.Iso_heap.space a);
  Alcotest.(check int) "last word" 0x22 (As.load_word env.Iso_heap.space (a + size - 8));
  Iso_heap.check_invariants env th;
  Cluster.check_invariants c;
  Iso_heap.isofree env th a;
  Alcotest.(check int) "merged slots all released" 65536 (Iso_heap.footprint env th);
  Cluster.check_invariants c

let test_multi_slot_local_when_partitioned () =
  (* With a partitioned distribution the node owns a huge contiguous range:
     multi-slot requests stay local (the paper's point about choosing a
     good initial distribution). *)
  let c, env, th = setup ~distribution:Distribution.Partition () in
  let neg_before = Negotiation.count (Cluster.negotiation c) in
  let a = Option.get (Iso_heap.isomalloc env th (10 * 65536)) in
  Alcotest.(check int) "no negotiation" neg_before
    (Negotiation.count (Cluster.negotiation c));
  Alcotest.(check bool) "allocated" true (Layout.in_iso_area a);
  Iso_heap.check_invariants env th

let test_exact_slot_capacity () =
  let _, env, th = setup () in
  (* A block of exactly the slot payload uses one slot, no split leftover. *)
  let a = Option.get (Iso_heap.isomalloc env th (slot_payload - 16)) in
  Alcotest.(check int) "one data slot" (2 * 65536) (Iso_heap.footprint env th);
  Iso_heap.isofree env th a;
  Iso_heap.check_invariants env th

let test_absurd_request_returns_none () =
  let _, env, th = setup () in
  Alcotest.(check (option int)) "larger than the whole area" None
    (Iso_heap.isomalloc env th (Layout.iso_size + 65536));
  Iso_heap.check_invariants env th

let test_oversize_requests_refused () =
  (* Sizes near max_int must not wrap to a tiny block: the guest's r1
     reaches these calls unchecked. *)
  let _, env, th = setup () in
  let a = Option.get (Iso_heap.isomalloc env th 100) in
  List.iter
    (fun size ->
       Alcotest.(check (option int)) (Printf.sprintf "isomalloc %d" size) None
         (Iso_heap.isomalloc env th size);
       Alcotest.(check (option int)) (Printf.sprintf "isorealloc %d" size) None
         (Iso_heap.isorealloc env th a size))
    [ max_int; max_int - 7; max_int - 65536 ];
  Alcotest.(check (option int)) "isocalloc product overflows" None
    (Iso_heap.isocalloc env th ~count:(1 lsl 31) ~size:((1 lsl 32) + 1));
  Alcotest.(check (option int)) "isocalloc max_int x 2" None
    (Iso_heap.isocalloc env th ~count:max_int ~size:2);
  Alcotest.(check bool) "failed realloc keeps the block" true
    (Iso_heap.usable_size env th a >= 100);
  Alcotest.(check int) "only the original block is live" 1
    (List.length (Iso_heap.live_blocks env th));
  Iso_heap.check_invariants env th

let test_invalid_frees () =
  let _, env, th = setup () in
  let a = Option.get (Iso_heap.isomalloc env th 100) in
  Alcotest.(check bool) "interior pointer rejected" true
    (try Iso_heap.isofree env th (a + 8); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "address outside any slot" true
    (try Iso_heap.isofree env th Layout.heap_base; false with Invalid_argument _ -> true);
  Alcotest.(check bool) "stack address rejected" true
    (try Iso_heap.isofree env th (th.Thread.stack_slot + 4096); false
     with Invalid_argument _ -> true);
  Iso_heap.isofree env th a;
  Alcotest.(check bool) "double free rejected" true
    (try Iso_heap.isofree env th a; false with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero size rejected" true
    (try ignore (Iso_heap.isomalloc env th 0); false with Invalid_argument _ -> true);
  (* the guest zeroed a block header: the walk that validates a free
     must stop, not spin *)
  let x = Option.get (Iso_heap.isomalloc env th 100) in
  let y = Option.get (Iso_heap.isomalloc env th 100) in
  As.store_word env.Iso_heap.space (x - 8) 0;
  Alcotest.(check bool) "scribbled header rejected" true
    (try Iso_heap.isofree env th y; false with Invalid_argument _ -> true)

let test_thread_isolation () =
  let c, env, th_a = setup () in
  let th_b = Cluster.host_thread c ~node:0 in
  let a = Option.get (Iso_heap.isomalloc env th_a 100) in
  let b = Option.get (Iso_heap.isomalloc env th_b 100) in
  Alcotest.(check bool) "different slots" true
    (Slot.index Slot.default a <> Slot.index Slot.default b);
  Alcotest.(check bool) "cross-thread free rejected" true
    (try Iso_heap.isofree env th_b a; false with Invalid_argument _ -> true);
  Iso_heap.check_invariants env th_a;
  Iso_heap.check_invariants env th_b

let test_stack_slot_lifecycle () =
  let c, env, _ = setup () in
  let mgr = Cluster.node_mgr c 0 in
  let owned0 = Slot_manager.owned mgr in
  let th = Cluster.host_thread c ~node:0 in
  Alcotest.(check int) "stack slot taken" (owned0 - 1) (Slot_manager.owned mgr);
  Alcotest.(check bool) "stack slot linked" true (th.Thread.slots_head = th.Thread.stack_slot);
  ignore (Iso_heap.isomalloc env th 100);
  ignore (Iso_heap.isomalloc env th (2 * 65536));
  Alcotest.(check int) "three chain entries" 3 (List.length (Iso_heap.slot_list env th));
  Iso_heap.release_all env th;
  (* Everything goes to the visited node — including slots bought from
     node 1 during the multi-slot negotiation, so node 0 may end with
     MORE slots than it started with (paper, §4.2 last remark). *)
  Alcotest.(check bool) "all slots back (possibly more than initially)" true
    (Slot_manager.owned mgr >= owned0);
  let total = Slot_manager.owned mgr + Slot_manager.owned (Cluster.node_mgr c 1) in
  Alcotest.(check int) "no slot lost globally"
    ((Cluster.geometry c).Slot.count - 1 (* the setup host thread's stack *))
    total;
  Alcotest.(check int) "chain empty" 0 th.Thread.slots_head;
  Cluster.check_invariants c

let test_charges_include_negotiation () =
  let c, env, th = setup () in
  ignore (Cluster.drain_charges c 0);
  ignore (Iso_heap.isomalloc env th (2 * 65536));
  let charged = Cluster.drain_charges c 0 in
  let d = Negotiation.duration_model (Cluster.negotiation c) ~nodes:2 in
  Alcotest.(check bool)
    (Printf.sprintf "charge %.1f >= negotiation %.1f" charged d)
    true (charged >= d)

(* Property: random isomalloc/isofree sequences keep every invariant and
   never produce overlapping live blocks. *)
let prop_random_ops =
  let gen =
    QCheck2.Gen.(list_size (int_range 1 80) (pair bool (int_range 1 200_000)))
  in
  QCheck2.Test.make ~name:"iso heap stays coherent under random ops" ~count:40 gen
    (fun ops ->
       let c, env, th = setup () in
       let live = ref [] in
       List.iter
         (fun (is_alloc, size) ->
            if is_alloc || !live = [] then begin
              match Iso_heap.isomalloc env th size with
              | None -> failwith "unexpected exhaustion"
              | Some a ->
                List.iter
                  (fun (b, bsize) ->
                     if a < b + bsize && b < a + size then failwith "overlap")
                  !live;
                live := (a, size) :: !live
            end
            else begin
              match !live with
              | (a, _) :: rest ->
                Iso_heap.isofree env th a;
                live := rest
              | [] -> ()
            end;
            Iso_heap.check_invariants env th)
         ops;
       Cluster.check_invariants c;
       (* Free everything: the thread must end with only its stack slot. *)
       List.iter (fun (a, _) -> Iso_heap.isofree env th a) !live;
       Iso_heap.check_invariants env th;
       Iso_heap.footprint env th = 65536)

(* Property: the iso-address discipline — the slots of a thread on node 0
   are never owned (bit set) by any node. *)
let prop_iso_discipline =
  QCheck2.Test.make ~name:"thread slots appear in no node bitmap" ~count:20
    QCheck2.Gen.(list_size (int_range 1 30) (int_range 1 300_000))
    (fun sizes ->
       let c, env, th = setup ~nodes:3 () in
       List.iter (fun s -> ignore (Iso_heap.isomalloc env th s)) sizes;
       let g = Cluster.geometry c in
       List.for_all
         (fun slot_base ->
            let first = Slot.index g slot_base in
            let n = Slot_header.read_size env.Iso_heap.space slot_base / g.Slot.slot_size in
            List.for_all
              (fun node ->
                 let mgr = Cluster.node_mgr c node in
                 List.for_all
                   (fun i -> not (Slot_manager.owns_free mgr i))
                   (List.init n (fun k -> first + k)))
              [ 0; 1; 2 ])
         (Iso_heap.slot_list env th))

let tests =
  [
    Alcotest.test_case "basic isomalloc" `Quick test_basic_alloc;
    Alcotest.test_case "blocks pack into slots" `Quick test_block_packing;
    Alcotest.test_case "first-fit reuse" `Quick test_first_fit_reuse;
    Alcotest.test_case "coalescing inside a slot" `Quick test_coalescing_inside_slot;
    Alcotest.test_case "empty slot released to node" `Quick test_slot_released_when_empty;
    Alcotest.test_case "multi-slot allocation negotiates" `Quick test_multi_slot_alloc;
    Alcotest.test_case "partitioned distribution stays local" `Quick
      test_multi_slot_local_when_partitioned;
    Alcotest.test_case "exact slot capacity" `Quick test_exact_slot_capacity;
    Alcotest.test_case "absurd request returns None" `Quick test_absurd_request_returns_none;
    Alcotest.test_case "oversize requests refused" `Quick test_oversize_requests_refused;
    Alcotest.test_case "invalid frees rejected" `Quick test_invalid_frees;
    Alcotest.test_case "free-list cycle rejected" `Quick test_free_list_cycle_rejected;
    Alcotest.test_case "thread isolation" `Quick test_thread_isolation;
    Alcotest.test_case "stack slot lifecycle" `Quick test_stack_slot_lifecycle;
    Alcotest.test_case "negotiation cost charged" `Quick test_charges_include_negotiation;
    QCheck_alcotest.to_alcotest prop_random_ops;
    QCheck_alcotest.to_alcotest prop_iso_discipline;
  ]

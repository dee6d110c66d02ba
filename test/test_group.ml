(* The group-migration pipeline: the v2 wire codec (varints, page
   manifests, zero-page elision, v1 compatibility), the batched
   [Cluster.migrate_group] path with its atomic rollback, and the
   group-aware balancer policy. *)

module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout
module Packet = Pm2_net.Packet
module Codec = Pm2_net.Codec
module Plan = Pm2_fault.Plan
module Balancer = Pm2_loadbal.Balancer
open Pm2_core

let page = Layout.page_size
let empty_program = Pm2.build (fun _ -> ())

let cluster ?fault_plan ?(nodes = 2) () =
  Cluster.create (Pm2.Config.make ~nodes ?fault_plan ()) empty_program

(* -- varints -- *)

let test_varint_roundtrip () =
  let values =
    [ 0; 1; -1; 63; 64; -64; -65; 300; -300; 1 lsl 20; -(1 lsl 20); max_int; min_int + 1 ]
  in
  let p = Packet.packer () in
  List.iter (Packet.pack_varint p) values;
  let u = Packet.unpacker (Packet.contents p) in
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) v (Packet.unpack_varint u))
    values;
  Alcotest.(check int) "nothing left over" 0 (Packet.remaining u)

let test_varint_compact () =
  (* Zigzag LEB128: one byte for small magnitudes of either sign. *)
  let size v =
    let p = Packet.packer () in
    Packet.pack_varint p v;
    Packet.packed_size p
  in
  Alcotest.(check int) "0 is 1 byte" 1 (size 0);
  Alcotest.(check int) "-1 is 1 byte" 1 (size (-1));
  Alcotest.(check int) "63 is 1 byte" 1 (size 63);
  Alcotest.(check bool) "64 needs 2 bytes" true (size 64 > 1)

(* -- framing -- *)

let test_frame_roundtrip () =
  let payload = Bytes.of_string "group image bytes" in
  (match Codec.parse (Codec.frame Codec.V2 payload) with
   | Ok (Codec.V2, p) -> Alcotest.(check bytes) "v2 payload" payload p
   | _ -> Alcotest.fail "v2 frame did not parse");
  match Codec.parse (Codec.frame Codec.V1 payload) with
  | Ok (Codec.V1, p) -> Alcotest.(check bytes) "v1 payload" payload p
  | _ -> Alcotest.fail "v1 frame did not parse"

let test_bare_buffer_is_v1 () =
  (* Pre-codec images carry no magic: they must parse as bare v1. *)
  let legacy = Bytes.of_string "MIGRlegacy image without codec framing" in
  match Codec.parse legacy with
  | Ok (Codec.V1, p) -> Alcotest.(check bytes) "untouched" legacy p
  | _ -> Alcotest.fail "bare buffer did not parse as v1"

let test_truncated_frame_rejected () =
  let framed = Codec.frame Codec.V2 (Bytes.make 64 'x') in
  let truncated = Bytes.sub framed 0 (Bytes.length framed - 8) in
  match Codec.parse truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated frame accepted"

let test_single_thread_image_still_v1 () =
  (* The single-thread migration path still emits bare v1 images. *)
  let c = cluster () in
  let th = Cluster.host_thread c ~node:0 in
  let p =
    Migration.pack
      ~obs:(Cluster.obs c) ~node:0 ~geometry:(Cluster.geometry c)
      ~cost:(Cluster.config c).Cluster.cost ~space:(Cluster.node_space c 0)
      ~packing:Migration.Blocks_only th
  in
  match Codec.parse p.Migration.buffer with
  | Ok (Codec.V1, b) -> Alcotest.(check bool) "same buffer" true (b == p.Migration.buffer)
  | _ -> Alcotest.fail "v1 image did not parse as v1"

(* -- manifests and range encoding -- *)

let test_manifest_classifies_runs () =
  let space = As.create ~node:0 () in
  let addr = 0x10000 in
  As.mmap space ~addr ~size:(8 * page);
  (* pages 2 and 3 carry data; 0-1 and 4-7 stay zero *)
  As.store_word space (addr + (2 * page) + 24) 42;
  As.store_word space (addr + (3 * page)) 1;
  (match Codec.manifest space ~addr ~size:(8 * page) with
   | [ { Codec.data = false; pages = 2 }; { data = true; pages = 2 }; { data = false; pages = 4 } ]
     -> ()
   | runs ->
     Alcotest.failf "unexpected manifest: %s"
       (String.concat ";"
          (List.map
             (fun r -> Printf.sprintf "%c%d" (if r.Codec.data then 'd' else 'z') r.Codec.pages)
             runs)));
  Alcotest.check_raises "unaligned size rejected"
    (Invalid_argument "Codec.manifest: size not a positive multiple of the page size")
    (fun () -> ignore (Codec.manifest space ~addr ~size:100))

let test_range_roundtrip_elides_zeros () =
  let src = As.create ~node:0 () in
  let addr = 0x40000 and size = 16 * page in
  As.mmap src ~addr ~size;
  (* one data page in sixteen *)
  As.store_word src (addr + (5 * page) + 8) 0xbeef;
  let p = Packet.packer () in
  let data_pages, zero_pages = Codec.encode_range p src ~addr ~size in
  Alcotest.(check (pair int int)) "1 data, 15 elided" (1, 15) (data_pages, zero_pages);
  Alcotest.(check bool) "image well under the raw range" true
    (Packet.packed_size p < 2 * page);
  let dst = As.create ~node:1 () in
  As.mmap dst ~addr ~size;
  let stored = Codec.decode_range (Packet.unpacker (Packet.contents p)) dst ~addr ~size in
  Alcotest.(check int) "stored the data page" 1 stored;
  Alcotest.(check int) "word arrived" 0xbeef (As.load_word dst (addr + (5 * page) + 8));
  Alcotest.(check bool) "zero page stayed zero" true (As.page_is_zero dst (addr + page));
  Alcotest.(check bytes) "whole range identical"
    (As.load_bytes src addr size) (As.load_bytes dst addr size)

(* -- the group pipeline -- *)

let payload = 16 * page

let furnish c n =
  let env = Cluster.host_env c 0 in
  let space = Cluster.node_space c 0 in
  List.init n (fun i ->
      let th = Cluster.host_thread c ~node:0 in
      let addr = Option.get (Iso_heap.isomalloc env th payload) in
      (* sparse: one word per four pages *)
      for p = 0 to (payload / page) - 1 do
        if p mod 4 = 0 then As.store_word space (addr + (p * page)) (7000 + (i * 100) + p)
      done;
      (th, addr))

let verify ths ~space =
  List.iteri
    (fun i ((_ : Thread.t), addr) ->
       for p = 0 to (payload / page) - 1 do
         if p mod 4 = 0 then
           Alcotest.(check int)
             (Printf.sprintf "member %d page %d" i p)
             (7000 + (i * 100) + p)
             (As.load_word space (addr + (p * page)))
       done)
    ths

let test_group_migration () =
  let c = cluster () in
  let ths = furnish c 4 in
  (match Cluster.migrate_group c (List.map fst ths) ~dest:1 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  ignore (Cluster.run c);
  List.iter
    (fun ((th : Thread.t), _) ->
       Alcotest.(check int) "member on destination" 1 th.Thread.node;
       Alcotest.(check bool) "member ready" true (th.Thread.state = Thread.Ready))
    ths;
  verify ths ~space:(Cluster.node_space c 1);
  (match Cluster.group_migrations c with
   | [ g ] ->
     Alcotest.(check int) "4 members in the record" 4 (List.length g.Cluster.g_members);
     Alcotest.(check bool) "zero pages elided" true (g.Cluster.g_zero_pages > 0);
     Alcotest.(check bool) "resumed after start" true (g.Cluster.g_resumed > g.Cluster.g_started)
   | l -> Alcotest.failf "%d group records" (List.length l));
  Alcotest.(check int) "no aborts" 0 (Cluster.aborted_groups c);
  Cluster.check_invariants c

let test_group_beats_sequential_wire () =
  let wire_of run =
    let c = cluster () in
    let ths = furnish c 4 in
    let before = Pm2_net.Network.bytes_sent (Cluster.network c) in
    run c (List.map fst ths);
    Pm2_net.Network.bytes_sent (Cluster.network c) - before
  in
  let sequential =
    wire_of (fun c ths -> List.iter (fun th -> Cluster.host_migrate c th ~dest:1) ths)
  in
  let grouped =
    wire_of (fun c ths ->
        (match Cluster.migrate_group c ths ~dest:1 with
         | Ok _ -> ()
         | Error e -> Alcotest.fail e);
        ignore (Cluster.run c))
  in
  Alcotest.(check bool)
    (Printf.sprintf "group %d < 70%% of sequential %d" grouped sequential)
    true
    (float_of_int grouped < 0.7 *. float_of_int sequential)

let test_group_rollback_on_dropped_train () =
  (* Sever the link for good just after the handshake: every train frame
     and every retransmit is lost, the reliable layer gives up, and the
     group must be back on node 0 in one piece. The handshake (probe +
     verdict) is over well before 100 us; the pack alone costs more. A
     lone thread is a group of one and takes the same rollback. *)
  let spec =
    match Plan.spec_of_string "part=0-1@100-1e12" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun n ->
      let c = cluster ~fault_plan:(Plan.create ~seed:3 spec) () in
      let m = Pm2_obs.Metrics.create () in
      Pm2_obs.Collector.attach (Cluster.obs c) (Pm2_obs.Metrics.sink m);
      let ths = furnish c n in
      (match Cluster.migrate_group c (List.map fst ths) ~dest:1 with
       | Ok _ -> ()
       | Error e -> Alcotest.fail e);
      ignore (Cluster.run c);
      let label what = Printf.sprintf "%d members: %s" n what in
      Alcotest.(check int) (label "one abort") 1 (Cluster.aborted_groups c);
      Alcotest.(check int) (label "every member counted as aborted") n
        (Cluster.aborted_migrations c);
      Alcotest.(check int) (label "image remapped at home for every member") n
        (Pm2_obs.Metrics.total_counter m "migration.rollback");
      Alcotest.(check int) (label "no completed group") 0
        (List.length (Cluster.group_migrations c));
      Alcotest.(check int) (label "no per-thread record either") 0
        (List.length (Cluster.migrations c));
      List.iter
        (fun ((th : Thread.t), _) ->
           Alcotest.(check int) (label "member back home") 0 th.Thread.node;
           Alcotest.(check bool) (label "member ready again") true
             (th.Thread.state = Thread.Ready))
        ths;
      verify ths ~space:(Cluster.node_space c 0);
      Cluster.check_invariants c)
    [ 4; 1 ]

let test_group_validation () =
  let c = cluster ~nodes:3 () in
  let a = Cluster.host_thread c ~node:0 in
  let b = Cluster.host_thread c ~node:1 in
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty group" true (is_error (Cluster.migrate_group c [] ~dest:1));
  Alcotest.(check bool) "bad destination" true
    (is_error (Cluster.migrate_group c [ a ] ~dest:9));
  Alcotest.(check bool) "mixed nodes" true
    (is_error (Cluster.migrate_group c [ a; b ] ~dest:2));
  Alcotest.(check bool) "duplicate member" true
    (is_error (Cluster.migrate_group c [ a; a ] ~dest:1));
  Alcotest.(check bool) "already at destination" true
    (is_error (Cluster.migrate_group c [ a ] ~dest:0));
  (* a failed validation must not have touched the threads *)
  Alcotest.(check bool) "a untouched" true (a.Thread.state = Thread.Ready);
  Alcotest.(check int) "a still home" 0 a.Thread.node;
  Alcotest.(check int) "nothing aborted" 0 (Cluster.aborted_groups c);
  Cluster.check_invariants c

(* -- the group-aware balancer policy -- *)

let test_group_threshold_policy () =
  let program = Pm2_programs.Figures.image () in
  let config = Pm2.Config.make ~nodes:4 () in
  let cluster = Pm2.launch ~config program ~spawns:[ (0, "spawner", 16) ] in
  let b =
    Balancer.attach cluster
      ~policy:(Balancer.Group_threshold { high = 2; low = 8; limit = 4 })
      ~period:400.
  in
  ignore (Cluster.run cluster);
  Cluster.check_invariants cluster;
  let stats = Balancer.stats b in
  Alcotest.(check bool) "groups requested" true (stats.Balancer.groups_requested > 0);
  Alcotest.(check bool) "groups completed" true
    (List.length (Cluster.group_migrations cluster) > 0);
  Alcotest.(check int) "all work done" 0 (Cluster.live_threads cluster);
  Alcotest.(check string) "policy name" "group-threshold(high=2,low=8,limit=4)"
    (Balancer.policy_to_string (Balancer.Group_threshold { high = 2; low = 8; limit = 4 }))

let tests =
  [
    Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
    Alcotest.test_case "varint compactness" `Quick test_varint_compact;
    Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "bare buffer is v1" `Quick test_bare_buffer_is_v1;
    Alcotest.test_case "truncated frame rejected" `Quick test_truncated_frame_rejected;
    Alcotest.test_case "single-thread image still v1" `Quick test_single_thread_image_still_v1;
    Alcotest.test_case "manifest classifies runs" `Quick test_manifest_classifies_runs;
    Alcotest.test_case "range roundtrip elides zeros" `Quick test_range_roundtrip_elides_zeros;
    Alcotest.test_case "group migration moves everyone" `Quick test_group_migration;
    Alcotest.test_case "group beats sequential on the wire" `Quick
      test_group_beats_sequential_wire;
    Alcotest.test_case "dropped train rolls back atomically" `Quick
      test_group_rollback_on_dropped_train;
    Alcotest.test_case "group validation" `Quick test_group_validation;
    Alcotest.test_case "group-threshold balancer policy" `Quick test_group_threshold_policy;
  ]

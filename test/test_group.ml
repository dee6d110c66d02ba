(* The group-migration pipeline: the wire codec (varints, frames, page
   manifests, zero-page elision, golden range bytes), the batched
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
  Alcotest.(check bool) "64 needs 2 bytes" true (size 64 > 1);
  List.iter
    (fun v ->
      Alcotest.(check int) ("varint_size " ^ string_of_int v) (size v) (Packet.varint_size v))
    [ 0; -1; 63; 64; -64; -65; 8191; 8192; 1 lsl 40; max_int; min_int ]

(* -- framing -- *)

(* The rest of an opened frame, copied out for comparison. *)
let payload_of u =
  let len = Packet.remaining u in
  let data, pos = Packet.unpack_take u len in
  Bytes.sub data pos len

let test_frame_roundtrip () =
  let payload = Bytes.of_string "group image bytes" in
  List.iter
    (fun v ->
      match Codec.decode (Codec.frame v payload) with
      | Ok (v', None, u) when v' = v ->
        Alcotest.(check bytes) (Codec.version_name v) payload (payload_of u)
      | _ -> Alcotest.failf "%s frame did not decode" (Codec.version_name v))
    [ Codec.V2; Codec.V3 ]

let test_decode_in_place () =
  (* Opening a frame reads its header and hands back an unpacker over
     the payload where it lies: no copy of a 64 KB image. *)
  let size = 64 * 1024 in
  let frame = Codec.frame Codec.V3 (Bytes.make size 'x') in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let opened = Codec.decode frame in
  let allocated = Gc.allocated_bytes () -. before in
  (match opened with
   | Ok (Codec.V3, None, u) -> Alcotest.(check int) "payload bounds" size (Packet.remaining u)
   | _ -> Alcotest.fail "frame did not decode");
  if allocated >= 1024. then Alcotest.failf "opening the frame allocated %.0f bytes" allocated

let test_transfer_parses_in_place () =
  (* The train message's image comes back as a view and its checksum is
     taken where it lies: no copy of a 64 KB image. *)
  let size = 64 * 1024 in
  let buffer = Codec.frame Codec.V2 (Bytes.make size 'x') in
  let msg =
    Migration.encode
      (Migration.Transfer
         { gid = 3; ranges = [ (0x40000, 65536) ]; image = (buffer, 0, Bytes.length buffer) })
  in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let parsed = Migration.decode msg in
  let allocated = Gc.allocated_bytes () -. before in
  (match parsed with
   | Ok (Migration.Transfer { gid = 3; ranges = [ (0x40000, 65536) ]; image = data, pos, len })
     ->
     Alcotest.(check bool) "a view into the message" true (data == msg);
     Alcotest.(check bytes) "the image" buffer (Bytes.sub data pos len)
   | Ok _ -> Alcotest.fail "wrong header"
   | Error e -> Alcotest.fail e);
  if allocated >= 1024. then Alcotest.failf "parsing the transfer allocated %.0f bytes" allocated

let test_bare_buffer_rejected () =
  (* A buffer without the frame magic is not a codec image: neither a
     stray byte string nor the direct hop's image, which never passes
     through the codec. *)
  let c = cluster () in
  let th = Cluster.host_thread c ~node:0 in
  let direct =
    Migration.pack
      ~obs:(Cluster.obs c) ~node:0
      ~cost:(Cluster.config c).Cluster.cost ~space:(Cluster.node_space c 0)
      ~packing:Migration.Blocks_only th
  in
  List.iter
    (fun (what, buf) ->
      match Codec.decode buf with
      | Error (Codec.Bad_manifest _) -> ()
      | _ -> Alcotest.failf "%s decoded as a frame" what)
    [
      ("bare buffer", Bytes.of_string "MIGRlegacy image without codec framing");
      ("short buffer", Bytes.of_string "PM2");
      ("direct-hop image", direct.Migration.buffer);
    ]

let test_truncated_frame_rejected () =
  let framed = Codec.frame Codec.V2 (Bytes.make 64 'x') in
  let truncated = Bytes.sub framed 0 (Bytes.length framed - 8) in
  match Codec.decode truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated frame accepted"

(* -- manifests and range encoding -- *)

let class_string classes =
  String.concat ""
    (List.map (function Codec.Zero -> "z" | Codec.Data -> "d" | Codec.Cached _ -> "c") classes)

let test_manifest_classifies_runs () =
  let space = As.create ~node:0 () in
  let addr = 0x10000 in
  As.mmap space ~addr ~size:(8 * page);
  (* pages 2 and 3 carry data; 0-1 and 4-7 stay zero *)
  As.store_word space (addr + (2 * page) + 24) 42;
  As.store_word space (addr + (3 * page)) 1;
  Alcotest.(check string) "classes" "zzddzzzz"
    (class_string (Codec.delta_manifest space ~addr ~size:(8 * page) ~known:(fun _ -> None)));
  Alcotest.check_raises "unaligned size rejected"
    (Invalid_argument "Codec.delta_manifest: size not a positive multiple of the page size")
    (fun () -> ignore (Codec.delta_manifest space ~addr ~size:100 ~known:(fun _ -> None)))

let test_range_roundtrip_elides_zeros () =
  let src = As.create ~node:0 () in
  let addr = 0x40000 and size = 16 * page in
  As.mmap src ~addr ~size;
  (* one data page in sixteen *)
  As.store_word src (addr + (5 * page) + 8) 0xbeef;
  let p = Packet.packer () in
  let counts = Codec.encode_range p Codec.V2 src ~addr ~size ~known:(fun _ -> None) in
  Alcotest.(check (triple int int int)) "1 data, 15 elided" (1, 15, 0) counts;
  Alcotest.(check bool) "image well under the raw range" true
    (Packet.packed_size p < 2 * page);
  let dst = As.create ~node:1 () in
  As.mmap dst ~addr ~size;
  let stored, missing =
    Codec.decode_range (Packet.unpacker (Packet.contents p)) Codec.V2 dst ~addr ~size
      ~restore:(fun ~addr:_ ~hash:_ -> false)
  in
  Alcotest.(check int) "stored the data page" 1 stored;
  Alcotest.(check int) "nothing missing" 0 (List.length missing);
  Alcotest.(check int) "word arrived" 0xbeef (As.load_word dst (addr + (5 * page) + 8));
  Alcotest.(check bool) "zero page stayed zero" true (As.page_is_zero dst (addr + page));
  Alcotest.(check bytes) "whole range identical"
    (As.load_bytes src addr size) (As.load_bytes dst addr size)

(* The exact wire bytes of one small range in both tag widths. The range
   holds, in order: 2 zero pages, 1 data page, 33 zero pages (a run word
   two varint bytes long in both widths), 2 data pages the peer retains,
   1 zero page. A data page holds one byte, its index, at offset 0. *)
let golden_range () =
  let space = As.create ~node:0 () in
  let addr = 0x100000 and size = 39 * page in
  As.mmap space ~addr ~size;
  List.iter (fun i -> As.store_u8 space (addr + (i * page)) i) [ 2; 36; 37 ];
  let known a =
    if a = addr + (36 * page) || a = addr + (37 * page) then Some (As.page_hash space a)
    else None
  in
  (space, addr, size, known)

let hex b =
  String.concat "" (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

(* [buf] is the manifest [expected] (hex) followed by one data page per
   element of [pages], each holding that byte at offset 0 and zeros. *)
let check_golden what ~expected ~pages buf =
  let header = Bytes.length buf - (List.length pages * page) in
  Alcotest.(check string) (what ^ ": manifest") expected (hex (Bytes.sub buf 0 header));
  List.iteri
    (fun k first ->
      let body = Bytes.sub buf (header + (k * page)) page in
      let want = Bytes.make page '\000' in
      Bytes.set_uint8 want 0 first;
      Alcotest.(check bool) (Printf.sprintf "%s: data page %d" what k) true (Bytes.equal want body))
    pages

let test_range_golden_bytes () =
  let space, addr, size, known = golden_range () in
  let encode version =
    let p = Packet.packer () in
    let counts = Codec.encode_range p version space ~addr ~size ~known in
    (counts, Packet.contents p)
  in
  (* v2: the known pages ship as data; 5 runs z2 d1 z33 d2 z1, each
     word pages<<1|tag as zigzag LEB128 *)
  let counts, v2 = encode Codec.V2 in
  Alcotest.(check (triple int int int)) "v2 counts" (3, 36, 0) counts;
  check_golden "v2" ~expected:"0a080684010a04" ~pages:[ 2; 36; 37 ] v2;
  (* v3: 5 runs z2 d1 z33 c2 z1, words pages<<2|tag, the cached run
     followed by its two 8-byte page hashes *)
  let counts, v3 = encode Codec.V3 in
  Alcotest.(check (triple int int int)) "v3 counts" (1, 36, 2) counts;
  check_golden "v3"
    ~expected:("0a100a880214" ^ "e6f287f34da5823d" ^ "6b4960cf86fff916" ^ "08")
    ~pages:[ 2 ] v3;
  (* both decode back to the same memory *)
  List.iter
    (fun (version, buf) ->
      let dst = As.create ~node:1 () in
      As.mmap dst ~addr ~size;
      let restore ~addr:a ~hash =
        hash = As.page_hash space a
        && (As.store_bytes dst a (As.load_bytes space a page);
            true)
      in
      let _, missing = Codec.decode_range (Packet.unpacker buf) version dst ~addr ~size ~restore in
      Alcotest.(check int) "nothing missing" 0 (List.length missing);
      Alcotest.(check bytes)
        (Codec.version_name version ^ " range identical")
        (As.load_bytes space addr size) (As.load_bytes dst addr size))
    [ (Codec.V2, v2); (Codec.V3, v3) ]

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

(* -- wire parser fuzzing -- *)

(* The five kinds of message of a real two-node group migration of two
   small threads (a 24 KB train image): the probe (as sent, and with a
   trace context), both verdicts, the transfer carrying the actual train
   image, and an RDLT/RFUL pair over the image's pages. The transfer is
   built from a non-destructive pack just after [migrate_group] starts,
   and the migration must then complete with a train of exactly that
   size. *)
let group_messages () =
  let c = cluster () in
  let env = Cluster.host_env c 0 in
  let space = Cluster.node_space c 0 in
  let members =
    List.init 2 (fun i ->
        let th = Cluster.host_thread c ~node:0 in
        let a = Option.get (Iso_heap.isomalloc env th 200) in
        As.store_word space a (0x600d + i);
        th)
  in
  let gid = match Cluster.migrate_group c members ~dest:1 with Ok g -> g | Error e -> Alcotest.fail e in
  let ranges = Migration.group_ranges space members in
  let packed =
    Migration.pack_group ~unmap:false ~cost:Pm2_sim.Cost_model.default ~space ~gid members
  in
  let buffer = packed.Migration.g_buffer in
  let tid = (List.hd members).Thread.id and page_addr = fst (List.hd ranges) in
  let messages =
    Migration.
      [
        ("probe", Probe { gid; ranges; trace = None });
        ("traced probe", Probe { gid; ranges; trace = Some (7, 9) });
        ("accept", Verdict { gid; ok = true; reason = "" });
        ("reject", Verdict { gid; ok = false; reason = "destination cannot map the group's slots" });
        ("transfer", Transfer { gid; ranges; image = (buffer, 0, Bytes.length buffer) });
        ( "delta request",
          Delta_request { gid; pages = [ (tid, page_addr, As.page_hash space page_addr) ] } );
        ( "delta full",
          Delta_full { gid; pages = [ (tid, page_addr, As.load_bytes space page_addr page) ] } );
      ]
  in
  ignore (Cluster.run c);
  (match Cluster.group_migrations c with
   | [ g ] -> Alcotest.(check int) "train carried the fuzzed image" (Bytes.length buffer) g.Cluster.g_bytes
   | l -> Alcotest.failf "%d group records" (List.length l));
  messages

let kind = function
  | Migration.Probe _ -> "probe"
  | Verdict _ -> "verdict"
  | Transfer _ -> "transfer"
  | Delta_request _ -> "delta request"
  | Delta_full _ -> "delta full"

(* A transfer's image is a view; compare views by the bytes they show. *)
let detach = function
  | Migration.Transfer ({ image = data, pos, len; _ } as t) ->
    Migration.Transfer { t with image = (Bytes.sub data pos len, 0, len) }
  | m -> m

let test_wire_bytes_pinned () =
  (* MD5 of each message's encoding: the layouts are on the wire and
     must not move. *)
  let pinned =
    [
      ("probe", "b56a2c8d92b52c4e663b5985abf7987c");
      ("traced probe", "955a50363ac25261fd946c056a00b927");
      ("accept", "9ed1ebaa80f7e80a969ea24a11909fff");
      ("reject", "2710557bdd4cb90bcc2e6d5b4475ebc2");
      ("transfer", "91f5c2a0c92a79ee8415e3bd31c251d8");
      ("delta request", "caa230641f0bb1d28183697b08a37474");
      ("delta full", "dada5c3fb86700b26470eb4d3f7b4ae5");
    ]
  in
  List.iter
    (fun (name, m) ->
      let b = Migration.encode m in
      Alcotest.(check string) (name ^ " bytes") (List.assoc name pinned)
        (Digest.to_hex (Digest.bytes b));
      Alcotest.(check bool) (name ^ " decodes to itself") true
        (Result.map detach (Migration.decode b) = Ok (detach m)))
    (group_messages ())

let test_wire_parsers_total () =
  List.iter
    (fun (name, m) ->
       let msg = Migration.encode m in
       let n = Bytes.length msg in
       Alcotest.(check bool) (name ^ " decodes") true (Result.is_ok (Migration.decode msg));
       (* a traced probe cut before its two trailing words is the
          untraced probe, which is well formed *)
       let untraced_prefix len = name = "traced probe" && len = n - 16 in
       for len = 0 to n - 1 do
         match (Migration.decode (Bytes.sub msg 0 len), m) with
         | Ok got, Migration.Probe p when untraced_prefix len ->
           if got <> Migration.Probe { p with trace = None } then
             Alcotest.failf "%s truncated to %d bytes: not the untraced probe" name len
         | Ok _, _ -> Alcotest.failf "%s truncated to %d bytes decodes" name len
         | Error _, _ ->
           if untraced_prefix len then Alcotest.failf "%s truncated to %d bytes is refused" name len
       done;
       for i = 0 to n - 1 do
         let b = Bytes.copy msg in
         Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
         match Migration.decode b with
         | Ok got when kind got <> kind m ->
           Alcotest.failf "%s with byte %d flipped decodes as a %s" name i (kind got)
         | Ok _ | Error _ -> ()
         | exception e -> Alcotest.failf "%s with byte %d flipped: %s" name i (Printexc.to_string e)
       done)
    (group_messages ())

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
  Alcotest.(check string) "policy name" "group-threshold:2:8:4"
    (Balancer.Policy.to_string (Balancer.Group_threshold { high = 2; low = 8; limit = 4 }))

let test_group_image_framed_in_place () =
  (* [pack_group] sizes its image before writing it, so header and
     payload go into one buffer that becomes the frame as is: packing a
     160 KB image allocates less than its size plus eight pages. The
     frame is byte-for-byte what [Codec.frame] makes of its payload,
     traced or not. *)
  let c = cluster () in
  let th = Cluster.host_thread c ~node:0 in
  let space = Cluster.node_space c 0 in
  let size = 40 * page in
  let a = Option.get (Iso_heap.isomalloc (Cluster.host_env c 0) th size) in
  As.fill space ~addr:a ~size 0x5a;
  List.iter
    (fun (version, trace) ->
      let pack () =
        Migration.pack_group ~version ?trace ~unmap:false ~cost:Pm2_sim.Cost_model.default
          ~space ~gid:9 [ th ]
      in
      ignore (pack ());
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      let buffer = (pack ()).Migration.g_buffer in
      let allocated = Gc.allocated_bytes () -. before in
      let image = Bytes.length buffer in
      let what = Codec.version_name version ^ if trace = None then "" else " traced" in
      if allocated >= float_of_int (image + (8 * page)) then
        Alcotest.failf "%s: packing a %d-byte image allocated %.0f bytes" what image allocated;
      match Codec.decode buffer with
      | Ok (v, tr, u) when v = version && tr = trace ->
        Alcotest.(check bytes) what (Codec.frame ?trace version (payload_of u)) buffer
      | _ -> Alcotest.failf "%s: the image is not a frame" what)
    [ (Codec.V2, None); (Codec.V3, None); (Codec.V2, Some (5, 6)) ]

let tests =
  [
    Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
    Alcotest.test_case "varint compactness" `Quick test_varint_compact;
    Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame opens in place" `Quick test_decode_in_place;
    Alcotest.test_case "transfer parses in place" `Quick test_transfer_parses_in_place;
    Alcotest.test_case "bare buffer is rejected" `Quick test_bare_buffer_rejected;
    Alcotest.test_case "truncated frame rejected" `Quick test_truncated_frame_rejected;
    Alcotest.test_case "manifest classifies runs" `Quick test_manifest_classifies_runs;
    Alcotest.test_case "range roundtrip elides zeros" `Quick test_range_roundtrip_elides_zeros;
    Alcotest.test_case "range golden wire bytes" `Quick test_range_golden_bytes;
    Alcotest.test_case "group migration moves everyone" `Quick test_group_migration;
    Alcotest.test_case "group beats sequential on the wire" `Quick
      test_group_beats_sequential_wire;
    Alcotest.test_case "dropped train rolls back atomically" `Quick
      test_group_rollback_on_dropped_train;
    Alcotest.test_case "group validation" `Quick test_group_validation;
    Alcotest.test_case "wire parsers are total" `Quick test_wire_parsers_total;
    Alcotest.test_case "control message bytes pinned" `Quick test_wire_bytes_pinned;
    Alcotest.test_case "group-threshold balancer policy" `Quick test_group_threshold_policy;
    Alcotest.test_case "group image framed in place" `Quick test_group_image_framed_in_place;
  ]

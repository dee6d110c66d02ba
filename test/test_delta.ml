(* Delta migration: page content hashing, the v3 wire codec
   (Zero/Data/Cached manifests), the residual image cache, the RDLT/RFUL
   full-resend fallback, and the cache-affinity balancer policy. *)

module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout
module Packet = Pm2_net.Packet
module Codec = Pm2_net.Codec
module Network = Pm2_net.Network
module Balancer = Pm2_loadbal.Balancer
module Obs = Pm2_obs
open Pm2_core

let page = Layout.page_size
let empty_program = Pm2.build (fun _ -> ())
let budget = 8 * 1024 * 1024

let cluster ?sinks ?(delta = budget) ?(nodes = 2) () =
  Cluster.create (Pm2.Config.make ~nodes ?sinks ~delta_cache_bytes:delta ()) empty_program

(* -- page hashing -- *)

let test_page_hash () =
  let space = As.create ~node:0 () in
  let addr = 0x10000 in
  As.mmap space ~addr ~size:(4 * page);
  As.store_word space (addr + 16) 0xdead;
  let h0 = As.page_hash space addr in
  Alcotest.(check bool) "hash is non-negative" true (h0 >= 0);
  Alcotest.(check int) "memoized hash is stable" h0 (As.page_hash space addr);
  Alcotest.(check int) "agrees with the bytes-level hash" h0
    (As.page_bytes_hash (As.load_bytes space addr page));
  (* mutation after memoization must invalidate *)
  As.store_word space (addr + 16) 0xbeef;
  let h1 = As.page_hash space addr in
  Alcotest.(check bool) "store changes the hash" true (h0 <> h1);
  (* different pages with different content hash differently; an all-zero
     page hashes like an all-zero buffer *)
  Alcotest.(check int) "zero page = zero buffer" (As.page_bytes_hash (Bytes.make page '\000'))
    (As.page_hash space (addr + page));
  Alcotest.check_raises "non-page buffer rejected"
    (Invalid_argument "Address_space.page_bytes_hash: not a page-sized buffer")
    (fun () -> ignore (As.page_bytes_hash (Bytes.make 100 'x')))

(* -- the v3 residual image -- *)

(* A v3 pack that unmaps its source keeps the page buffers it takes out,
   not copies: each retained page holds the pre-pack bytes, rollback
   restores them, and no retained buffer is a page still mapped in any
   space. *)
let test_retained_pages_are_taken () =
  let c = cluster () in
  let env = Cluster.host_env c 0 and space = Cluster.node_space c 0 in
  let th = Cluster.host_thread c ~node:0 and other = Cluster.host_thread c ~node:0 in
  let big = Option.get (Iso_heap.isomalloc env th (6 * page)) in
  As.store_word space (big + (3 * page)) 0xfeed;
  let small = Option.get (Iso_heap.isomalloc env th 200) in
  As.store_word space small 0xbeef;
  As.store_word space (Option.get (Iso_heap.isomalloc env other 200)) 0xcafe;
  let ranges = Migration.slot_ranges space th in
  let pages_of (addr, size) = List.init (size / page) (fun i -> addr + (i * page)) in
  let nonzero =
    List.filter_map
      (fun a -> if As.page_is_zero space a then None else Some (a, As.load_bytes space a page))
      (List.concat_map pages_of ranges)
  in
  let buffers = List.map (fun (a, _) -> As.page_for_read space a) nonzero in
  let p =
    Migration.pack_group ~version:Codec.V3 ~cost:Pm2_sim.Cost_model.default ~space ~gid:1
      [ th ]
  in
  let retained = List.assoc th.Thread.id p.Migration.g_retained in
  Alcotest.(check (list int)) "every non-zero page retained" (List.map fst nonzero)
    (List.map fst retained);
  List.iter2
    (fun (a, before) (_, kept) ->
      Alcotest.(check bytes) (Printf.sprintf "page 0x%x as before the pack" a) before kept)
    nonzero retained;
  Alcotest.(check bool) "the mapped buffers themselves, not copies" true
    (List.for_all2 (fun b (_, kept) -> b == kept) buffers retained);
  Alcotest.(check bool) "source unmapped" true
    (List.for_all (fun (addr, size) -> As.range_unmapped space ~addr ~size) ranges);
  (* Every page mapped anywhere: the other thread's and, after the
     rollback, this one's. *)
  let shares_mapped () =
    List.exists
      (fun n ->
        let sp = Cluster.node_space c n in
        let mapped =
          List.concat_map pages_of
            (Migration.slot_ranges space other @ ranges)
          |> List.filter (As.is_mapped sp)
        in
        List.exists
          (fun a -> List.exists (fun (_, kept) -> As.page_for_read sp a == kept) retained)
          mapped)
      [ 0; 1 ]
  in
  Alcotest.(check bool) "no retained buffer is mapped" false (shares_mapped ());
  (* Roll back from the image, restoring cached pages from the kept ones. *)
  let u =
    Migration.unpack_group ~cost:Pm2_sim.Cost_model.default ~space
      ~restore:(fun ~tid:_ ~addr ~hash ->
        match List.assoc_opt addr retained with
        | Some kept when As.page_bytes_hash kept = hash ->
          As.store_bytes space addr kept;
          true
        | _ -> false)
      ~lookup:(fun _ -> th) p.Migration.g_buffer
  in
  Alcotest.(check int) "nothing missing" 0 (List.length u.Migration.u_missing);
  List.iter
    (fun (a, before) ->
      Alcotest.(check bytes) (Printf.sprintf "page 0x%x restored" a) before
        (As.load_bytes space a page))
    nonzero;
  Alcotest.(check bool) "no retained buffer is mapped after the rollback" false
    (shares_mapped ())

(* -- the v3 manifest -- *)

let test_delta_manifest_classifies () =
  let space = As.create ~node:0 () in
  let addr = 0x20000 in
  As.mmap space ~addr ~size:(6 * page);
  (* page 1: data known to the peer; page 2: data unknown; 0,3-5 zero *)
  As.store_word space (addr + page) 7;
  As.store_word space (addr + (2 * page)) 9;
  let known a = if a = addr + page then Some (As.page_hash space (addr + page)) else None in
  (match Codec.delta_manifest space ~addr ~size:(6 * page) ~known with
   | [ Codec.Zero; Codec.Cached _; Codec.Data; Codec.Zero; Codec.Zero; Codec.Zero ] -> ()
   | classes ->
     Alcotest.failf "unexpected classes: %s"
       (String.concat ""
          (List.map
             (function Codec.Zero -> "z" | Codec.Data -> "d" | Codec.Cached _ -> "c")
             classes)));
  (* a stale known hash must classify as Data, not Cached *)
  let stale a = if a = addr + page then Some 12345 else None in
  match Codec.delta_manifest space ~addr ~size:(6 * page) ~known:stale with
  | [ Codec.Zero; Codec.Data; Codec.Data; Codec.Zero; Codec.Zero; Codec.Zero ] -> ()
  | _ -> Alcotest.fail "stale hash classified as Cached"

let roundtrip_delta src ~addr ~size ~known ~restore =
  let p = Packet.packer () in
  let counts = Codec.encode_range p Codec.V3 src ~addr ~size ~known in
  let dst = As.create ~node:1 () in
  As.mmap dst ~addr ~size;
  let stored, missing =
    Codec.decode_range (Packet.unpacker (Packet.contents p)) Codec.V3 dst ~addr ~size
      ~restore:(restore dst)
  in
  (counts, stored, missing, dst, Packet.packed_size p)

let test_all_cached_roundtrip () =
  let src = As.create ~node:0 () in
  let addr = 0x40000 and size = 8 * page in
  As.mmap src ~addr ~size;
  for i = 0 to 7 do
    As.store_word src (addr + (i * page) + 8) (100 + i)
  done;
  let known a = Some (As.page_hash src a) in
  (* destination holds identical content: every Cached restore succeeds *)
  let restore dst ~addr ~hash:_ =
    As.store_bytes dst addr (As.load_bytes src addr page);
    true
  in
  let (d, z, c), stored, missing, dst, wire =
    roundtrip_delta src ~addr ~size ~known ~restore
  in
  Alcotest.(check (triple int int int)) "all eight pages Cached" (0, 0, 8) (d, z, c);
  Alcotest.(check int) "no data page stored" 0 stored;
  Alcotest.(check (list (triple int int int))) "nothing missing" []
    (List.map (fun (a, h) -> (0, a, h)) missing |> List.map (fun (_, a, h) -> (0, a, h)));
  Alcotest.(check bytes) "range identical" (As.load_bytes src addr size)
    (As.load_bytes dst addr size);
  (* eight hashes, not eight pages, travelled *)
  Alcotest.(check bool) "wire is hashes, not pages" true (wire < page)

let test_empty_delta_roundtrip () =
  let src = As.create ~node:0 () in
  let addr = 0x50000 and size = 4 * page in
  As.mmap src ~addr ~size;
  let (d, z, c), stored, missing, dst, wire =
    roundtrip_delta src ~addr ~size
      ~known:(fun _ -> None)
      ~restore:(fun _ ~addr:_ ~hash:_ -> false)
  in
  Alcotest.(check (triple int int int)) "all zero" (0, 4, 0) (d, z, c);
  Alcotest.(check int) "nothing stored" 0 stored;
  Alcotest.(check bool) "nothing missing" true (missing = []);
  Alcotest.(check bool) "wire is a couple of varints" true (wire < 8);
  Alcotest.(check bool) "destination all zero" true (As.page_is_zero dst addr)

let test_varint_boundary_runs () =
  (* Run headers are zigzag varints of (pages lsl 2) lor class: 15 pages
     fits one byte, 16 pages crosses the continuation boundary. Exercise
     both sides for every class. *)
  List.iter
    (fun npages ->
      let src = As.create ~node:0 () in
      let addr = 0x100000 and size = (2 * npages + 4) * page in
      As.mmap src ~addr ~size;
      (* [npages] data, then npages cached, then 4 zero *)
      for i = 0 to npages - 1 do
        As.store_word src (addr + (i * page)) (1 + i);
        As.store_word src (addr + ((npages + i) * page)) (1000 + i)
      done;
      let known a =
        if a >= addr + (npages * page) && a < addr + (2 * npages * page) then
          Some (As.page_hash src a)
        else None
      in
      let retained = Hashtbl.create 64 in
      for i = 0 to npages - 1 do
        let a = addr + ((npages + i) * page) in
        Hashtbl.replace retained a (As.load_bytes src a page)
      done;
      let restore dst ~addr ~hash =
        match Hashtbl.find_opt retained addr with
        | Some p when As.page_bytes_hash p = hash ->
          As.store_bytes dst addr p;
          true
        | _ -> false
      in
      let (d, z, c), stored, missing, dst, _ =
        roundtrip_delta src ~addr ~size ~known ~restore
      in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "%d-page runs classified" npages)
        (npages, 4, npages) (d, z, c);
      Alcotest.(check int) "data pages stored" npages stored;
      Alcotest.(check bool) "nothing missing" true (missing = []);
      Alcotest.(check bytes)
        (Printf.sprintf "%d-page range identical" npages)
        (As.load_bytes src addr size) (As.load_bytes dst addr size))
    [ 1; 15; 16; 31; 32; 63; 64 ]

(* -- version matrix and corruption -- *)

let test_version_matrix () =
  let payload = Bytes.of_string "image" in
  List.iter
    (fun v ->
      match Codec.decode (Codec.frame v payload) with
      | Ok (v', None, u) when v' = v ->
        let data, pos = Packet.unpack_take u (Packet.remaining u) in
        Alcotest.(check bytes) (Codec.version_name v ^ " payload") payload
          (Bytes.sub data pos (Bytes.length data - pos))
      | _ -> Alcotest.failf "%s frame did not decode" (Codec.version_name v))
    [ Codec.V3; Codec.V2 ];
  (* nothing frames or accepts v1: its version word is an unknown
     version, and a bare buffer without the frame magic is no frame *)
  let v1 = Codec.frame Codec.V2 payload in
  Bytes.set v1 8 '\x01';
  (match Codec.decode v1 with
   | Error (Codec.Bad_version 1) -> ()
   | _ -> Alcotest.fail "v1 frame not reported as Bad_version 1");
  (match Codec.decode (Bytes.of_string "MIGRlegacy") with
   | Error (Codec.Bad_manifest _) -> ()
   | _ -> Alcotest.fail "bare buffer decoded");
  Alcotest.(check string) "names" "v2/v3"
    (String.concat "/" (List.map Codec.version_name [ Codec.V2; Codec.V3 ]))

let test_corruption_is_typed () =
  (* Flipping any byte of a framed image, or truncating it, must surface
     as a typed [Error], never as an escaping exception. *)
  let src = As.create ~node:0 () in
  let addr = 0x60000 and size = 4 * page in
  As.mmap src ~addr ~size;
  As.store_word src addr 77;
  let p = Packet.packer () in
  ignore (Codec.encode_range p Codec.V3 src ~addr ~size ~known:(fun _ -> None));
  let framed = Codec.frame Codec.V3 (Packet.contents p) in
  let attempt buf =
    match Codec.decode buf with
    | Error _ -> () (* typed rejection at the frame layer *)
    | Ok (Codec.V3, _, inner) -> (
      let dst = As.create ~node:1 () in
      As.mmap dst ~addr ~size;
      match
        Codec.try_decode_range inner Codec.V3 dst ~addr ~size
          ~restore:(fun ~addr:_ ~hash:_ -> false)
      with
      | Ok _ | Error (Codec.Bad_manifest _) -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (Codec.error_to_string e))
    | Ok _ -> ()
  in
  let n = Bytes.length framed in
  for i = 0 to n - 1 do
    let b = Bytes.copy framed in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    attempt b
  done;
  for len = 0 to n - 1 do
    attempt (Bytes.sub framed 0 len)
  done;
  (* an unknown version is its own typed error: the version word sits
     just after the 8-byte magic *)
  let bogus = Bytes.copy framed in
  Bytes.set bogus 8 '\x09';
  match Codec.decode bogus with
  | Error (Codec.Bad_version 9) -> ()
  | _ -> Alcotest.fail "unknown version not reported as Bad_version"

(* -- the residual cache -- *)

let mk_page c = Bytes.make page c

let test_cache_lru_and_pinning () =
  let evicted = ref [] in
  let dc =
    Delta_cache.create ~budget:(2 * page)
      ~on_evict:(fun ~tid ~bytes -> evicted := (tid, bytes) :: !evicted)
      ()
  in
  Delta_cache.retain dc ~tid:1 [ (0x1000, mk_page 'a') ];
  Delta_cache.retain dc ~tid:2 [ (0x2000, mk_page 'b') ];
  Delta_cache.retain dc ~tid:3 [ (0x3000, mk_page 'c') ];
  (* all three are pinned: nothing evictable, budget exceeded is allowed *)
  Alcotest.(check int) "pinned images retained" 3 (Delta_cache.images dc);
  Delta_cache.check dc;
  Delta_cache.unpin dc ~tid:1;
  Delta_cache.unpin dc ~tid:2;
  Alcotest.(check int) "still within budget" 3 (Delta_cache.images dc);
  (* touching tid 1 makes tid 2 the LRU victim when tid 3 unpins *)
  ignore (Delta_cache.lookup_page dc ~tid:1 ~addr:0x1000);
  Delta_cache.unpin dc ~tid:3;
  Alcotest.(check (list (pair int int))) "tid 2 evicted" [ (2, page) ] !evicted;
  Alcotest.(check bool) "tid 1 survived" true
    (Delta_cache.lookup_page dc ~tid:1 ~addr:0x1000 <> None);
  Alcotest.(check bool) "tid 3 survived" true
    (Delta_cache.lookup_page dc ~tid:3 ~addr:0x3000 <> None);
  Delta_cache.check dc;
  (* knowledge bookkeeping *)
  Delta_cache.record_knowledge dc ~tid:1 ~peer:4 [ (0x1000, 99) ];
  Alcotest.(check bool) "knowledge recorded" true (Delta_cache.has_knowledge dc ~tid:1 ~peer:4);
  Alcotest.(check (option int)) "hash looked up" (Some 99)
    (Delta_cache.known dc ~tid:1 ~peer:4 0x1000);
  Delta_cache.drop_thread dc ~tid:1;
  Alcotest.(check bool) "drop_thread clears knowledge" false
    (Delta_cache.has_knowledge dc ~tid:1 ~peer:4);
  Alcotest.(check bool) "drop_thread clears the image" true
    (Delta_cache.lookup_page dc ~tid:1 ~addr:0x1000 = None);
  (* a zero budget disables everything *)
  let off = Delta_cache.create ~budget:0 () in
  Delta_cache.retain off ~tid:1 [ (0x1000, mk_page 'z') ];
  Delta_cache.record_knowledge off ~tid:1 ~peer:2 [ (0x1000, 1) ];
  Alcotest.(check bool) "disabled cache stores nothing" true
    ((not (Delta_cache.enabled off))
    && Delta_cache.images off = 0
    && not (Delta_cache.has_knowledge off ~tid:1 ~peer:2))

(* -- RDLT / RFUL messages -- *)

let test_fallback_messages () =
  let roundtrips name m =
    Alcotest.(check bool) name true (Migration.decode (Migration.encode m) = Ok m)
  in
  roundtrips "request roundtrip"
    (Migration.Delta_request { gid = 3; pages = [ (7, 0x1000, 123); (9, 0x2000, 456) ] });
  roundtrips "full roundtrip"
    (Migration.Delta_full
       { gid = 3; pages = [ (7, 0x1000, mk_page 'p'); (9, 0x2000, mk_page 'q') ] });
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Migration.decode (Bytes.of_string "junk")));
  (* a short page inside an otherwise valid RFUL is rejected *)
  let p = Packet.packer () in
  Packet.pack_int p 0x5246554c;
  Packet.pack_int p 3;
  Packet.pack_list p
    (fun (tid, addr, page) ->
      Packet.pack_int p tid;
      Packet.pack_int p addr;
      Packet.pack_bytes p page)
    [ (7, 0x1000, Bytes.make 100 'x') ];
  match Migration.decode (Packet.contents p) with
  | Error reason -> Alcotest.(check string) "reason" "malformed delta full message" reason
  | Ok _ -> Alcotest.fail "short page accepted"

(* -- end-to-end: the ping-pong -- *)

let payload = 16 * page

let furnish c =
  let env = Cluster.host_env c 0 in
  let space = Cluster.node_space c 0 in
  let th = Cluster.host_thread c ~node:0 in
  let addr = Option.get (Iso_heap.isomalloc env th payload) in
  (* every page carries data, so nothing hides behind zero elision *)
  for p = 0 to (payload / page) - 1 do
    As.store_word space (addr + (p * page)) (5000 + p);
    As.store_word space (addr + (p * page) + 64) (6000 + p)
  done;
  (th, addr)

let hop c th ~dest =
  let before = Network.bytes_sent (Cluster.network c) in
  (match Cluster.migrate_group c [ th ] ~dest with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  ignore (Cluster.run c);
  Network.bytes_sent (Cluster.network c) - before

let check_payload c (th : Thread.t) addr =
  let space = Cluster.node_space c th.Thread.node in
  for p = 0 to (payload / page) - 1 do
    Alcotest.(check int)
      (Printf.sprintf "page %d word" p)
      (5000 + p)
      (As.load_word space (addr + (p * page)))
  done

let test_delta_pingpong () =
  let m = Obs.Metrics.create () in
  let c = cluster ~sinks:[ Obs.Metrics.sink m ] () in
  let th, addr = furnish c in
  let first = hop c th ~dest:1 in
  Alcotest.(check int) "on node 1" 1 th.Thread.node;
  (* dirty one payload page on node 1, then come home *)
  As.store_word (Cluster.node_space c 1) (addr + (3 * page) + 128) 0xabcd;
  let second = hop c th ~dest:0 in
  Alcotest.(check int) "back on node 0" 0 th.Thread.node;
  check_payload c th addr;
  Alcotest.(check int) "dirtied word survived" 0xabcd
    (As.load_word (Cluster.node_space c 0) (addr + (3 * page) + 128));
  (* the return hop shipped hashes for all but the dirty page *)
  Alcotest.(check bool)
    (Printf.sprintf "second hop %dB well under first %dB" second first)
    true
    (float_of_int second < 0.4 *. float_of_int first);
  (match Cluster.group_migrations c with
   | [ out; back ] ->
     Alcotest.(check int) "outbound has no cache to hit" 0 out.Cluster.g_cached_pages;
     Alcotest.(check bool) "return hop mostly cached" true
       (back.Cluster.g_cached_pages > 12);
     Alcotest.(check bool) "return hop ships the dirty page" true
       (back.Cluster.g_data_pages >= 1 && back.Cluster.g_data_pages <= 3)
   | l -> Alcotest.failf "%d group records" (List.length l));
  Alcotest.(check bool) "delta hits counted" true
    (Obs.Metrics.total_counter m "delta.hit_pages" > 12);
  Alcotest.(check int) "no fallback needed" 0 (Cluster.delta_fallbacks c);
  Cluster.check_invariants c

let test_fallback_under_corruption () =
  (* Corrupt the destination's residual copy of one page between hops:
     the Cached restore must fail its hash check and the page must be
     re-fetched from the source — never silently reconstructed wrong. *)
  let c = cluster () in
  let th, addr = furnish c in
  ignore (hop c th ~dest:1);
  Alcotest.(check bool) "node 0 kept a residual image" true
    (Delta_cache.images (Cluster.delta_cache c 0) > 0);
  (* residual pages are keyed by page-aligned addresses; the isomalloc
     block itself starts mid-page, so align down *)
  let victim = (addr + (5 * page)) / page * page in
  Alcotest.(check bool) "corrupted one retained page" true
    (Delta_cache.corrupt_page (Cluster.delta_cache c 0) ~tid:th.Thread.id ~addr:victim);
  ignore (hop c th ~dest:0);
  Alcotest.(check int) "back home" 0 th.Thread.node;
  check_payload c th addr;
  Alcotest.(check bool) "fallback exercised" true (Cluster.delta_fallbacks c >= 1);
  Alcotest.(check int) "group still committed, not aborted" 0 (Cluster.aborted_groups c);
  Cluster.check_invariants c

let test_eviction_falls_back () =
  (* A budget too small for the image: the unpinned residual is evicted
     right after the first hop... so the return hop finds no knowledge
     and simply ships data — stale knowledge is the interesting case and
     is covered above; here we check eviction keeps the books right. *)
  let c = cluster ~delta:page () in
  let th, addr = furnish c in
  ignore (hop c th ~dest:1);
  Alcotest.(check int) "image evicted under a one-page budget" 0
    (Delta_cache.images (Cluster.delta_cache c 0));
  ignore (hop c th ~dest:0);
  check_payload c th addr;
  Alcotest.(check int) "no aborts" 0 (Cluster.aborted_groups c);
  Cluster.check_invariants c

let test_disabled_matches_v2 () =
  (* delta_cache_bytes = 0 must reproduce the plain v2 pipeline: same
     wire bytes, no cache state, no cached pages in the records. *)
  let run delta =
    let c = cluster ~delta () in
    let th, addr = furnish c in
    let w1 = hop c th ~dest:1 in
    let w2 = hop c th ~dest:0 in
    check_payload c th addr;
    (c, w1, w2)
  in
  let c0, a1, a2 = run 0 in
  Alcotest.(check bool) "delta reported off" false (Cluster.delta_enabled c0);
  Alcotest.(check int) "no images" 0 (Delta_cache.images (Cluster.delta_cache c0 0));
  List.iter
    (fun g -> Alcotest.(check int) "v2 records no cached pages" 0 g.Cluster.g_cached_pages)
    (Cluster.group_migrations c0);
  (* both hops cost the same: no history is exploited *)
  Alcotest.(check int) "hops symmetric without delta" a1 a2

let test_guest_output_unchanged_with_delta () =
  (* Transparency: the guest-visible trace of a migrating program must be
     identical whether delta migration is on or off. *)
  let lines delta =
    let config = Pm2.Config.make ~nodes:2 ~delta_cache_bytes:delta () in
    Pm2.run_to_completion ~config (Pm2_programs.Figures.image ()) ~entry:"fig7" ~arg:105 ()
  in
  let off = lines 0 and on_ = lines budget in
  Alcotest.(check bool) "guest printed something" true (List.length off > 0);
  Alcotest.(check (list string)) "guest-visible trace identical" off on_;
  (* repeated guest-driven migrations ride the delta pipeline end to end *)
  let config = Pm2.Config.make ~nodes:2 ~delta_cache_bytes:budget () in
  let c = Pm2.launch ~config (Pm2_programs.Figures.image ()) ~spawns:[ (0, "pingpong", 6) ] in
  ignore (Cluster.run c);
  Alcotest.(check int) "pingpong completed" 0 (Cluster.live_threads c);
  Alcotest.(check bool) "later hops hit the cache" true
    (List.exists (fun g -> g.Cluster.g_cached_pages > 0) (Cluster.group_migrations c));
  Cluster.check_invariants c

let test_cache_affinity_policy () =
  Alcotest.(check string) "policy name" "cache-affinity"
    (Balancer.Policy.to_string Balancer.Cache_affinity);
  (* After one round trip 0 -> 1 -> 0, node 0 knows what node 1 retains
     for the thread: the affinity hint must point at node 1. *)
  let c = cluster ~nodes:3 () in
  let th, _ = furnish c in
  ignore (hop c th ~dest:1);
  ignore (hop c th ~dest:0);
  Alcotest.(check bool) "affinity towards the previous host" true
    (Cluster.delta_affinity c th ~dest:1);
  Alcotest.(check bool) "no affinity towards a stranger" false
    (Cluster.delta_affinity c th ~dest:2)

let test_cache_affinity_balances () =
  (* The policy must still balance load end to end (it is least-loaded
     plus a tie-break). *)
  let program = Pm2_programs.Figures.image () in
  let config = Pm2.Config.make ~nodes:3 ~delta_cache_bytes:budget () in
  let cluster = Pm2.launch ~config program ~spawns:[ (0, "spawner", 9) ] in
  let b = Balancer.attach cluster ~policy:Balancer.Cache_affinity ~period:400. in
  ignore (Cluster.run cluster);
  Cluster.check_invariants cluster;
  Alcotest.(check int) "all work done" 0 (Cluster.live_threads cluster);
  Alcotest.(check bool) "migrations requested" true
    ((Balancer.stats b).Balancer.migrations_requested > 0)

let tests =
  [
    Alcotest.test_case "page hashing: memo + invalidation" `Quick test_page_hash;
    Alcotest.test_case "v3 manifest classification" `Quick test_delta_manifest_classifies;
    Alcotest.test_case "all-Cached slot roundtrip" `Quick test_all_cached_roundtrip;
    Alcotest.test_case "empty delta roundtrip" `Quick test_empty_delta_roundtrip;
    Alcotest.test_case "runs across varint boundaries" `Quick test_varint_boundary_runs;
    Alcotest.test_case "v1/v2/v3 decode matrix" `Quick test_version_matrix;
    Alcotest.test_case "corruption surfaces as typed errors" `Quick test_corruption_is_typed;
    Alcotest.test_case "residual cache: LRU, pinning, budget 0" `Quick
      test_cache_lru_and_pinning;
    Alcotest.test_case "RDLT/RFUL message roundtrip" `Quick test_fallback_messages;
    Alcotest.test_case "ping-pong ships a delta" `Quick test_delta_pingpong;
    Alcotest.test_case "corrupted residual falls back correctly" `Quick
      test_fallback_under_corruption;
    Alcotest.test_case "eviction degrades to full send" `Quick test_eviction_falls_back;
    Alcotest.test_case "budget 0 reproduces v2 exactly" `Quick test_disabled_matches_v2;
    Alcotest.test_case "guest output unchanged with delta" `Quick
      test_guest_output_unchanged_with_delta;
    Alcotest.test_case "cache-affinity hint" `Quick test_cache_affinity_policy;
    Alcotest.test_case "cache-affinity policy balances" `Quick test_cache_affinity_balances;
    Alcotest.test_case "v3 pack keeps the pages it unmaps" `Quick
      test_retained_pages_are_taken;
  ]

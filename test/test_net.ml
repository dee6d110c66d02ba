module Engine = Pm2_sim.Engine
module Cm = Pm2_sim.Cost_model
module Pk = Pm2_net.Packet
module Network = Pm2_net.Network

(* -- Packet -- *)

let test_packet_roundtrip () =
  let p = Pk.packer () in
  Pk.pack_int p 42;
  Pk.pack_int p (-7);
  Pk.pack_float p 3.25;
  Pk.pack_string p "hello";
  Pk.pack_bytes p (Bytes.of_string "\000\001\002");
  Pk.pack_list p (Pk.pack_int p) [ 1; 2; 3 ];
  let u = Pk.unpacker (Pk.contents p) in
  Alcotest.(check int) "int" 42 (Pk.unpack_int u);
  Alcotest.(check int) "negative int" (-7) (Pk.unpack_int u);
  Alcotest.(check (float 0.)) "float" 3.25 (Pk.unpack_float u);
  Alcotest.(check string) "string" "hello" (Pk.unpack_string u);
  Alcotest.(check bytes) "bytes" (Bytes.of_string "\000\001\002") (Pk.unpack_bytes u);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Pk.unpack_list u (fun () -> Pk.unpack_int u));
  Alcotest.(check int) "fully consumed" 0 (Pk.remaining u)

let test_packet_sizes () =
  let p = Pk.packer () in
  Alcotest.(check int) "empty" 0 (Pk.packed_size p);
  Pk.pack_int p 1;
  Alcotest.(check int) "int is 8 bytes" 8 (Pk.packed_size p);
  Pk.pack_string p "abc";
  Alcotest.(check int) "string is length-prefixed" (8 + 8 + 3) (Pk.packed_size p)

let test_packet_truncated () =
  let p = Pk.packer () in
  Pk.pack_int p 1;
  let data = Pk.contents p in
  let u = Pk.unpacker (Bytes.sub data 0 4) in
  Alcotest.(check bool) "truncated rejected" true
    (try ignore (Pk.unpack_int u); false with Invalid_argument _ -> true)

let test_packet_bad_length_prefix () =
  (* A prefix of -8 followed by 16 bytes: a view must not step back. *)
  let frame len =
    let p = Pk.packer () in
    Pk.pack_int p len;
    Pk.pack_int p 0;
    Pk.pack_int p 0;
    Pk.unpacker (Pk.contents p)
  in
  let rejected f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative view rejected" true
    (rejected (fun () -> Pk.unpack_view (frame (-8))));
  Alcotest.(check bool) "negative bytes rejected" true
    (rejected (fun () -> Pk.unpack_bytes (frame (-8))));
  Alcotest.(check bool) "wrapping view rejected" true
    (rejected (fun () -> Pk.unpack_view (frame max_int)));
  let u = frame 16 in
  let _, pos, len = Pk.unpack_view u in
  Alcotest.(check (pair int int)) "exact view accepted" (8, 16) (pos, len)

let prop_packet_ints =
  QCheck2.Test.make ~name:"packet roundtrips any int list"
    QCheck2.Gen.(list int)
    (fun l ->
       let p = Pk.packer () in
       Pk.pack_list p (Pk.pack_int p) l;
       let u = Pk.unpacker (Pk.contents p) in
       Pk.unpack_list u (fun () -> Pk.unpack_int u) = l && Pk.remaining u = 0)

(* A reference encoder over [Buffer.t], written independently of
   [Packet]: every packing primitive must emit exactly these bytes. *)
type pack_op =
  | Int of int
  | Float of float
  | Bytes_ of string
  | String_ of string
  | Varint of int
  | Raw of string
  | Unprefixed of string
  | Ints of int list

let ref_encode ops =
  let b = Buffer.create 16 in
  let int v = Buffer.add_int64_le b (Int64.of_int v) in
  let rec varint z =
    if z lsr 7 = 0 then Buffer.add_char b (Char.chr z)
    else begin
      Buffer.add_char b (Char.chr (z land 0x7f lor 0x80));
      varint (z lsr 7)
    end
  in
  List.iter
    (function
      | Int v -> int v
      | Float f -> Buffer.add_int64_le b (Int64.bits_of_float f)
      | Bytes_ s | String_ s | Raw s ->
        int (String.length s);
        Buffer.add_string b s
      | Varint v -> varint ((v lsl 1) lxor (v asr (Sys.int_size - 1)))
      | Unprefixed s -> Buffer.add_string b s
      | Ints l ->
        int (List.length l);
        List.iter int l)
    ops;
  Buffer.to_bytes b

let pack_ops p ops =
  let blit s buf pos = Bytes.blit_string s 0 buf pos (String.length s) in
  List.iter
    (function
      | Int v -> Pk.pack_int p v
      | Float f -> Pk.pack_float p f
      | Bytes_ s -> Pk.pack_bytes p (Bytes.of_string s)
      | String_ s -> Pk.pack_string p s
      | Varint v -> Pk.pack_varint p v
      | Raw s -> Pk.pack_raw p ~len:(String.length s) (blit s)
      | Unprefixed s -> Pk.pack_unprefixed p ~len:(String.length s) (blit s)
      | Ints l -> Pk.pack_list p (Pk.pack_int p) l)
    ops

let gen_pack_op =
  let open QCheck2.Gen in
  let str = string_size (int_range 0 600) in
  oneof
    [
      map (fun v -> Int v) int;
      map (fun f -> Float f) float;
      map (fun s -> Bytes_ s) str;
      map (fun s -> String_ s) str;
      map (fun v -> Varint v) int;
      map (fun s -> Raw s) str;
      map (fun s -> Unprefixed s) str;
      map (fun l -> Ints l) (list_size (int_range 0 40) int);
    ]

(* Hint 0: none; 1: too small (half the final size); 2: exact. *)
let prop_packer_matches_reference =
  QCheck2.Test.make ~name:"packer emits the reference encoding under any size hint"
    ~count:300
    QCheck2.Gen.(pair (int_range 0 2) (list_size (int_range 0 30) gen_pack_op))
    (fun (hint, ops) ->
      let expected = ref_encode ops in
      let n = Bytes.length expected in
      let p =
        match hint with
        | 0 -> Pk.packer ()
        | 1 -> Pk.packer ~size:(n / 2) ()
        | _ -> Pk.packer ~size:n ()
      in
      pack_ops p ops;
      Pk.packed_size p = n && Bytes.equal (Pk.contents p) expected)

let test_packer_exact_hint_no_copy () =
  let p = Pk.packer ~size:16 () in
  Pk.pack_int p 1;
  Pk.pack_int p 2;
  let c = Pk.contents p in
  Alcotest.(check bool) "exactly full: handed over, not copied" true (c == Pk.contents p);
  Pk.pack_int p 3;
  Alcotest.(check int) "packing after contents grows" 24 (Pk.packed_size p);
  Alcotest.(check int) "earlier contents unchanged" 16 (Bytes.length c)

(* FNV-1a 64 folded to 62 bits: the published test vectors, and a fixed
   4 KB buffer pinned so any change to the fold shows. *)
let test_checksum_golden () =
  let ck s = Pk.checksum (Bytes.of_string s) in
  Alcotest.(check int) "empty" 0x0bf29ce484222325 (ck "");
  Alcotest.(check int) "a" 0x2f63dc4c8601ec8c (ck "a");
  Alcotest.(check int) "foobar" 0x05944171f73967e8 (ck "foobar");
  let b = Bytes.init 4096 (fun i -> Char.chr (((i * 131) + 7) land 0xff)) in
  Alcotest.(check int) "4 KB pattern" 0x182d801461094325 (Pk.checksum b)

(* -- Network -- *)

let make () =
  let e = Engine.create () in
  (e, Network.create e Cm.default ~nodes:3)

let test_send_delivery_time () =
  let e, net = make () in
  let payload = Bytes.make 1000 'x' in
  let arrival = ref 0. in
  Network.send net ~src:0 ~dst:1 payload (fun b ->
      Alcotest.(check int) "payload intact" 1000 (Bytes.length b);
      arrival := Engine.now e);
  ignore (Engine.run e);
  let cm = Cm.default in
  Alcotest.(check (float 1e-6)) "latency + size/bandwidth"
    (cm.Cm.net_latency +. (1000. *. cm.Cm.net_per_byte))
    !arrival

let test_self_send () =
  let e, net = make () in
  let delivered = ref false in
  Network.send net ~src:2 ~dst:2 (Bytes.create 64) (fun _ -> delivered := true);
  ignore (Engine.run e);
  Alcotest.(check bool) "self-send delivered" true !delivered

let test_stats () =
  let e, net = make () in
  Network.send net ~src:0 ~dst:1 (Bytes.create 100) ignore;
  Network.send net ~src:0 ~dst:1 (Bytes.create 50) ignore;
  Network.send net ~src:1 ~dst:0 (Bytes.create 10) ignore;
  ignore (Engine.run e);
  Alcotest.(check int) "messages" 3 (Network.messages_sent net);
  Alcotest.(check int) "bytes" 160 (Network.bytes_sent net);
  Alcotest.(check (pair int int)) "link 0->1" (2, 150) (Network.link_stats net ~src:0 ~dst:1);
  Alcotest.(check (pair int int)) "link 1->0" (1, 10) (Network.link_stats net ~src:1 ~dst:0);
  Network.record_virtual net ~src:2 ~dst:0 ~bytes:999;
  Alcotest.(check (pair int int)) "virtual traffic" (1, 999)
    (Network.link_stats net ~src:2 ~dst:0);
  Network.reset_stats net;
  Alcotest.(check int) "reset" 0 (Network.messages_sent net)

(* record_virtual models traffic that never travels as a packet object
   (e.g. host-mode migration): it must book-keep exactly like a real
   send — counters on the link, and a symmetric Packet_send /
   Packet_deliver pair in the event stream. *)
let test_record_virtual_events () =
  let e = Engine.create () in
  let obs = Pm2_obs.Collector.create ~now:(fun () -> Engine.now e) () in
  let ring = Pm2_obs.Ring.create ~capacity:16 in
  Pm2_obs.Collector.attach obs (Pm2_obs.Ring.sink ring);
  let net = Network.create ~obs e Cm.default ~nodes:3 in
  Network.record_virtual net ~src:2 ~dst:0 ~bytes:777;
  let events =
    List.map (fun r -> (r.Pm2_obs.Ring.node, r.Pm2_obs.Ring.event))
      (Pm2_obs.Ring.to_list ring)
  in
  Alcotest.(check int) "two events" 2 (List.length events);
  (match events with
   | [ (n1, Pm2_obs.Event.Packet_send { src; dst; bytes });
       (n2, Pm2_obs.Event.Packet_deliver { src = src'; dst = dst'; bytes = bytes' }) ] ->
     Alcotest.(check int) "send attributed to src" 2 n1;
     Alcotest.(check int) "deliver attributed to dst" 0 n2;
     Alcotest.(check (triple int int int)) "send payload" (2, 0, 777) (src, dst, bytes);
     Alcotest.(check (triple int int int)) "deliver payload" (2, 0, 777) (src', dst', bytes')
   | _ -> Alcotest.fail "expected a Packet_send / Packet_deliver pair");
  Alcotest.(check (pair int int)) "link counters" (1, 777)
    (Network.link_stats net ~src:2 ~dst:0)

let test_link_stats_reset () =
  let e, net = make () in
  Network.send net ~src:0 ~dst:1 (Bytes.create 100) ignore;
  Network.record_virtual net ~src:0 ~dst:1 ~bytes:20;
  ignore (Engine.run e);
  Alcotest.(check (pair int int)) "real + virtual on one link" (2, 120)
    (Network.link_stats net ~src:0 ~dst:1);
  Alcotest.(check (pair int int)) "untouched link" (0, 0)
    (Network.link_stats net ~src:1 ~dst:0);
  Network.reset_stats net;
  Alcotest.(check (pair int int)) "link zeroed" (0, 0)
    (Network.link_stats net ~src:0 ~dst:1);
  Alcotest.(check int) "messages zeroed" 0 (Network.messages_sent net);
  Alcotest.(check int) "bytes zeroed" 0 (Network.bytes_sent net)

let test_bad_node () =
  let _, net = make () in
  Alcotest.(check bool) "bad dst" true
    (try Network.send net ~src:0 ~dst:9 Bytes.empty ignore; false
     with Invalid_argument _ -> true)

let test_ordering_by_size () =
  (* A small message sent after a big one still arrives earlier: the model
     is per-message latency, not a shared serial link (full crossbar). *)
  let e, net = make () in
  let log = ref [] in
  Network.send net ~src:0 ~dst:1 (Bytes.create 100_000) (fun _ -> log := "big" :: !log);
  Network.send net ~src:0 ~dst:1 (Bytes.create 10) (fun _ -> log := "small" :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list string)) "small overtakes big" [ "small"; "big" ] (List.rev !log)

let tests =
  [
    Alcotest.test_case "packet roundtrip" `Quick test_packet_roundtrip;
    Alcotest.test_case "packet sizes" `Quick test_packet_sizes;
    Alcotest.test_case "packet truncation" `Quick test_packet_truncated;
    Alcotest.test_case "packet bad length prefix" `Quick test_packet_bad_length_prefix;
    QCheck_alcotest.to_alcotest prop_packet_ints;
    QCheck_alcotest.to_alcotest prop_packer_matches_reference;
    Alcotest.test_case "exact hint hands the buffer over" `Quick
      test_packer_exact_hint_no_copy;
    Alcotest.test_case "checksum golden values" `Quick test_checksum_golden;
    Alcotest.test_case "delivery time model" `Quick test_send_delivery_time;
    Alcotest.test_case "self send" `Quick test_self_send;
    Alcotest.test_case "traffic statistics" `Quick test_stats;
    Alcotest.test_case "record_virtual emits send+deliver" `Quick
      test_record_virtual_events;
    Alcotest.test_case "link stats and reset" `Quick test_link_stats_reset;
    Alcotest.test_case "bad node rejected" `Quick test_bad_node;
    Alcotest.test_case "crossbar semantics" `Quick test_ordering_by_size;
  ]

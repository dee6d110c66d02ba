(* Causal tracing: the span tracer, cross-node context propagation
   (codec frames, probe messages), the flight recorder, the stats feed
   behind [Balancer.Access_imbalance], and the tracing-off
   byte-identical guarantee. *)

module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout
module Codec = Pm2_net.Codec
module Network = Pm2_net.Network
module Plan = Pm2_fault.Plan
module Obs = Pm2_obs
open Pm2_core

let page = Layout.page_size
let empty_program = Pm2.build (fun _ -> ())

let cluster ?fault_plan ?sinks ?(tracing = false) ?(delta = 8 * 1024 * 1024)
    ?(nodes = 2) () =
  Cluster.create
    (Pm2.Config.make ~nodes ?fault_plan ?sinks ~tracing ~delta_cache_bytes:delta ())
    empty_program

(* -- the tracer -- *)

let collector_with_ring () =
  let obs = Obs.Collector.create ~now:(fun () -> 0.) () in
  let ring = Obs.Ring.create ~capacity:1024 in
  Obs.Collector.attach obs (Obs.Ring.sink ring);
  (obs, ring)

(* A flattened [Event.Span_end] (inline records cannot escape a match). *)
type se = {
  se_node : int;
  trace : int;
  span : int;
  parent : int;
  kind : Obs.Event.span_kind;
  start : float;
  dur : float;
  host_us : float;
  note : string;
}

let span_ends ring =
  List.filter_map
    (fun (r : Obs.Ring.record) ->
       match r.Obs.Ring.event with
       | Obs.Event.Span_end { trace; span; parent; kind; start; dur; host_us; note } ->
         Some
           { se_node = r.Obs.Ring.node; trace; span; parent; kind; start; dur;
             host_us; note }
       | _ -> None)
    (Obs.Ring.to_list ring)

let test_disabled_tracer_inert () =
  let obs, ring = collector_with_ring () in
  let t = Obs.Span.create ~enabled:false obs in
  Alcotest.(check bool) "disabled" false (Obs.Span.enabled t);
  let s = Obs.Span.root t ~at:0. ~node:0 Obs.Event.Migration in
  Alcotest.(check bool) "root is none" true (Obs.Span.is_none s);
  Alcotest.(check (option (pair int int))) "no ctx" None (Obs.Span.ctx s);
  let c = Obs.Span.child t ~at:1. ~node:0 ~parent:s Obs.Event.Pack in
  Alcotest.(check bool) "child is none" true (Obs.Span.is_none c);
  Obs.Span.finish t ~at:2. s;
  Obs.Span.finish t ~at:2. c;
  Alcotest.(check int) "nothing emitted" 0 (Obs.Span.spans_emitted t);
  Alcotest.(check int) "collector untouched" 0 (Obs.Ring.length ring)

let test_span_tree_shape () =
  let obs, ring = collector_with_ring () in
  let t = Obs.Span.create ~enabled:true obs in
  let root = Obs.Span.root t ~at:10. ~node:0 Obs.Event.Migration in
  let pack = Obs.Span.child t ~at:11. ~node:0 ~parent:root Obs.Event.Pack in
  (* the wire carries (trace, parent) and the destination re-parents *)
  let ctx = Obs.Span.ctx root in
  Alcotest.(check bool) "root has ctx" true (ctx <> None);
  let unpack = Obs.Span.remote t ~at:20. ~node:1 ~ctx Obs.Event.Unpack in
  Alcotest.(check bool) "remote span live" false (Obs.Span.is_none unpack);
  Alcotest.(check (option (pair int int))) "no ctx from None" None
    (Obs.Span.ctx (Obs.Span.remote t ~at:20. ~node:1 ~ctx:None Obs.Event.Unpack));
  Obs.Span.finish t ~at:12. pack;
  Obs.Span.finish t ~at:25. ~note:"members=3" unpack;
  Obs.Span.finish t ~at:26. root;
  Obs.Span.finish t ~at:99. root (* idempotent: second finish is a no-op *);
  Alcotest.(check int) "three spans emitted" 3 (Obs.Span.spans_emitted t);
  let ends = span_ends ring in
  Alcotest.(check int) "three Span_end events" 3 (List.length ends);
  let find kind = List.find (fun s -> s.kind = kind) ends in
  let root_s = find Obs.Event.Migration in
  let pack_s = find Obs.Event.Pack in
  let unpack_s = find Obs.Event.Unpack in
  Alcotest.(check int) "root is a root" (-1) root_s.parent;
  Alcotest.(check int) "pack under root" root_s.span pack_s.parent;
  Alcotest.(check int) "unpack under root (via wire ctx)" root_s.span unpack_s.parent;
  Alcotest.(check int) "same trace" root_s.trace unpack_s.trace;
  Alcotest.(check int) "pack on node 0" 0 pack_s.se_node;
  Alcotest.(check int) "unpack on node 1" 1 unpack_s.se_node;
  Alcotest.(check (float 1e-9)) "virtual duration" 5. unpack_s.dur;
  Alcotest.(check (float 1e-9)) "start stamped" 20. unpack_s.start;
  Alcotest.(check string) "note kept" "members=3" unpack_s.note;
  Alcotest.(check bool) "host time measured" true (unpack_s.host_us >= 0.)

(* -- wire propagation -- *)

let test_codec_frame_trace_roundtrip () =
  let payload = Bytes.of_string "delta image" in
  let payload_of u =
    let len = Pm2_net.Packet.remaining u in
    let data, pos = Pm2_net.Packet.unpack_take u len in
    Bytes.sub data pos len
  in
  (match Codec.decode (Codec.frame ~trace:(42, 7) Codec.V3 payload) with
   | Ok (Codec.V3, Some (42, 7), u) -> Alcotest.(check bytes) "payload" payload (payload_of u)
   | _ -> Alcotest.fail "traced v3 frame did not decode");
  (match Codec.decode (Codec.frame ~trace:(42, 7) Codec.V2 payload) with
   | Ok (Codec.V2, Some (42, 7), u) ->
     Alcotest.(check bytes) "v2 payload" payload (payload_of u)
   | _ -> Alcotest.fail "traced v2 frame did not decode");
  (* untraced frames carry no context — and therefore no extra bytes *)
  (match Codec.decode (Codec.frame Codec.V3 payload) with
   | Ok (Codec.V3, None, _) -> ()
   | _ -> Alcotest.fail "untraced frame grew a context");
  Alcotest.(check int) "context costs exactly two words" 16
    (Bytes.length (Codec.frame ~trace:(1, 2) Codec.V3 payload)
     - Bytes.length (Codec.frame Codec.V3 payload));
  (* a "traced v1" version word (9) is not a thing the encoder can emit
     — it must keep failing as the corruption it is *)
  let traced_v1 = Codec.frame ~trace:(1, 2) Codec.V2 payload in
  Bytes.set traced_v1 8 '\x09';
  match Codec.decode traced_v1 with
  | Error (Codec.Bad_version 9) -> ()
  | _ -> Alcotest.fail "traced v1 frame accepted"

let test_probe_trace_roundtrip () =
  let ranges = [ (0x10000, 2 * page); (0x40000, page) ] in
  List.iter
    (fun trace ->
      match Migration.decode (Migration.encode (Migration.Probe { gid = 3; ranges; trace })) with
      | Ok (Migration.Probe { gid = 3; ranges = r; trace = t }) when t = trace ->
        Alcotest.(check (list (pair int int))) "ranges" ranges r
      | _ -> Alcotest.fail "probe did not decode")
    [ Some (9, 4); None ]

(* -- end to end: a traced group delta migration under faults -- *)

let populated c n =
  let env = Cluster.host_env c 0 in
  let space = Cluster.node_space c 0 in
  List.init n (fun i ->
      let th = Cluster.host_thread c ~node:0 in
      let addr = Option.get (Iso_heap.isomalloc env th (4 * page)) in
      for p = 0 to 3 do
        As.store_word space (addr + (p * page)) (0xfeed + (i * 100) + p)
      done;
      th)

let test_traced_group_migration_span_tree () =
  let plan = Plan.create ~seed:11 (Result.get_ok (Plan.spec_of_string "loss=0.15")) in
  let ring = Obs.Ring.create ~capacity:4096 in
  let c =
    cluster ~tracing:true ~fault_plan:plan ~sinks:[ Obs.Ring.sink ring ] ()
  in
  let ths = populated c 3 in
  (match Cluster.migrate_group c ths ~dest:1 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  ignore (Cluster.run c);
  Cluster.check_invariants c;
  List.iter
    (fun (th : Thread.t) -> Alcotest.(check int) "moved" 1 th.Thread.node)
    ths;
  let ends = span_ends ring in
  Alcotest.(check bool) "spans recorded" true (List.length ends >= 5);
  (* exactly one trace, rooted in exactly one span *)
  let traces = List.sort_uniq compare (List.map (fun s -> s.trace) ends) in
  Alcotest.(check int) "one trace" 1 (List.length traces);
  (match List.filter (fun s -> s.parent = -1) ends with
   | [ r ] ->
     Alcotest.(check int) "root on the source node" 0 r.se_node;
     Alcotest.(check bool) "root is the migration span" true
       (r.kind = Obs.Event.Migration);
     Alcotest.(check string) "root committed" "commit" r.note
   | _ -> Alcotest.fail "want exactly one root");
  (* every span parents into the tree and the tree is connected *)
  let ids = List.map (fun s -> s.span) ends in
  List.iter
    (fun s ->
       if s.parent <> -1 then
         Alcotest.(check bool)
           (Printf.sprintf "parent of span %d exists" s.span)
           true (List.mem s.parent ids))
    ends;
  (* the tree spans both nodes: negotiation/pack/train at the source,
     probe/unpack/commit at the destination *)
  let kinds_on node =
    List.filter_map (fun s -> if s.se_node = node then Some s.kind else None) ends
  in
  let src = kinds_on 0 and dst = kinds_on 1 in
  List.iter
    (fun k ->
       Alcotest.(check bool)
         ("source has " ^ Obs.Event.span_kind_name k)
         true (List.mem k src))
    [ Obs.Event.Migration; Obs.Event.Negotiate; Obs.Event.Pack; Obs.Event.Train ];
  List.iter
    (fun k ->
       Alcotest.(check bool)
         ("destination has " ^ Obs.Event.span_kind_name k)
         true (List.mem k dst))
    [ Obs.Event.Probe; Obs.Event.Unpack; Obs.Event.Commit ]

(* -- the flight recorder -- *)

let test_recorder_dump_on_abort () =
  (* The 0<->1 link is severed just after the probe gets through: the
     train is undeliverable, the reliable layer gives up, the group
     aborts — and the always-on recorder must both fire its trigger
     callback and produce a parseable dump covering both nodes. *)
  let plan =
    Plan.create ~seed:3
      (Result.get_ok (Plan.spec_of_string "part=0-1@200-100000000"))
  in
  let c = cluster ~tracing:true ~fault_plan:plan () in
  let fired = ref 0 in
  Obs.Recorder.set_on_trigger (Cluster.recorder c) (fun _ -> incr fired);
  let ths = populated c 2 in
  (match Cluster.migrate_group c ths ~dest:1 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  ignore (Cluster.run c);
  Cluster.check_invariants c;
  List.iter
    (fun (th : Thread.t) -> Alcotest.(check int) "rolled back home" 0 th.Thread.node)
    ths;
  Alcotest.(check int) "group aborted" 1 (Cluster.aborted_groups c);
  let r = Cluster.recorder c in
  let triggers = Obs.Recorder.triggers r in
  Alcotest.(check bool) "recorder triggered" true (List.length triggers >= 1);
  Alcotest.(check int) "callback fired per trigger" (List.length triggers) !fired;
  Alcotest.(check bool) "abort is among the reasons" true
    (List.exists
       (fun (t : Obs.Recorder.trigger) ->
          let re = "group_migration.abort" in
          let r = t.Obs.Recorder.trig_reason in
          String.length r >= String.length re && String.sub r 0 (String.length re) = re)
       triggers);
  (* the dump round-trips through the in-tree parser *)
  match Obs.Json.parse (Obs.Recorder.dump r) with
  | Error e -> Alcotest.fail ("dump is not valid JSON: " ^ e)
  | Ok j ->
    Alcotest.(check (option string)) "format tag" (Some "pm2-flight/1")
      (Option.bind (Obs.Json.member "recorder" j) Obs.Json.to_string_val);
    let nodes =
      match Obs.Json.member "nodes" j with
      | Some (Obs.Json.Obj fields) -> List.map fst fields
      | _ -> []
    in
    Alcotest.(check bool) "both nodes ringed" true
      (List.mem "node0" nodes && List.mem "node1" nodes)

(* -- tracing off stays byte-identical -- *)

let hop_workload ?sinks ~tracing () =
  let c = cluster ?sinks ~tracing () in
  let ths = populated c 3 in
  (match Cluster.migrate_group c ths ~dest:1 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  let finish = Cluster.run c in
  (c, finish, Network.bytes_sent (Cluster.network c))

let test_tracing_off_byte_identical () =
  let _, plain_t, plain_b = hop_workload ~tracing:false () in
  let chrome = Obs.Chrome.create () in
  let metrics = Obs.Metrics.create () in
  let _, observed_t, observed_b =
    hop_workload ~sinks:[ Obs.Chrome.sink chrome; Obs.Metrics.sink metrics ]
      ~tracing:false ()
  in
  Alcotest.(check (float 0.)) "same finish time" plain_t observed_t;
  Alcotest.(check int) "same wire bytes" plain_b observed_b;
  (* tracing on: context really rides the wire, so the byte count may
     only grow — and spans must appear *)
  let c, _, traced_b = hop_workload ~tracing:true () in
  Alcotest.(check bool) "tracing adds wire bytes" true (traced_b > plain_b);
  Alcotest.(check bool) "tracing emits spans" true
    (Obs.Span.spans_emitted (Cluster.tracer c) > 0)

(* -- the heat feed -- *)

let test_heat_feed_and_refresh () =
  let c = cluster () in
  let env = Cluster.host_env c 0 in
  let space = Cluster.node_space c 0 in
  let th = Cluster.host_thread c ~node:0 in
  let addr = Option.get (Iso_heap.isomalloc env th (4 * page)) in
  As.store_word space addr 0xbeef;
  let feed = Cluster.feed c in
  Cluster.refresh_heat c;
  (* that write predates the first epoch: pre-history is not heat *)
  Alcotest.(check (float 0.)) "no heat before stores" 0.
    (Obs.Feed.get_or feed (Obs.Feed.thread_heat_key th.Thread.id) ~default:0.);
  As.store_word space addr 1;
  As.store_word space (addr + page) 2;
  Cluster.refresh_heat c;
  Alcotest.(check (float 0.)) "two pages of heat" 2.
    (Obs.Feed.get_or feed (Obs.Feed.thread_heat_key th.Thread.id) ~default:0.);
  Alcotest.(check (float 0.)) "node heat aggregates" 2.
    (Obs.Feed.get_or feed (Obs.Feed.node_heat_key 0) ~default:0.);
  (* refresh advances the epoch: the same stores never count twice *)
  Cluster.refresh_heat c;
  Alcotest.(check (float 0.)) "window reset" 0.
    (Obs.Feed.get_or feed (Obs.Feed.node_heat_key 0) ~default:0.)

let tests =
  [
    Alcotest.test_case "disabled tracer is inert" `Quick test_disabled_tracer_inert;
    Alcotest.test_case "span tree shape" `Quick test_span_tree_shape;
    Alcotest.test_case "codec frame trace roundtrip" `Quick
      test_codec_frame_trace_roundtrip;
    Alcotest.test_case "probe trace roundtrip" `Quick test_probe_trace_roundtrip;
    Alcotest.test_case "traced group migration span tree" `Quick
      test_traced_group_migration_span_tree;
    Alcotest.test_case "flight recorder dump on abort" `Quick
      test_recorder_dump_on_abort;
    Alcotest.test_case "tracing off is byte-identical" `Quick
      test_tracing_off_byte_identical;
    Alcotest.test_case "heat feed refresh" `Quick test_heat_feed_and_refresh;
  ]

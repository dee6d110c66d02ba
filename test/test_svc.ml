(* The service tier: the typed Session control plane over a resident
   cluster, and the pm2-ctl/1 wire codec — golden frames, request and
   reply round-trips, fuzzed/truncated decoding (typed Bad_request,
   never an exception), and a multi-client session with two event
   subscribers driven by one client. *)

module Session = Pm2_svc.Session
module P = Pm2_svc.Protocol
module Json = Pm2_obs.Json
module Plan = Pm2_fault.Plan
module Balancer = Pm2_loadbal.Balancer
module Cluster = Pm2_core.Cluster

let program = Pm2_programs.Figures.image ()

let session ?(nodes = 2) ?faults () =
  let config =
    match faults with
    | None -> Cluster.default_config ~nodes
    | Some plan -> { (Cluster.default_config ~nodes) with Cluster.faults = plan }
  in
  Session.create ~config ~program ()

let spec_of s =
  match Plan.spec_of_string s with
  | Ok sp -> sp
  | Error e -> Alcotest.failf "spec %S rejected: %s" s e

let kind = function
  | Ok _ -> "ok"
  | Error e -> P.err_kind_to_string e.P.kind

(* -- golden frames: the exact bytes of pm2-ctl/1 -- *)

let test_golden_frames () =
  let check = Alcotest.(check string) in
  check "hello" {|{"v":"pm2-ctl/1","id":1,"req":"hello"}|} (P.encode_request ~id:1 P.Hello);
  check "submit"
    {|{"v":"pm2-ctl/1","id":2,"req":"submit","entry":"pingpong","arg":4,"node":0}|}
    (P.encode_request ~id:2 (P.Submit { Session.entry = "pingpong"; arg = 4; node = 0 }));
  check "run bounded" {|{"v":"pm2-ctl/1","id":3,"req":"run","until":5000}|}
    (P.encode_request ~id:3 (P.Run { until = Some 5000. }));
  check "run unbounded" {|{"v":"pm2-ctl/1","id":3,"req":"run"}|}
    (P.encode_request ~id:3 (P.Run { until = None }));
  check "migrate" {|{"v":"pm2-ctl/1","id":4,"req":"migrate","tid":7,"dest":1}|}
    (P.encode_request ~id:4 (P.Migrate { tid = 7; dest = 1 }));
  check "inject-faults carries the --faults grammar"
    {|{"v":"pm2-ctl/1","id":5,"req":"inject-faults","spec":"loss=0.1,delay=25"}|}
    (P.encode_request ~id:5 (P.Inject_faults { spec = spec_of "loss=0.1,delay=25" }));
  check "balance carries the policy grammar"
    {|{"v":"pm2-ctl/1","id":6,"req":"balance","policy":"least-loaded","period":400}|}
    (P.encode_request ~id:6 (P.Balance { policy = Balancer.Least_loaded; period = 400. }));
  check "reply ok" {|{"v":"pm2-ctl/1","id":2,"ok":"submitted","tid":32}|}
    (P.encode_reply ~id:2 (Ok (P.Submitted { tid = 32 })));
  check "reply err"
    {|{"v":"pm2-ctl/1","id":9,"err":"unknown_thread","msg":"unknown thread 5"}|}
    (P.encode_reply ~id:9 (Error { P.kind = P.Unknown_thread; msg = "unknown thread 5" }));
  check "event push (the Stream JSON-lines shape behind sub/ev)"
    {|{"v":"pm2-ctl/1","sub":0,"ev":{"t":12.5,"node":1,"name":"slot.reserve","slot":3,"n":1,"cache_hit":false}}|}
    (P.encode_event ~sub:0 ~time:12.5 ~node:1
       (Pm2_obs.Event.Slot_reserve { slot = 3; n = 1; cache_hit = false }))

(* -- request codec: decode (encode r) = r for every request shape -- *)

let sample_requests =
  [
    P.Hello;
    P.Submit { Session.entry = "pingpong"; arg = 4; node = 0 };
    P.Submit { Session.entry = "spawner"; arg = 0; node = 1 };
    P.Step { max_events = 512 };
    P.Run { until = None };
    P.Run { until = Some 12345.5 };
    P.Query_threads;
    P.Query_metrics;
    P.Query_heat;
    P.Query_status;
    P.Migrate { tid = 7; dest = 1 };
    P.Migrate_group { tids = [ 3; 4; 5 ]; dest = 0 };
    P.Inject_faults { spec = spec_of "loss=0.2,dup=0.05,part=0-1@10-90,kill=1@500" };
    P.Inject_faults { spec = Plan.default_spec };
    P.Balance { policy = Balancer.Threshold { high = 6; low = 2 }; period = 250. };
    P.Balance
      { policy = Balancer.Access_imbalance { ratio = 2.5; min_pages = 3 }; period = 400. };
    P.Checkpoint;
    P.Subscribe;
    P.Unsubscribe { sub = 2 };
    P.Shutdown;
  ]

let test_request_roundtrip () =
  List.iteri
    (fun i req ->
      let id = i + 1 in
      let line = P.encode_request ~id req in
      match P.decode_request line with
      | Ok (id', req') ->
        Alcotest.(check int) (Printf.sprintf "id of %s" line) id id';
        if req' <> req then Alcotest.failf "request changed across the wire: %s" line
      | Error (_, e) -> Alcotest.failf "own encoding rejected: %s: %s" line e.P.msg)
    sample_requests

let sample_responses =
  [
    P.Welcome { proto = P.version; server = "pm2simd"; nodes = 4; entries = [ "a"; "b" ] };
    P.Submitted { tid = 32 };
    P.Stepped { events = 17; time = 350.5; live = 3; pending = 2 };
    P.Ran { time = 2474.; live = 0 };
    P.Threads
      [
        { Session.ti_tid = 32; ti_node = 0; ti_state = "ready"; ti_pending_dest = None };
        { Session.ti_tid = 33; ti_node = 1; ti_state = "blocked"; ti_pending_dest = Some 0 };
      ];
    P.Metrics (Json.Obj [ ("node0", Json.Obj []) ]);
    P.Heat [ ("node.0.heat", 1.5); ("thread.32.heat", 0.25) ];
    P.Migrating;
    P.Group { gid = 2 };
    P.Injected { spec = "loss=0.1" };
    P.Balancing { policy = "least-loaded" };
    P.Checkpointed { snapshots = 5 };
    P.Subscribed { sub = 0 };
    P.Unsubscribed;
    P.Bye;
  ]

let test_reply_roundtrip () =
  List.iteri
    (fun i resp ->
      let id = i + 1 in
      let line = P.encode_reply ~id (Ok resp) in
      match P.decode_frame line with
      | Ok (P.Reply (id', Ok resp')) ->
        Alcotest.(check int) "id" id id';
        if resp' <> resp then Alcotest.failf "response changed across the wire: %s" line
      | Ok _ -> Alcotest.failf "wrong frame shape: %s" line
      | Error e -> Alcotest.failf "own encoding rejected: %s: %s" line e.P.msg)
    sample_responses;
  (* typed errors survive too *)
  List.iter
    (fun k ->
      let line = P.encode_reply ~id:3 (Error { P.kind = k; msg = "m" }) in
      match P.decode_frame line with
      | Ok (P.Reply (3, Error e)) when e.P.kind = k -> ()
      | _ -> Alcotest.failf "error kind lost: %s" line)
    [
      P.Bad_request; P.Unknown_entry; P.Unknown_thread; P.Bad_node; P.Rejected;
      P.Unsupported; P.Shutting_down; P.Runtime;
    ]

(* -- malformed input: typed Bad_request, never an exception -- *)

let test_malformed_frames () =
  let reject what s =
    match P.decode_request s with
    | Error (_, { P.kind = P.Bad_request; _ }) -> ()
    | Error (_, e) ->
      Alcotest.failf "%s: wrong kind %s" what (P.err_kind_to_string e.P.kind)
    | Ok _ -> Alcotest.failf "%s: accepted %S" what s
  in
  reject "empty" "";
  reject "not json" "this is not json";
  reject "json scalar" "42";
  reject "json array" "[1,2,3]";
  reject "no version" {|{"id":1,"req":"hello"}|};
  reject "wrong version" {|{"v":"pm2-ctl/2","id":1,"req":"hello"}|};
  reject "version not a string" {|{"v":7,"id":1,"req":"hello"}|};
  reject "missing id" {|{"v":"pm2-ctl/1","req":"hello"}|};
  reject "fractional id" {|{"v":"pm2-ctl/1","id":1.5,"req":"hello"}|};
  reject "missing req" {|{"v":"pm2-ctl/1","id":1}|};
  reject "unknown req" {|{"v":"pm2-ctl/1","id":1,"req":"frobnicate"}|};
  reject "submit without entry" {|{"v":"pm2-ctl/1","id":1,"req":"submit"}|};
  reject "submit entry not a string" {|{"v":"pm2-ctl/1","id":1,"req":"submit","entry":3}|};
  reject "migrate without dest" {|{"v":"pm2-ctl/1","id":1,"req":"migrate","tid":1}|};
  reject "step zero events" {|{"v":"pm2-ctl/1","id":1,"req":"step","events":0}|};
  reject "bad fault spec" {|{"v":"pm2-ctl/1","id":1,"req":"inject-faults","spec":"fire=1"}|};
  reject "bad policy" {|{"v":"pm2-ctl/1","id":1,"req":"balance","policy":"chaotic"}|};
  reject "tids not an array" {|{"v":"pm2-ctl/1","id":1,"req":"migrate-group","tids":3,"dest":0}|};
  (* the correlation id is still recovered from broken payloads *)
  (match P.decode_request {|{"v":"pm2-ctl/1","id":41,"req":"submit"}|} with
   | Error (41, _) -> ()
   | _ -> Alcotest.fail "id not recovered from a broken request")

(* every strict prefix of a valid frame is a typed decode failure *)
let test_truncated_frames () =
  List.iteri
    (fun i req ->
      let line = P.encode_request ~id:(i + 1) req in
      for len = 0 to String.length line - 1 do
        match P.decode_request (String.sub line 0 len) with
        | Error (_, { P.kind = P.Bad_request; _ }) -> ()
        | Error (_, e) ->
          Alcotest.failf "truncation of %s at %d: wrong kind %s" line len
            (P.err_kind_to_string e.P.kind)
        | Ok _ -> Alcotest.failf "truncation of %s at %d decoded" line len
      done)
    sample_requests

let gen_junk =
  QCheck2.Gen.(
    oneof
      [
        string_size ~gen:printable (int_range 0 80);
        (* json-flavoured junk hits the deeper decode paths *)
        map
          (fun (k, v) -> Printf.sprintf {|{"v":"pm2-ctl/1","id":1,"req":%S,%S:%d}|} k k v)
          (pair (string_size ~gen:printable (int_range 0 8)) (int_range (-5) 5));
      ])

let prop_fuzz_never_raises =
  QCheck2.Test.make ~count:2000 ~name:"protocol decode is total on junk" gen_junk
    (fun s ->
      (match P.decode_request s with Ok _ -> () | Error (_, e) -> ignore e.P.msg);
      (match P.decode_frame s with Ok _ -> () | Error e -> ignore e.P.msg);
      true)

(* -- the session control plane -- *)

let drive session =
  match Session.run session with
  | Ok t -> t
  | Error e -> Alcotest.failf "run failed: %s" (Session.error_to_string e)

let test_session_drive_and_query () =
  let s = session () in
  Alcotest.(check int) "nodes" 2 (Session.nodes s);
  Alcotest.(check bool) "entries listed" true (List.mem "pingpong" (Session.entries s));
  (match Session.submit s { Session.entry = "pingpong"; arg = 4; node = 0 } with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "submit: %s" (Session.error_to_string e));
  let t = drive s in
  Alcotest.(check bool) "time advanced" true (t > 0.);
  Alcotest.(check int) "quiescent" 0 (Session.pending_events s);
  Alcotest.(check int) "all exited" 0 (Session.live_threads s);
  let tis = Session.query_threads s in
  Alcotest.(check bool) "threads listed" true (List.length tis >= 1);
  List.iter
    (fun ti -> Alcotest.(check string) "exited" "exited" ti.Session.ti_state)
    tis;
  let st = Session.status s in
  Alcotest.(check bool) "migrations happened" true (st.Session.st_migrations >= 1);
  Alcotest.(check bool) "mean latency present" true (st.Session.st_mean_latency <> None)

let test_session_typed_errors () =
  let s = session () in
  let err name got want =
    Alcotest.(check string) name want
      (match got with Ok _ -> "ok" | Error e -> (
        match (e : Session.error) with
        | Session.Bad_request _ -> "bad_request"
        | Session.Unknown_entry _ -> "unknown_entry"
        | Session.Unknown_thread _ -> "unknown_thread"
        | Session.Bad_node _ -> "bad_node"
        | Session.Rejected _ -> "rejected"
        | Session.Unsupported _ -> "unsupported"
        | Session.Shutting_down -> "shutting_down"
        | Session.Runtime _ -> "runtime"))
  in
  err "unknown entry"
    (Session.submit s { Session.entry = "nope"; arg = 0; node = 0 })
    "unknown_entry";
  err "bad node" (Session.submit s { Session.entry = "pingpong"; arg = 0; node = 9 }) "bad_node";
  err "unknown thread" (Session.migrate s ~tid:999 ~dest:1) "unknown_thread";
  err "bad dest" (Session.migrate s ~tid:0 ~dest:9) "bad_node";
  (* no enabled plan at creation: runtime injection unsupported *)
  err "inject without plan" (Session.inject_faults s (spec_of "loss=0.1")) "unsupported";
  (match Session.balance s ~policy:Balancer.Least_loaded () with
   | Ok () -> ()
   | Error e -> Alcotest.failf "balance: %s" (Session.error_to_string e));
  err "second balancer" (Session.balance s ~policy:Balancer.Least_loaded ()) "bad_request";
  Session.shutdown s;
  Alcotest.(check bool) "closed" true (Session.closed s);
  err "submit after shutdown"
    (Session.submit s { Session.entry = "pingpong"; arg = 0; node = 0 })
    "shutting_down";
  (* queries still answer: a front end can render its final report *)
  ignore (Session.status s);
  ignore (Session.query_threads s)

let test_session_inject_faults () =
  let s = session ~faults:(Plan.create ~seed:7 Plan.default_spec) () in
  (match Session.inject_faults s (spec_of "loss=0.1,delay=25") with
   | Ok () -> ()
   | Error e -> Alcotest.failf "inject: %s" (Session.error_to_string e));
  Alcotest.(check string) "plan retargeted" "loss=0.1,delay=25"
    (Plan.spec_to_string (Plan.spec (Cluster.faults (Session.cluster s))));
  (match Session.inject_faults s (spec_of "crash=1@5000") with
   | Error (Session.Unsupported _) -> ()
   | _ -> Alcotest.fail "runtime crash injection must be refused")

(* The status [aborted] field counts the threads an aborted migration
   handed back, with delta migration on as with it off. *)
let test_session_status_counts_aborts () =
  let config =
    { (Cluster.default_config ~nodes:2) with Cluster.delta_cache_bytes = 4 * 1024 * 1024 }
  in
  let s = Session.create ~config ~program () in
  let tid =
    match Session.submit s { Session.entry = "pingpong"; arg = 1; node = 0 } with
    | Ok tid -> tid
    | Error e -> Alcotest.failf "submit: %s" (Session.error_to_string e)
  in
  (* a page of the thread's stack slot range already mapped at the
     destination: the probe is rejected and the thread resumes at home *)
  let th = Cluster.thread (Session.cluster s) tid in
  Pm2_vmem.Address_space.mmap
    (Cluster.node_space (Session.cluster s) 1)
    ~addr:th.Pm2_core.Thread.stack_slot ~size:Pm2_vmem.Layout.page_size;
  ignore (drive s);
  match P.apply s P.Query_status with
  | Ok (P.Status st) -> Alcotest.(check bool) "aborted >= 1" true (st.P.s_aborted >= 1)
  | _ -> Alcotest.fail "status: wrong reply"

(* two subscribers, one driver: identical fan-out, independent detach *)
let test_session_multi_client () =
  let s = session () in
  let a = ref 0 and b = ref 0 in
  let sub_a = Session.subscribe s (fun ~time:_ ~node:_ _ -> incr a) in
  let sub_b = Session.subscribe s (fun ~time:_ ~node:_ _ -> incr b) in
  (match Session.submit s { Session.entry = "fig7"; arg = 110; node = 0 } with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "submit: %s" (Session.error_to_string e));
  ignore (drive s);
  Alcotest.(check bool) "events flowed" true (!a > 0);
  Alcotest.(check int) "both subscribers saw every event" !a !b;
  Session.unsubscribe s sub_b;
  let a0 = !a and b0 = !b in
  (match Session.submit s { Session.entry = "pingpong"; arg = 2; node = 0 } with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "submit: %s" (Session.error_to_string e));
  ignore (drive s);
  Alcotest.(check bool) "live subscriber still fed" true (!a > a0);
  Alcotest.(check int) "detached subscriber frozen" b0 !b;
  Session.unsubscribe s sub_a;
  (* the driver's virtual outputs are unaffected by observers *)
  let plain = session () in
  ignore (Session.submit plain { Session.entry = "fig7"; arg = 110; node = 0 });
  ignore (drive plain);
  ignore (Session.submit plain { Session.entry = "pingpong"; arg = 2; node = 0 });
  ignore (drive plain);
  Alcotest.(check bool) "guest printed" true (Session.output plain ~timed:true <> []);
  Alcotest.(check (list string)) "byte-identical guest output"
    (Session.output plain ~timed:true) (Session.output s ~timed:true)

(* -- apply: the shared dispatcher behaves like the session -- *)

let test_apply_dispatch () =
  let s = session () in
  (match P.apply ~server:"test" s P.Hello with
   | Ok (P.Welcome { proto; server; nodes; _ }) ->
     Alcotest.(check string) "proto" P.version proto;
     Alcotest.(check string) "server" "test" server;
     Alcotest.(check int) "nodes" 2 nodes
   | r -> Alcotest.failf "hello: %s" (kind r));
  let tid =
    match P.apply s (P.Submit { Session.entry = "pingpong"; arg = 4; node = 0 }) with
    | Ok (P.Submitted { tid }) -> tid
    | r -> Alcotest.failf "submit: %s" (kind r)
  in
  (match P.apply s (P.Run { until = None }) with
   | Ok (P.Ran { live = 0; _ }) -> ()
   | r -> Alcotest.failf "run: %s" (kind r));
  (match P.apply s (P.Migrate { tid; dest = 1 }) with
   | Error { P.kind = P.Rejected; _ } -> () (* already exited *)
   | r -> Alcotest.failf "migrate exited thread: %s" (kind r));
  (match P.apply s P.Query_metrics with
   | Ok (P.Metrics (Json.Obj _)) -> ()
   | r -> Alcotest.failf "metrics: %s" (kind r));
  (match P.apply s P.Subscribe with
   | Error { P.kind = P.Unsupported; _ } -> () (* needs a push channel *)
   | r -> Alcotest.failf "subscribe via apply: %s" (kind r));
  (match P.apply s P.Shutdown with
   | Ok P.Bye -> ()
   | r -> Alcotest.failf "shutdown: %s" (kind r));
  (match P.apply s (P.Submit { Session.entry = "pingpong"; arg = 0; node = 0 }) with
   | Error { P.kind = P.Shutting_down; _ } -> ()
   | r -> Alcotest.failf "submit after bye: %s" (kind r))

let tests =
  [
    Alcotest.test_case "golden frames" `Quick test_golden_frames;
    Alcotest.test_case "request codec round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "reply codec round-trip" `Quick test_reply_roundtrip;
    Alcotest.test_case "malformed frames are typed Bad_request" `Quick
      test_malformed_frames;
    Alcotest.test_case "truncated frames are typed Bad_request" `Quick
      test_truncated_frames;
    QCheck_alcotest.to_alcotest prop_fuzz_never_raises;
    Alcotest.test_case "session: drive and query" `Quick test_session_drive_and_query;
    Alcotest.test_case "session: typed error channel" `Quick test_session_typed_errors;
    Alcotest.test_case "session: status counts delta-on aborts" `Quick
      test_session_status_counts_aborts;
    Alcotest.test_case "session: runtime fault injection" `Quick
      test_session_inject_faults;
    Alcotest.test_case "session: two subscribers, one driver" `Quick
      test_session_multi_client;
    Alcotest.test_case "apply: shared dispatcher" `Quick test_apply_dispatch;
  ]

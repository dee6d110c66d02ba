(* The fault-injection subsystem and the failure-hardened paths on top
   of it: spec grammar, deterministic routing, reliable delivery under
   loss / corruption / dead peers, migration abort→rollback→local-resume
   through the group pipeline (a lone thread is a group of one) and its
   abort hook, negotiation leases, and the end-to-end
   guarantee that a seeded fault load changes no guest-visible output. *)

module Engine = Pm2_sim.Engine
module Cm = Pm2_sim.Cost_model
module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout
module Plan = Pm2_fault.Plan
module Network = Pm2_net.Network
module Reliable = Pm2_net.Reliable
open Pm2_core

let program = Pm2_programs.Figures.image ()

let spec_of s =
  match Plan.spec_of_string s with
  | Ok sp -> sp
  | Error e -> Alcotest.failf "spec %S rejected: %s" s e

(* -- the --faults grammar -- *)

let test_spec_parse () =
  let sp = spec_of "loss=0.1,dup=0.01,kill=2@5000" in
  Alcotest.(check (float 0.)) "loss" 0.1 sp.Plan.loss;
  Alcotest.(check (float 0.)) "dup" 0.01 sp.Plan.dup;
  (match sp.Plan.kills with
   | [ { Plan.victim = 2; at = 5000.; restart = None } ] -> ()
   | _ -> Alcotest.fail "kill=2@5000 parsed wrong");
  (match (spec_of "kill=1@100-200").Plan.kills with
   | [ { Plan.victim = 1; at = 100.; restart = Some 200. } ] -> ()
   | _ -> Alcotest.fail "kill with restart parsed wrong");
  (match (spec_of "part=0-1@10-20").Plan.partitions with
   | [ { Plan.pa = 0; pb = 1; from_t = 10.; until_t = 20. } ] -> ()
   | _ -> Alcotest.fail "part parsed wrong");
  Alcotest.(check bool) "empty spec is default" true (spec_of "" = Plan.default_spec)

let test_spec_errors () =
  let rejected s =
    match Plan.spec_of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "probability > 1" true (rejected "loss=1.5");
  Alcotest.(check bool) "not a number" true (rejected "loss=high");
  Alcotest.(check bool) "unknown key" true (rejected "fire=1");
  Alcotest.(check bool) "bare word" true (rejected "chaos");
  Alcotest.(check bool) "restart before kill" true (rejected "kill=1@200-100");
  Alcotest.(check bool) "empty partition window" true (rejected "part=0-1@20-20")

let test_spec_roundtrip () =
  let s = "loss=0.2,dup=0.05,corrupt=0.01,reorder=0.1,delay=40,part=0-2@10-90,kill=1@500-900" in
  let sp = spec_of s in
  let sp' = spec_of (Plan.spec_to_string sp) in
  Alcotest.(check bool) "canonical form parses back to itself" true (sp = sp')

(* -- deterministic routing -- *)

let test_route_determinism () =
  let sp = spec_of "loss=0.3,dup=0.1,corrupt=0.05,reorder=0.1,delay=25" in
  let draws plan =
    List.init 300 (fun i -> Plan.route plan ~now:(float_of_int i) ~src:(i mod 3) ~dst:2)
  in
  Alcotest.(check bool) "same seed, same fate for every message" true
    (draws (Plan.create ~seed:9 sp) = draws (Plan.create ~seed:9 sp));
  Alcotest.(check bool) "different seed diverges" true
    (draws (Plan.create ~seed:9 sp) <> draws (Plan.create ~seed:10 sp))

let test_route_partitions_and_kills () =
  let plan = Plan.create ~seed:1 (spec_of "part=0-1@10-20,kill=2@50-60") in
  let dropped r = match r with Plan.Dropped _ -> true | Plan.Deliver _ -> false in
  Alcotest.(check bool) "link severed inside the window" true
    (Plan.route plan ~now:15. ~src:0 ~dst:1 = Plan.Dropped Plan.Partitioned);
  Alcotest.(check bool) "severed both ways" true
    (Plan.route plan ~now:15. ~src:1 ~dst:0 = Plan.Dropped Plan.Partitioned);
  Alcotest.(check bool) "other links unaffected" false
    (dropped (Plan.route plan ~now:15. ~src:0 ~dst:2));
  Alcotest.(check bool) "healed after the window" false
    (dropped (Plan.route plan ~now:25. ~src:0 ~dst:1));
  Alcotest.(check bool) "dead node drops inbound" true
    (Plan.route plan ~now:55. ~src:0 ~dst:2 = Plan.Dropped (Plan.Node_down 2));
  Alcotest.(check bool) "dead node drops outbound" true
    (Plan.route plan ~now:55. ~src:2 ~dst:0 = Plan.Dropped (Plan.Node_down 2));
  Alcotest.(check bool) "alive before the kill" true (Plan.node_alive plan ~node:2 ~now:49.);
  Alcotest.(check bool) "dead inside the window" false
    (Plan.node_alive plan ~node:2 ~now:50.);
  Alcotest.(check bool) "alive after restart" true (Plan.node_alive plan ~node:2 ~now:60.);
  Alcotest.(check bool) "the disabled plan never kills" true
    (Plan.node_alive Plan.none ~node:2 ~now:55.)

(* -- reliable delivery -- *)

let make_rel spec_s ~seed =
  let e = Engine.create () in
  let net = Network.create ~faults:(Plan.create ~seed (spec_of spec_s)) e Cm.default ~nodes:3 in
  (e, Reliable.create net)

let test_reliable_under_loss () =
  let e, rel = make_rel "loss=0.3" ~seed:5 in
  let n = 200 in
  let delivered = Hashtbl.create n and failures = ref 0 in
  for i = 0 to n - 1 do
    let payload = Bytes.of_string (Printf.sprintf "msg-%04d" i) in
    Reliable.send rel ~src:0 ~dst:1 payload
      ~on_delivered:(fun b ->
        let got = Bytes.to_string b in
        Hashtbl.replace delivered got (1 + Option.value ~default:0 (Hashtbl.find_opt delivered got)))
      ~on_failed:(fun ~reason:_ -> incr failures)
  done;
  ignore (Engine.run e);
  Alcotest.(check int) "no give-ups at 30% loss" 0 !failures;
  Alcotest.(check int) "every message delivered" n (Hashtbl.length delivered);
  Hashtbl.iter
    (fun k c -> if c <> 1 then Alcotest.failf "%s delivered %d times" k c)
    delivered;
  Alcotest.(check bool) "losses actually recovered" true (Reliable.retransmits rel > 0);
  (* Per-link attribution: all traffic ran 0 -> 1, so that link carries
     every suppressed duplicate and every other link carries none. *)
  Alcotest.(check bool)
    "retransmissions produced duplicates" true
    (Reliable.link_dup_suppressed rel ~src:0 ~dst:1 > 0);
  Alcotest.(check int) "link 0->1 accounts for all duplicates"
    (Reliable.duplicates_suppressed rel)
    (Reliable.link_dup_suppressed rel ~src:0 ~dst:1);
  for s = 0 to 2 do
    for d = 0 to 2 do
      if not (s = 0 && d = 1) then
        Alcotest.(check int)
          (Printf.sprintf "link %d->%d saw no duplicates" s d)
          0
          (Reliable.link_dup_suppressed rel ~src:s ~dst:d)
    done
  done

let test_reliable_gives_up_on_dead_peer () =
  let e, rel = make_rel "kill=1@0" ~seed:5 in
  let outcome = ref "pending" in
  Reliable.send rel ~src:0 ~dst:1 (Bytes.of_string "into the void")
    ~on_delivered:(fun _ -> outcome := "delivered")
    ~on_failed:(fun ~reason:_ -> outcome := "failed");
  ignore (Engine.run e);
  Alcotest.(check string) "failure continuation ran" "failed" !outcome;
  Alcotest.(check int) "one give-up" 1 (Reliable.give_ups rel)

let test_reliable_rejects_corruption () =
  (* Every copy is corrupted: the checksum catches each one, the receiver
     never acks, and the sender eventually reports failure rather than
     delivering mutated bytes. *)
  let e, rel = make_rel "corrupt=1.0" ~seed:5 in
  let outcome = ref "pending" in
  Reliable.send rel ~src:0 ~dst:1 (Bytes.of_string "precious")
    ~on_delivered:(fun _ -> outcome := "delivered")
    ~on_failed:(fun ~reason:_ -> outcome := "failed");
  ignore (Engine.run e);
  Alcotest.(check string) "never delivered corrupt" "failed" !outcome

(* -- the reliable layer's transcript, pinned --

   One seeded plan mixing every fault kind drives interleaved messages
   and trains of 1 byte up to five fragments between three nodes: a
   self-send, a traced train, give-ups across a partition and a killed
   interface, and a crash teardown mid-run. The digest covers every
   event, every continuation (payload hash, virtual time, failure
   reason) and every counter; it was taken before messages and trains
   shared one session machine, so any drift in the protocol fails it. *)

let transcript_spec =
  "loss=0.15,dup=0.1,corrupt=0.05,reorder=0.1,delay=30,part=0-2@2000-6000,kill=1@9000-15000"

let transcript () =
  let e = Engine.create () in
  let obs = Pm2_obs.Collector.create ~now:(fun () -> Engine.now e) () in
  let ring = Pm2_obs.Ring.create ~capacity:200_000 in
  Pm2_obs.Collector.attach obs (Pm2_obs.Ring.sink ring);
  let faults = Plan.create ~seed:17 (spec_of transcript_spec) in
  let net = Network.create ~obs ~faults e Cm.default ~nodes:3 in
  let rel = Reliable.create ~obs ~max_attempts:5 net in
  Reliable.set_tracer rel (Pm2_obs.Span.create ~enabled:true obs);
  let log = Buffer.create 4096 in
  let payload i len = Bytes.init len (fun j -> Char.chr (((i * 31) + (j * 7)) land 0xff)) in
  let continuations i =
    ( (fun b ->
        Printf.bprintf log "d%d %.3f %d %d\n" i (Engine.now e) (Bytes.length b)
          (Pm2_net.Packet.checksum b)),
      fun ~reason -> Printf.bprintf log "f%d %.3f %s\n" i (Engine.now e) reason )
  in
  let msg i ~at ~src ~dst len =
    Engine.schedule e ~at (fun () ->
        let on_delivered, on_failed = continuations i in
        Reliable.send rel ~src ~dst (payload i len) ~on_delivered ~on_failed)
  in
  let train ?trace i ~at ~src ~dst len =
    Engine.schedule e ~at (fun () ->
        let on_delivered, on_failed = continuations i in
        Reliable.send_train ?trace rel ~src ~dst (payload i len) ~on_delivered ~on_failed)
  in
  let frag = 16384 in
  msg 0 ~at:0. ~src:0 ~dst:1 1;
  train 1 ~at:5. ~src:0 ~dst:1 (3 * frag);
  msg 2 ~at:10. ~src:1 ~dst:0 100;
  train 3 ~at:20. ~src:1 ~dst:2 1;
  msg 4 ~at:30. ~src:2 ~dst:2 64 (* loop-back *);
  train 5 ~at:40. ~src:2 ~dst:2 (frag + 1) (* loop-back *);
  train ~trace:(7, 3) 6 ~at:50. ~src:0 ~dst:2 ((4 * frag) + 5);
  for i = 0 to 11 do
    let at = 100. +. (float_of_int i *. 170.) in
    msg (10 + i) ~at ~src:(i mod 3) ~dst:((i + 1) mod 3) (1 + (i * 997));
    train (30 + i) ~at:(at +. 60.) ~src:((i + 2) mod 3) ~dst:(i mod 3)
      ((i * 6151) mod (5 * frag))
  done;
  (* across the 0-2 partition: these give up *)
  msg 50 ~at:2100. ~src:0 ~dst:2 200;
  train 51 ~at:2150. ~src:2 ~dst:0 (2 * frag);
  (* into and out of node 1 just before its interface dies *)
  for i = 0 to 3 do
    let at = 8700. +. (float_of_int i *. 60.) in
    train (60 + i) ~at ~src:1 ~dst:(2 * (i mod 2)) ((i + 2) * frag);
    train (70 + i) ~at:(at +. 20.) ~src:(2 * (i mod 2)) ~dst:1 ((i + 2) * frag);
    msg (80 + i) ~at:(at +. 40.) ~src:(2 * (i mod 2)) ~dst:1 (500 * (i + 1))
  done;
  let torn = ref (-1) in
  Engine.schedule e ~at:9000. (fun () -> torn := Reliable.forget_node rel ~node:1);
  msg 90 ~at:16000. ~src:1 ~dst:0 42;
  train 91 ~at:16050. ~src:0 ~dst:1 (frag + 7);
  ignore (Engine.run e);
  Alcotest.(check int) "ring kept every event" 0 (Pm2_obs.Ring.dropped ring);
  let counters = Buffer.create 256 in
  Printf.bprintf counters "torn=%d rt=%d trt=%d dups=%d gu=%d\n" !torn
    (Reliable.retransmits rel) (Reliable.train_retransmits rel)
    (Reliable.duplicates_suppressed rel) (Reliable.give_ups rel);
  for s = 0 to 2 do
    for d = 0 to 2 do
      let m, b = Network.link_stats net ~src:s ~dst:d in
      Printf.bprintf counters "%d>%d %d %d %d\n" s d
        (Reliable.link_dup_suppressed rel ~src:s ~dst:d) m b
    done
  done;
  let events = Buffer.create (1 lsl 16) in
  Pm2_obs.Ring.iter
    (fun (r : Pm2_obs.Ring.record) ->
      (* host time spent inside a span is the one field that is not virtual *)
      let r =
        match r.event with
        | Pm2_obs.Event.Span_end s ->
          { r with event = Pm2_obs.Event.Span_end { s with host_us = 0. } }
        | _ -> r
      in
      Buffer.add_string events (Marshal.to_string r [ Marshal.No_sharing ]))
    ring;
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            [ Buffer.contents events; Buffer.contents log; Buffer.contents counters ]))
  in
  (digest, rel, !torn, Pm2_obs.Ring.length ring)

let test_reliable_transcript () =
  let digest, rel, torn, events = transcript () in
  Alcotest.(check string) "transcript digest" "06d8e4e7be1f4edc7162a2c7917923ac" digest;
  (* The scenario reaches every path the digest is meant to pin. *)
  Alcotest.(check bool) "some sends gave up" true (Reliable.give_ups rel >= 2);
  Alcotest.(check bool) "some trains were resent" true (Reliable.train_retransmits rel > 0);
  Alcotest.(check bool) "messages were resent too" true
    (Reliable.retransmits rel > Reliable.train_retransmits rel);
  Alcotest.(check bool) "duplicates were suppressed" true
    (Reliable.duplicates_suppressed rel > 0);
  Alcotest.(check bool) "the teardown found sessions" true (torn > 0);
  Alcotest.(check bool) "events were recorded" true (events > 500)

let test_receipt_allocation () =
  (* A lossless live plan frames, checksums and acks every message but
     drops none, so one run is exactly one receipt. Receipt reads each
     frame where it lies: a message's payload is copied out once, and a
     train is assembled into one buffer of its exact size. *)
  let check_receipt (name, size, send) =
    let e = Engine.create () in
    let net = Network.create ~faults:(Plan.create ~seed:1 (spec_of "")) e Cm.default ~nodes:2 in
    let rel = Reliable.create net in
    let got = ref Bytes.empty in
    send rel ~src:0 ~dst:1 (Bytes.make size 'x')
      ~on_delivered:(fun b -> got := b)
      ~on_failed:(fun ~reason -> Alcotest.failf "%s: %s" name reason);
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    ignore (Engine.run e);
    let allocated = Gc.allocated_bytes () -. before in
    Alcotest.(check bytes) (name ^ ": payload") (Bytes.make size 'x') !got;
    if allocated > 1.5 *. float_of_int size then
      Alcotest.failf "%s: receipt allocated %.0f bytes (%.2fx the payload)" name allocated
        (allocated /. float_of_int size)
  in
  List.iter check_receipt
    [ ("64 KB train", 64 * 1024, Reliable.send_train ?trace:None);
      ("256 KB train", 256 * 1024, Reliable.send_train ?trace:None);
      ("64 KB message", 64 * 1024, Reliable.send) ]

(* One frame of each kind, a fragment with and without trace words. *)
let sample_frames () =
  let view = (Bytes.of_string "..payload..", 2, 7) in
  Reliable.
    [ ("RELD", Message, encode (Data { seq = 5; payload = view }));
      ("RELT", Train,
        encode (Frag { train = 3; idx = 1; nfrags = 2; payload = view; trace = None }));
      ("RELT traced", Train,
        encode (Frag { train = 4; idx = 0; nfrags = 1; payload = view; trace = Some (7, 9) }));
      ("RELA", Message, encode (Ack (Message, 5)));
      ("RELK", Train, encode (Ack (Train, 3)));
      ("HBEA", Message, encode (Heartbeat { node = 1; gen = 2 })) ]

let test_frame_decoder_fuzz () =
  (* The decoder is total: flipping any byte (all its bits) or cutting
     the frame at any length is refused, never raised on; so is any
     single-byte change to the inner region, because FNV-1a over a
     buffer changes under every single-byte change. The receive path
     never acks or delivers a refused frame. *)
  let frames = sample_frames () in
  let e = Engine.create () in
  let net = Network.create ~faults:(Plan.create ~seed:1 (spec_of "")) e Cm.default ~nodes:2 in
  let rel = Reliable.create net in
  let delivered = ref 0 in
  let receive kind b =
    Reliable.receive rel kind ~src:0 ~dst:1 ~on_delivered:(fun _ -> incr delivered) b
  in
  let refused name what b =
    match Reliable.decode b with
    | None -> ()
    | Some _ -> Alcotest.failf "%s: %s was accepted" name what
  in
  List.iter
    (fun (name, _, b) ->
      let n = Bytes.length b in
      (match Reliable.decode b with
       | Some f -> Alcotest.(check bytes) (name ^ " round-trips") b (Reliable.encode f)
       | None -> Alcotest.failf "%s: intact frame refused" name);
      for len = 0 to n - 1 do
        refused name (Printf.sprintf "a cut at %d" len) (Bytes.sub b 0 len)
      done;
      refused name "a trailing byte" (Bytes.cat b (Bytes.make 1 '\000'));
      for i = 0 to n - 1 do
        let changed mask =
          let c = Bytes.copy b in
          Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor mask));
          c
        in
        let flipped = changed 0xff in
        refused name (Printf.sprintf "a flip at %d" i) flipped;
        receive Reliable.Message flipped;
        receive Reliable.Train flipped;
        for mask = 1 to 255 do
          let c = changed mask in
          if Pm2_net.Packet.checksum c = Pm2_net.Packet.checksum b then
            Alcotest.failf "%s: FNV-1a missed byte %d ^ %d" name i mask;
          if i >= 24 then refused name (Printf.sprintf "byte %d ^ %d" i mask) c
        done
      done)
    frames;
  ignore (Engine.run e);
  Alcotest.(check int) "no refused frame delivered" 0 !delivered;
  Alcotest.(check int) "no refused frame acked" 0 (Network.messages_sent net);
  (* The intact frames through the same path: each session frame is
     delivered and acked once, and the others are not for this path. *)
  List.iter (fun (_, kind, b) -> receive kind b) frames;
  ignore (Engine.run e);
  Alcotest.(check int) "the message and the one-fragment train delivered" 2 !delivered;
  Alcotest.(check int) "and acked" 2 (Network.messages_sent net)

let test_wire_words_keep_bit_63 () =
  (* Every wire word is written sign-extended from an OCaml int, so its
     bit 63 equals its bit 62. Flipping bit 63 alone makes a word no
     packer writes: both decoders refuse it rather than drop the bit. *)
  let flip_bit_63 b ~word =
    let c = Bytes.copy b in
    let i = (8 * word) + 7 in
    Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor 0x80));
    c
  in
  List.iter
    (fun (name, _, b) ->
      List.iter
        (fun word ->
          match Reliable.decode (flip_bit_63 b ~word) with
          | None -> ()
          | Some _ -> Alcotest.failf "%s: header word %d with bit 63 flipped accepted" name word)
        [ 0; 1; 2 ])
    (sample_frames ());
  (* magic, gid, range count, then the first range's address *)
  let probe =
    Migration.encode (Migration.Probe { gid = 3; ranges = [ (0x40000, 65536) ]; trace = None })
  in
  match Migration.decode (flip_bit_63 probe ~word:3) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "GPRO: range word with bit 63 flipped accepted"

(* -- guest programs under faults -- *)

let run_faulty ?(nodes = 2) ?faults ?seed ~entry ~arg () =
  let faults =
    match faults with
    | None -> Plan.none
    | Some s -> Plan.create ?seed (spec_of s)
  in
  let config = { (Cluster.default_config ~nodes) with Cluster.faults } in
  let c = Cluster.create config program in
  ignore (Cluster.spawn c ~node:0 ~entry ~arg ());
  ignore (Cluster.run c);
  Cluster.check_invariants c;
  c

let test_guest_output_unchanged_under_loss () =
  (* fig7 prints 100+ lines around a migration; 20% loss plus duplication
     must change none of them. The @faults smoke's run, pingpong under
     loss with node 1's interface down mid-run, must finish with the
     fault-free run's output too. *)
  let lines c = Pm2_sim.Trace.lines (Cluster.trace c) in
  List.iter
    (fun (entry, arg, faults, seed) ->
      let clean = run_faulty ~entry ~arg () in
      let faulty = run_faulty ~faults ~seed ~entry ~arg () in
      let label what = Printf.sprintf "%s under %s: %s" entry faults what in
      Alcotest.(check (list string)) (label "guest-visible trace identical")
        (lines clean) (lines faulty);
      List.iter
        (fun (th : Thread.t) ->
          Alcotest.(check bool) (label "thread halted") true
            (th.Thread.state = Thread.Exited Thread.Halted))
        (Cluster.threads faulty))
    [ ("fig7", 105, "loss=0.2,dup=0.05", 11);
      ("pingpong", 8, "loss=0.2,kill=1@3000-6000", 11) ]

let test_end_to_end_determinism () =
  let timed () =
    let c =
      run_faulty ~faults:"loss=0.2,dup=0.05,delay=30" ~seed:23 ~entry:"pingpong" ~arg:6 ()
    in
    ( Pm2_sim.Trace.timed_lines (Cluster.trace c),
      Engine.now (Cluster.engine c),
      Reliable.retransmits (Cluster.reliable c) )
  in
  let a = timed () and b = timed () in
  Alcotest.(check bool) "same seed reproduces the run to the microsecond" true (a = b)

let test_migration_abort_rollback_local_resume () =
  (* The empty spec arms the hardened paths with zero fault rates;
     the collision is planted by hand: one page of the thread's stack
     slot range is already mapped at the destination, so the probe is
     rejected and the source must roll back. With delta migration on
     and no fault plan the same group-of-one pipeline runs, and the
     abort hook the balancer retries through must see every attempt
     either way. *)
  let hardened =
    { (Cluster.default_config ~nodes:2) with
      Cluster.faults = Plan.create ~seed:1 (spec_of "") }
  in
  let delta =
    { (Cluster.default_config ~nodes:2) with Cluster.delta_cache_bytes = 4 * 1024 * 1024 }
  in
  List.iter
    (fun (name, config) ->
      let label what = Printf.sprintf "%s: %s" name what in
      let c = Cluster.create config program in
      let th = Cluster.spawn c ~node:0 ~entry:"pingpong" ~arg:3 () in
      As.mmap (Cluster.node_space c 1) ~addr:th.Thread.stack_slot ~size:Layout.page_size;
      let calls = ref [] in
      Cluster.set_migration_abort_handler c (fun th ~failed ->
          calls := (th.Thread.id, failed) :: !calls);
      ignore (Cluster.run c);
      Alcotest.(check bool) (label "thread completed") true
        (th.Thread.state = Thread.Exited Thread.Halted);
      Alcotest.(check int) (label "resumed locally on its source") 0 th.Thread.node;
      Alcotest.(check int) (label "every attempt aborted") 3 (Cluster.aborted_migrations c);
      Alcotest.(check int) (label "each attempt was a group of one") 3
        (Cluster.aborted_groups c);
      Alcotest.(check (list (pair int int))) (label "hook ran per attempt, failed = 1")
        (List.init 3 (fun _ -> (th.Thread.id, 1)))
        !calls;
      Alcotest.(check int) (label "no migration completed") 0
        (List.length (Cluster.migrations c));
      Cluster.check_invariants c)
    [ ("fault plan", hardened); ("delta on", delta) ]

let test_migration_aborts_to_dead_destination () =
  (* Node 1 is dead from the start: the probe exhausts its retransmission
     budget, the migration aborts before anything was unmapped, and the
     thread finishes at home. *)
  let c = run_faulty ~faults:"kill=1@0" ~seed:2 ~entry:"pingpong" ~arg:1 () in
  let th = List.hd (Cluster.threads c) in
  Alcotest.(check bool) "thread completed" true
    (th.Thread.state = Thread.Exited Thread.Halted);
  Alcotest.(check int) "finished at home" 0 th.Thread.node;
  Alcotest.(check int) "abort recorded" 1 (Cluster.aborted_migrations c);
  Alcotest.(check int) "one group of one aborted" 1 (Cluster.aborted_groups c);
  Alcotest.(check bool) "probe gave up" true
    (Reliable.give_ups (Cluster.reliable c) >= 1)

let test_relocating_hop_under_faults () =
  (* The relocating scheme always takes the direct hop. Under a live plan
     its image rides the reliable layer: loss only delays the hop, and a
     dead destination hands the thread back to its source, where it
     resumes as an aborted migration. *)
  let relocating faults ~seed =
    let config =
      { (Cluster.default_config ~nodes:2) with
        Cluster.scheme = Cluster.Relocating;
        faults = Plan.create ~seed (spec_of faults) }
    in
    let c = Cluster.create config program in
    let hooked = ref [] in
    Cluster.set_migration_abort_handler c (fun th ~failed ->
        hooked := (th.Thread.id, failed) :: !hooked);
    let th = Cluster.spawn c ~node:0 ~entry:"pingpong" ~arg:4 () in
    ignore (Cluster.run c);
    Cluster.check_invariants c;
    let label what = Printf.sprintf "%s seed %d: %s" faults seed what in
    Alcotest.(check int) (label "quiesced") 0 (Cluster.live_threads c);
    List.iter
      (fun (th : Thread.t) ->
        Alcotest.(check bool) (label "no thread left migrating") false
          (th.Thread.state = Thread.Migrating))
      (Cluster.threads c);
    Alcotest.(check bool) (label "thread halted") true
      (th.Thread.state = Thread.Exited Thread.Halted);
    (c, th, label, !hooked)
  in
  for seed = 1 to 10 do
    let c, _, label, _ = relocating "loss=0.5" ~seed in
    Alcotest.(check int) (label "every hop landed") 8 (List.length (Cluster.migrations c));
    Alcotest.(check int) (label "none aborted") 0 (Cluster.aborted_migrations c)
  done;
  let c, th, label, hooked = relocating "kill=1@0" ~seed:1 in
  Alcotest.(check int) (label "no hop landed") 0 (List.length (Cluster.migrations c));
  Alcotest.(check int) (label "finished at home") 0 th.Thread.node;
  (* every hop out to node 1 gives up; the hops home are no-ops *)
  Alcotest.(check int) (label "each image gave up") 4 (Reliable.give_ups (Cluster.reliable c));
  Alcotest.(check int) (label "each give-up aborted") 4 (Cluster.aborted_migrations c);
  Alcotest.(check (list (pair int int))) (label "hook ran per abort, failed = 1")
    (List.init 4 (fun _ -> (th.Thread.id, 1)))
    hooked

let test_negotiation_lease_expires () =
  (* Requester 0's interface dies inside its critical-section window: the
     negotiation aborts with no ownership change and the system-wide lock
     frees at death + lease, so a surviving requester gets through. *)
  let faults = Plan.create ~seed:3 (spec_of "kill=0@100") in
  let config = { (Cluster.default_config ~nodes:2) with Cluster.faults } in
  let c = Cluster.create config program in
  let neg = Cluster.negotiation c in
  (match Negotiation.execute neg ~requester:0 ~n:1 with
   | Ok _ -> Alcotest.fail "expected the negotiation to abort"
   | Error (Negotiation.Out_of_slots _) -> Alcotest.fail "expected Aborted, got Out_of_slots"
   | Error (Negotiation.Aborted { lease_until; duration }) ->
     Alcotest.(check (float 1e-6)) "lock frees at death + lease"
       (100. +. Negotiation.lease neg) lease_until;
     Alcotest.(check (float 1e-6)) "blocked until the lease expires"
       (100. +. Negotiation.lease neg) duration);
  Alcotest.(check int) "abort counted" 1 (Negotiation.aborted neg);
  Negotiation.check_global_invariant neg;
  let g2 = Negotiation.execute_exn neg ~requester:1 ~n:1 in
  Alcotest.(check bool) "survivor served after the lease" true (g2.Negotiation.start >= 0);
  Negotiation.check_global_invariant neg

let test_acceptance_loss_and_kill () =
  (* The issue's acceptance scenario: a balanced irregular workload on 3
     nodes under 15% loss with one mid-run interface kill (and restart).
     Every thread must finish normally — none lost, none duplicated — and
     the cross-node invariants must hold at the end. *)
  let faults = Plan.create ~seed:7 (spec_of "loss=0.15,kill=2@2000-5000") in
  let config = { (Cluster.default_config ~nodes:3) with Cluster.faults } in
  let c = Cluster.create config program in
  let m = Pm2_obs.Metrics.create () in
  Pm2_obs.Collector.attach (Cluster.obs c) (Pm2_obs.Metrics.sink m);
  ignore (Cluster.spawn c ~node:0 ~entry:"spawner" ~arg:9 ());
  let _ = Pm2_loadbal.Balancer.attach c ~policy:Pm2_loadbal.Balancer.Least_loaded
      ~period:400. in
  ignore (Cluster.run c);
  Alcotest.(check int) "no thread stranded" 0 (Cluster.live_threads c);
  let all = Cluster.threads c in
  Alcotest.(check int) "spawner + 9 workers" 10 (List.length all);
  List.iter
    (fun (th : Thread.t) ->
       if th.Thread.state <> Thread.Exited Thread.Halted then
         Alcotest.failf "thread %d did not halt normally" th.Thread.id)
    all;
  let ids = List.sort_uniq compare (List.map (fun (th : Thread.t) -> th.Thread.id) all) in
  Alcotest.(check int) "no thread duplicated" 10 (List.length ids);
  Alcotest.(check int) "kill marker in metrics" 1 (Pm2_obs.Metrics.total_counter m "node.kill");
  Alcotest.(check int) "restart marker in metrics" 1
    (Pm2_obs.Metrics.total_counter m "node.restart");
  Alcotest.(check bool) "losses were injected" true
    ((Plan.stats faults).Plan.dropped > 0);
  Cluster.check_invariants c

(* -- property: any well-formed spec survives the wire round-trip --
   (the grammar is now a wire format: inject-faults carries specs as
   strings, so to_string/of_string must be mutually inverse) *)

let gen_spec =
  let open QCheck2.Gen in
  (* %.12g rendering: three decimal digits round-trip exactly *)
  let prob = map (fun i -> float_of_int i /. 1000.) (int_range 0 1000) in
  let time = map float_of_int (int_range 0 100_000) in
  let node = int_range 0 5 in
  let outage ~min_gap =
    let* victim = node in
    let* at = time in
    let* restart =
      oneof
        [ return None;
          map (fun d -> Some (at +. float_of_int d)) (int_range min_gap 5000) ]
    in
    return { Plan.victim; at; restart }
  in
  let part =
    let* pa = node in
    let* pb = node in
    let* from_t = time in
    let* d = int_range 1 5000 in
    return { Plan.pa; pb; from_t; until_t = from_t +. float_of_int d }
  in
  let* loss = prob in
  let* dup = prob in
  let* corrupt = prob in
  let* reorder = prob in
  let* delay = time in
  let* partitions = list_size (int_range 0 3) part in
  (* kill windows may be degenerate (T1 = T0); crash restarts must be
     strictly later *)
  let* kills = list_size (int_range 0 3) (outage ~min_gap:0) in
  let* crashes = list_size (int_range 0 3) (outage ~min_gap:1) in
  return { Plan.loss; dup; corrupt; reorder; delay; partitions; kills; crashes }

let prop_spec_wire_roundtrip =
  QCheck2.Test.make ~count:500
    ~name:"Plan spec grammar: of_string (to_string sp) = sp" gen_spec (fun sp ->
      match Plan.spec_of_string (Plan.spec_to_string sp) with
      | Ok sp' -> sp' = sp
      | Error e -> QCheck2.Test.fail_reportf "rejected own rendering: %s" e)

let tests =
  [
    Alcotest.test_case "spec grammar" `Quick test_spec_parse;
    Alcotest.test_case "spec errors" `Quick test_spec_errors;
    Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
    QCheck_alcotest.to_alcotest prop_spec_wire_roundtrip;
    Alcotest.test_case "seeded routing is deterministic" `Quick test_route_determinism;
    Alcotest.test_case "partitions and kills" `Quick test_route_partitions_and_kills;
    Alcotest.test_case "reliable: exactly-once under 30% loss" `Quick
      test_reliable_under_loss;
    Alcotest.test_case "reliable: give-up on dead peer" `Quick
      test_reliable_gives_up_on_dead_peer;
    Alcotest.test_case "reliable: corruption never delivered" `Quick
      test_reliable_rejects_corruption;
    Alcotest.test_case "guest output unchanged under loss" `Quick
      test_guest_output_unchanged_under_loss;
    Alcotest.test_case "end-to-end determinism" `Quick test_end_to_end_determinism;
    Alcotest.test_case "migration abort, rollback, local resume" `Quick
      test_migration_abort_rollback_local_resume;
    Alcotest.test_case "migration to dead node aborts" `Quick
      test_migration_aborts_to_dead_destination;
    Alcotest.test_case "negotiation lease expiry" `Quick test_negotiation_lease_expires;
    Alcotest.test_case "acceptance: loss + mid-run kill" `Quick
      test_acceptance_loss_and_kill;
    Alcotest.test_case "reliable: transcript pinned" `Quick test_reliable_transcript;
    Alcotest.test_case "reliable: receipt reads frames in place" `Quick
      test_receipt_allocation;
    Alcotest.test_case "relocating hop under faults" `Quick
      test_relocating_hop_under_faults;
    Alcotest.test_case "reliable: frame decoder fuzz" `Quick test_frame_decoder_fuzz;
    Alcotest.test_case "wire words keep bit 63" `Quick test_wire_words_keep_bit_63;
  ]

(* The observability subsystem: collector semantics, sink behaviour, the
   migration phase timeline, and the Chrome trace_event exporter. *)

module Obs = Pm2_obs
module Engine = Pm2_sim.Engine
open Pm2_core

let empty_program = Pm2.build (fun _ -> ())

let cluster () = Cluster.create (Cluster.default_config ~nodes:2) empty_program

(* A thread holding a data slot in addition to its stack slot. *)
let two_slot_thread c =
  let th = Cluster.host_thread c ~node:0 in
  ignore (Option.get (Iso_heap.isomalloc (Cluster.host_env c 0) th 256));
  Alcotest.(check int) "two-slot thread" 2
    (List.length (Iso_heap.slot_list (Cluster.host_env c 0) th));
  th

let attach_ring c =
  let ring = Obs.Ring.create ~capacity:65536 in
  Obs.Collector.attach (Cluster.obs c) (Obs.Ring.sink ring);
  ring

(* -- collector -- *)

let test_stamps_match_virtual_time () =
  let engine = Engine.create () in
  let obs = Obs.Collector.create ~now:(fun () -> Engine.now engine) () in
  let ring = Obs.Ring.create ~capacity:16 in
  Obs.Collector.attach obs (Obs.Ring.sink ring);
  (* Emissions scheduled out of order arrive stamped with the virtual
     instant the engine delivered them at. *)
  List.iter
    (fun at ->
       Engine.schedule engine ~at (fun () ->
           Obs.Collector.emit obs ~node:0
             (Obs.Event.Thread_printf { tid = 1; text = "tick" })))
    [ 30.; 10.; 20. ];
  ignore (Engine.run engine);
  Alcotest.(check (list (float 1e-9)))
    "stamps = virtual delivery times" [ 10.; 20.; 30. ]
    (List.map (fun r -> r.Obs.Ring.time) (Obs.Ring.to_list ring));
  Alcotest.(check int) "emitted counter" 3 (Obs.Collector.emitted obs)

let test_cluster_events_time_ordered () =
  let program = Pm2_programs.Figures.image () in
  let c = Cluster.create (Cluster.default_config ~nodes:2) program in
  let ring = attach_ring c in
  ignore (Cluster.spawn c ~node:0 ~entry:"pingpong" ~arg:4 ());
  ignore (Cluster.run c);
  let ts = List.map (fun r -> r.Obs.Ring.time) (Obs.Ring.to_list ring) in
  Alcotest.(check bool) "events recorded" true (List.length ts > 10);
  Alcotest.(check int) "nothing dropped" 0 (Obs.Ring.dropped ring);
  Alcotest.(check (list (float 1e-9))) "stamps non-decreasing" (List.sort compare ts) ts

let test_disabled_collector_emits_nothing () =
  let c = cluster () in
  let th = two_slot_thread c in
  let ring = attach_ring c in
  Obs.Collector.set_enabled (Cluster.obs c) false;
  Cluster.host_migrate c th ~dest:1;
  Iso_heap.isofree (Cluster.host_env c 1) th
    (List.hd (Iso_heap.live_blocks (Cluster.host_env c 1) th));
  Alcotest.(check int) "ring empty" 0 (Obs.Ring.length ring);
  (* The null collector shared by default arguments is permanently off. *)
  Alcotest.(check bool) "null disabled" false (Obs.Collector.enabled Obs.Collector.null);
  Obs.Collector.emit Obs.Collector.null ~node:0
    (Obs.Event.Slot_reserve { slot = 0; n = 1; cache_hit = false });
  Alcotest.(check int) "null swallows" 0 (Obs.Collector.emitted Obs.Collector.null)

let test_ring_overwrites_oldest () =
  let ring = Obs.Ring.create ~capacity:2 in
  let push i =
    Obs.Ring.push ring ~time:(float_of_int i) ~node:0
      (Obs.Event.Thread_printf { tid = i; text = "" })
  in
  List.iter push [ 1; 2; 3 ];
  Alcotest.(check int) "bounded" 2 (Obs.Ring.length ring);
  Alcotest.(check int) "one dropped" 1 (Obs.Ring.dropped ring);
  Alcotest.(check (list (float 1e-9))) "oldest gone" [ 2.; 3. ]
    (List.map (fun r -> r.Obs.Ring.time) (Obs.Ring.to_list ring))

(* Capacity boundaries: 0 (drop everything), 1 (keep only the newest),
   exact fill (keep everything), and wraparound past several multiples
   of the capacity. *)
let test_ring_capacity_boundaries () =
  let push r i =
    Obs.Ring.push r ~time:(float_of_int i) ~node:0
      (Obs.Event.Thread_printf { tid = i; text = "" })
  in
  let times r = List.map (fun x -> x.Obs.Ring.time) (Obs.Ring.to_list r) in
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Ring.create: capacity < 0") (fun () ->
        ignore (Obs.Ring.create ~capacity:(-1)));
  (* capacity 0: legal, holds nothing, counts every push as dropped *)
  let r0 = Obs.Ring.create ~capacity:0 in
  List.iter (push r0) [ 1; 2; 3 ];
  Alcotest.(check int) "cap-0 empty" 0 (Obs.Ring.length r0);
  Alcotest.(check int) "cap-0 drops all" 3 (Obs.Ring.dropped r0);
  Alcotest.(check (list (float 1e-9))) "cap-0 lists nothing" [] (times r0);
  (* capacity 1: always exactly the newest record *)
  let r1 = Obs.Ring.create ~capacity:1 in
  List.iter (push r1) [ 1; 2; 3 ];
  Alcotest.(check int) "cap-1 length" 1 (Obs.Ring.length r1);
  Alcotest.(check int) "cap-1 dropped" 2 (Obs.Ring.dropped r1);
  Alcotest.(check (list (float 1e-9))) "cap-1 newest" [ 3. ] (times r1);
  (* exact fill: nothing dropped, order preserved *)
  let r4 = Obs.Ring.create ~capacity:4 in
  List.iter (push r4) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "full length" 4 (Obs.Ring.length r4);
  Alcotest.(check int) "full keeps all" 0 (Obs.Ring.dropped r4);
  Alcotest.(check (list (float 1e-9))) "full in order" [ 1.; 2.; 3.; 4. ] (times r4);
  (* wraparound across several multiples of the capacity *)
  for i = 5 to 11 do
    push r4 i
  done;
  Alcotest.(check int) "still bounded" 4 (Obs.Ring.length r4);
  Alcotest.(check int) "wraparound drops" 7 (Obs.Ring.dropped r4);
  Alcotest.(check (list (float 1e-9))) "last window, oldest first"
    [ 8.; 9.; 10.; 11. ] (times r4);
  Obs.Ring.clear r4;
  Alcotest.(check int) "clear empties" 0 (Obs.Ring.length r4);
  Alcotest.(check int) "clear resets dropped" 0 (Obs.Ring.dropped r4)

(* -- the migration phase timeline -- *)

let migration_phases ring =
  List.filter_map
    (fun r ->
       match r.Obs.Ring.event with
       | Obs.Event.Migration_phase { tid; phase; bytes; slots; dur } ->
         Some (r.Obs.Ring.time, tid, phase, bytes, slots, dur)
       | _ -> None)
    (Obs.Ring.to_list ring)

let check_phase_sequence ~tid ~wire_bytes ~slots:expect_slots phases =
  match phases with
  | [
    (t1, id1, Obs.Event.Pack, b1, s1, d1);
    (t2, id2, Obs.Event.Send, b2, s2, d2);
    (t3, id3, Obs.Event.Remap, b3, s3, d3);
    (t4, id4, Obs.Event.Restart, b4, s4, d4);
  ] ->
    List.iter (fun id -> Alcotest.(check int) "phase tid" tid id) [ id1; id2; id3; id4 ];
    List.iter
      (fun b -> Alcotest.(check int) "phase bytes = wire image" wire_bytes b)
      [ b1; b2; b3; b4 ];
    List.iter
      (fun s -> Alcotest.(check int) "phase slots" expect_slots s)
      [ s1; s2; s3; s4 ];
    (* The spans tile the migration: each phase starts where the previous
       one ends, and restart is an instant. *)
    Alcotest.(check (float 1e-6)) "send starts at pack end" (t1 +. d1) t2;
    Alcotest.(check (float 1e-6)) "remap starts at send end" (t2 +. d2) t3;
    Alcotest.(check (float 1e-6)) "restart at remap end" (t3 +. d3) t4;
    Alcotest.(check (float 1e-9)) "restart instantaneous" 0. d4;
    Alcotest.(check bool) "pack and remap cost time" true (d1 > 0. && d3 > 0.)
  | l -> Alcotest.failf "expected pack/send/remap/restart, got %d phases" (List.length l)

let test_host_migration_phase_events () =
  let c = cluster () in
  let th = two_slot_thread c in
  let ring = attach_ring c in
  Cluster.host_migrate c th ~dest:1;
  let m = List.hd (Cluster.migrations c) in
  check_phase_sequence ~tid:th.Thread.id ~wire_bytes:m.Cluster.bytes ~slots:2
    (migration_phases ring);
  (* One pack + one unpack event per slot, with plausible wire shares. *)
  let slot_bytes ctor =
    List.filter_map
      (fun r ->
         match (r.Obs.Ring.event, ctor) with
         | Obs.Event.Pack_slot { bytes; _ }, `Pack -> Some bytes
         | Obs.Event.Unpack_slot { bytes; _ }, `Unpack -> Some bytes
         | _ -> None)
      (Obs.Ring.to_list ring)
  in
  let packed = slot_bytes `Pack and unpacked = slot_bytes `Unpack in
  Alcotest.(check int) "one pack_slot per slot" 2 (List.length packed);
  Alcotest.(check int) "one unpack_slot per slot" 2 (List.length unpacked);
  let sum = List.fold_left ( + ) 0 in
  Alcotest.(check int) "pack and unpack agree" (sum packed) (sum unpacked);
  Alcotest.(check bool) "slot payloads within the wire image" true
    (sum packed > 0 && sum packed < m.Cluster.bytes)

let test_engine_migration_phase_events () =
  (* The asynchronous path (guest Sys_migrate through the scheduler and the
     modelled network) produces the same tiled four-phase timeline. *)
  let program = Pm2_programs.Figures.image () in
  let c = Cluster.create (Cluster.default_config ~nodes:2) program in
  let ring = attach_ring c in
  ignore (Cluster.spawn c ~node:0 ~entry:"pingpong" ~arg:1 ());
  ignore (Cluster.run c);
  let phases = migration_phases ring in
  let n_migr = List.length (Cluster.migrations c) in
  Alcotest.(check bool) "migrations happened" true (n_migr > 0);
  Alcotest.(check int) "four phases per migration" (4 * n_migr) (List.length phases);
  let m = List.hd (Cluster.migrations c) in
  let first_four = List.filteri (fun i _ -> i < 4) phases in
  check_phase_sequence
    ~tid:m.Cluster.tid ~wire_bytes:m.Cluster.bytes ~slots:1 first_four;
  (* The phase stamps reproduce the migration record's interval. *)
  (match (first_four, List.nth_opt first_four 3) with
   | (t_pack, _, _, _, _, _) :: _, Some (t_restart, _, _, _, _, _) ->
     Alcotest.(check (float 1e-6)) "pack at start" m.Cluster.started t_pack;
     Alcotest.(check (float 1e-6)) "restart at resume" m.Cluster.resumed t_restart
   | _ -> Alcotest.fail "missing phases")

(* -- metrics sink -- *)

let test_metrics_sink () =
  let c = cluster () in
  let th = two_slot_thread c in
  let m = Pm2_obs.Metrics.create () in
  Obs.Collector.attach (Cluster.obs c) (Obs.Metrics.sink m);
  Cluster.host_migrate c th ~dest:1;
  let wire = (List.hd (Cluster.migrations c)).Cluster.bytes in
  Alcotest.(check int) "pack counted on source" 1 (Obs.Metrics.counter m ~node:0 "migration.pack");
  Alcotest.(check int) "remap counted on destination" 1
    (Obs.Metrics.counter m ~node:1 "migration.remap");
  Alcotest.(check int) "restart counted" 1 (Obs.Metrics.total_counter m "migration.restart");
  (match Obs.Metrics.merged_histogram m "migration.bytes" with
   | None -> Alcotest.fail "no migration.bytes histogram"
   | Some h ->
     Alcotest.(check int) "one sample" 1 (Pm2_util.Stats.Histogram.count h);
     Alcotest.(check (float 1e-9)) "wire bytes observed" (float_of_int wire)
       (Pm2_util.Stats.Histogram.max_value h));
  (match Obs.Metrics.histogram m ~node:0 "migration.pack_us" with
   | None -> Alcotest.fail "no pack_us histogram"
   | Some h ->
     (match Pm2_util.Stats.Histogram.percentile h 50. with
      | Some p50 -> Alcotest.(check bool) "p50 positive" true (p50 > 0.)
      | None -> Alcotest.fail "empty pack_us histogram"));
  (* The report renders every node that recorded something. *)
  Alcotest.(check bool) "report non-empty" true
    (String.length (Obs.Metrics.report m) > 0);
  Alcotest.(check (list int)) "both nodes recorded" [ 0; 1 ] (Obs.Metrics.node_ids m)

(* -- Chrome exporter -- *)

let find_events ~name events =
  List.filter
    (fun e ->
       match Obs.Json.member "name" e with
       | Some v -> Obs.Json.to_string_val v = Some name
       | None -> false)
    events

let test_chrome_roundtrip () =
  let c = cluster () in
  let th = two_slot_thread c in
  let chrome = Obs.Chrome.create () in
  Obs.Collector.attach (Cluster.obs c) (Obs.Chrome.sink chrome);
  Cluster.host_migrate c th ~dest:1;
  let json = Obs.Json.parse_exn (Obs.Chrome.to_string chrome) in
  let events =
    Option.get (Obs.Json.to_list (Option.get (Obs.Json.member "traceEvents" json)))
  in
  Alcotest.(check bool) "trace has events" true (List.length events > 4);
  (* Every migration phase is a complete ("X") span carrying the wire size. *)
  let wire = float_of_int (List.hd (Cluster.migrations c)).Cluster.bytes in
  List.iter
    (fun phase ->
       match find_events ~name:("migrate:" ^ phase) events with
       | [ e ] ->
         Alcotest.(check (option string)) (phase ^ " is a span") (Some "X")
           (Option.bind (Obs.Json.member "ph" e) Obs.Json.to_string_val);
         let arg key =
           Option.bind (Obs.Json.member "args" e) (fun a ->
               Option.bind (Obs.Json.member key a) Obs.Json.to_float)
         in
         Alcotest.(check (option (float 1e-9))) (phase ^ " bytes") (Some wire) (arg "bytes");
         Alcotest.(check (option (float 1e-9))) (phase ^ " slots") (Some 2.) (arg "slots")
       | l -> Alcotest.failf "expected one %s span, found %d" phase (List.length l))
    [ "pack"; "send"; "remap"; "restart" ];
  (* Process-name metadata labels both nodes. *)
  Alcotest.(check int) "process_name records" 2
    (List.length (find_events ~name:"process_name" events))

let test_chrome_escaping () =
  let chrome = Obs.Chrome.create () in
  let text = "quote \" backslash \\ newline \n tab \t bell \007 done" in
  Obs.Sink.emit (Obs.Chrome.sink chrome) ~time:1. ~node:0
    (Obs.Event.Thread_printf { tid = 3; text });
  let json = Obs.Json.parse_exn (Obs.Chrome.to_string chrome) in
  let events =
    Option.get (Obs.Json.to_list (Option.get (Obs.Json.member "traceEvents" json)))
  in
  match find_events ~name:"pm2_printf" events with
  | [ e ] ->
    let got =
      Option.bind (Obs.Json.member "args" e) (fun a ->
          Option.bind (Obs.Json.member "text" a) Obs.Json.to_string_val)
    in
    Alcotest.(check (option string)) "text round-trips" (Some text) got
  | l -> Alcotest.failf "expected one printf event, found %d" (List.length l)

(* -- JSON string escaping -- *)

let test_json_escape_control_chars () =
  (* Every control byte U+0000-U+001F must come out escaped; the named
     escapes where JSON has them, \u00XX otherwise. *)
  Alcotest.(check string) "named escapes" "\\b\\t\\n\\f\\r"
    (Obs.Json.escape "\b\t\n\012\r");
  Alcotest.(check string) "NUL" "\\u0000" (Obs.Json.escape "\000");
  Alcotest.(check string) "ESC" "\\u001b" (Obs.Json.escape "\027");
  Alcotest.(check string) "quote and backslash" "\\\"\\\\"
    (Obs.Json.escape "\"\\");
  for c = 0 to 0x1f do
    let escaped = Obs.Json.escape (String.make 1 (Char.chr c)) in
    Alcotest.(check bool)
      (Printf.sprintf "U+%04x escaped" c)
      true
      (String.length escaped >= 2 && escaped.[0] = '\\')
  done;
  (* Bytes >= 0x80 are opaque payload (UTF-8 or otherwise): untouched. *)
  Alcotest.(check string) "high bytes pass through" "caf\xc3\xa9 \xff"
    (Obs.Json.escape "caf\xc3\xa9 \xff")

let test_json_escape_roundtrip () =
  let roundtrip s =
    match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Str s)) with
    | Ok (Obs.Json.Str s') -> s'
    | _ -> Alcotest.failf "string %S did not round-trip" s
  in
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (roundtrip s))
    [
      "";
      "plain";
      "\000\001\031";
      "tab\there\nnewline";
      "quote \" slash \\ end";
      "caf\xc3\xa9";
      String.init 256 Char.chr;
    ]

(* Fuzz the full byte range through escape -> serialize -> parse: the
   emitted document must always parse, and always back to the same
   bytes — including as an object key. *)
let prop_json_string_roundtrip =
  QCheck2.Test.make ~name:"json string escape/parse round-trip"
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 64))
    (fun s ->
       match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Obj [ (s, Obs.Json.Str s) ])) with
       | Ok (Obs.Json.Obj [ (k, Obs.Json.Str v) ]) -> k = s && v = s
       | _ -> false)

(* -- the reader against its reference -- *)

module Json = Obs.Json
module Json_ref = Pm2_support.Json_ref

(* Trees compare with numbers by their bits, so -0. and 0. differ. *)
let rec same_tree a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Arr xs, Json.Arr ys -> List.equal same_tree xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, v) (k', v') -> String.equal k k' && same_tree v v') xs ys
  | _ -> a = b

let same_result a b =
  match (a, b) with
  | Ok x, Ok y -> same_tree x y
  | Error x, Error y -> String.equal x y
  | _ -> false

let show_result = function Ok v -> "Ok " ^ Json.to_string v | Error e -> "Error " ^ e

let gen_num =
  QCheck2.Gen.(
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map float_of_int int;
        map (fun i -> float_of_int i /. 8.) (int_range (-100_000) 100_000);
        float;
        oneofl [ -0.; 1e15; 1e15 -. 1.; -1e15; 5e-324; max_float; 0.1; 1e-7; 1e300 ];
      ])

let gen_str = QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12))

let gen_tree =
  QCheck2.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self n ->
        let leaf =
          oneof
            [
              pure Json.Null;
              map (fun b -> Json.Bool b) bool;
              map (fun f -> Json.Num f) gen_num;
              map (fun s -> Json.Str s) gen_str;
            ]
        in
        if n = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n - 1))));
              ( 1,
                map (fun l -> Json.Obj l) (list_size (int_bound 4) (pair gen_str (self (n - 1))))
              );
            ]))

(* Fragments that reach the reader's corners when spliced in. *)
let tricky =
  [ "\\u00_4"; "\\u00e9"; "\\uD83D"; "\\u"; "\\"; "\\x"; "-0"; "1e999"; "007"; "-"; "+1";
    "1.5e+3"; "123456789012345"; "1234567890123456"; "-123456789012345"; " "; "\n\t";
    "tru"; "nul"; "fals"; "["; "]"; "{"; "}"; ":"; ","; "\""; String.make 70 '[' ]

(* A rendered tree, or one with a byte flipped, cut short or a fragment
   spliced in. *)
let gen_input =
  QCheck2.Gen.(
    let* s = map Json.to_string gen_tree in
    let n = String.length s in
    oneof
      [
        pure s;
        map2
          (fun i c -> String.mapi (fun j x -> if j = i then c else x) s)
          (int_bound (n - 1)) char;
        map (fun k -> String.sub s 0 k) (int_bound n);
        map2
          (fun i frag -> String.sub s 0 i ^ frag ^ String.sub s i (n - i))
          (int_bound n) (oneofl tricky);
      ])

let prop_reader_matches_reference =
  QCheck2.Test.make ~count:5000 ~name:"json reader agrees with the reference reader"
    ~print:String.escaped gen_input (fun s ->
      let got = Json.parse s and want = Json_ref.parse s in
      same_result got want
      || QCheck2.Test.fail_reportf "new %s, reference %s" (show_result got)
           (show_result want))

let check_both name input expected =
  List.iter
    (fun (reader, parse) ->
      let got = parse input in
      if not (same_result got expected) then
        Alcotest.failf "%s (%s): got %s, expected %s" name reader (show_result got)
          (show_result expected))
    [ ("new", Json.parse); ("reference", Json_ref.parse) ]

let test_reader_depth_cap () =
  let nest d = String.make d '[' ^ String.make d ']' in
  let rec tree d = if d = 1 then Json.Arr [] else Json.Arr [ tree (d - 1) ] in
  check_both "64 levels" (nest 64) (Ok (tree 64));
  check_both "65 levels" (nest 65) (Error "nesting deeper than 64 at offset 64");
  check_both "65 levels of objects"
    (String.concat "" (List.init 65 (fun _ -> {|{"k":|})))
    (Error "nesting deeper than 64 at offset 320");
  check_both "siblings do not add up"
    ("[" ^ String.concat "," (List.init 100 (fun _ -> nest 63)) ^ "]")
    (Ok (Json.Arr (List.init 100 (fun _ -> tree 63))))

let test_reader_unicode_escape () =
  check_both "lower-case hex" {|"\u00e9"|} (Ok (Json.Str "\xc3\xa9"));
  check_both "upper-case hex" {|"\u00E9\u20AC"|} (Ok (Json.Str "\xc3\xa9\xe2\x82\xac"));
  check_both "an underscore is not a digit" {|"\u00_4"|} (Error "bad \\u escape at offset 3");
  check_both "a sign is not a digit" {|"\u+004"|} (Error "bad \\u escape at offset 3");
  check_both "three digits" {|"\u004"|} (Error "bad \\u escape at offset 3");
  check_both "cut short" {|"\u00|} (Error "bad \\u escape at offset 3")

let test_reader_numbers () =
  let num s f = check_both s s (Ok (Json.Num f)) in
  num "0" 0.;
  num "-0" (-0.);
  num "007" 7.;
  num "999999999999999" 999999999999999.;
  num "-999999999999999" (-999999999999999.);
  num "9999999999999999" 9999999999999999.;
  num "12.5" 12.5;
  num "+3" 3.;
  num "1e3" 1000.;
  check_both "a lone sign" "-" (Error "malformed number at offset 1");
  check_both "two signs" "--1" (Error "malformed number at offset 3")

(* -- the writer's bytes -- *)

(* What the writer promises for a number: integral values below 1e15
   as [string_of_int] ("-0" for -0.), other finite ones as [%.17g],
   the rest as null. *)
let ref_num v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    if v = 0. && Float.sign_bit v then "-0" else string_of_int (int_of_float v)
  else Printf.sprintf "%.17g" v

let render write x =
  let buf = Buffer.create 32 in
  write (Json.writer buf) x;
  Buffer.contents buf

let num_edges =
  [ 0.; -0.; 1.; -1.; 0.5; 1e15 -. 1.; 1e15; 1e15 +. 1.; -.(1e15 -. 1.); -1e15;
    -.(1e15 +. 1.); 5e-324; -5e-324; 2.2250738585072009e-308; 2.2250738585072014e-308;
    max_float; -.max_float; 0.1; 1e-7; 9007199254740993.; 1e300; nan; infinity;
    neg_infinity ]

let int_edges =
  [ 0; 1; -1; 9; 10; -10; 999_999_999_999_999; 1_000_000_000_000_000;
    -999_999_999_999_999; -1_000_000_000_000_000; 999_999_999_999_999_999;
    -999_999_999_999_999_999; max_int; min_int ]

let check_num v =
  Alcotest.(check string) (Printf.sprintf "num %h" v) (ref_num v) (render Json.num v)

let check_int i =
  Alcotest.(check string)
    (Printf.sprintf "int %d" i)
    (ref_num (float_of_int i))
    (render Json.int i);
  if i > -1_000_000_000_000_000 && i < 1_000_000_000_000_000 then
    Alcotest.(check string) (Printf.sprintf "int %d" i) (string_of_int i) (render Json.int i)

let test_writer_number_edges () =
  List.iter check_num num_edges;
  List.iter check_int int_edges

let prop_writer_numbers =
  QCheck2.Test.make ~count:5000 ~name:"json writer numbers match string_of_int and %.17g"
    QCheck2.Gen.(pair gen_num int)
    (fun (v, i) ->
      render Json.num v = ref_num v
      && render Json.int i = ref_num (float_of_int i)
      && (i <= -1_000_000_000_000_000
         || i >= 1_000_000_000_000_000
         || render Json.int i = string_of_int i))

(* The one-entry memo of the last [%.17g] rendering: repeats, changes,
   returns to an older value, and the two zeros. *)
let test_writer_memo () =
  List.iter check_num
    [ 0.5; 0.5; 0.25; 0.5; 0.5; -0.; 0.; -0.; 0.1; 0.30000000000000004; 0.1; 1e300; 1e300;
      -1e300; 5e-324; -5e-324; 5e-324; 12.5; 12.5 ]

(* -- the legacy trace as a sink -- *)

let test_trace_sink_renders_printf () =
  let trace = Pm2_sim.Trace.create () in
  let sink = Pm2_sim.Trace.sink trace in
  Obs.Sink.emit sink ~time:3. ~node:0
    (Obs.Event.Thread_printf { tid = 32; text = "Hello from thread eeff0020" });
  (* Non-printf events do not leak into the guest-visible listing. *)
  Obs.Sink.emit sink ~time:4. ~node:1
    (Obs.Event.Slot_reserve { slot = 7; n = 1; cache_hit = false });
  Alcotest.(check (list string)) "paper-style listing"
    [ "[node0] Hello from thread eeff0020" ]
    (Pm2_sim.Trace.lines trace)

(* -- golden bytes for every event constructor -- *)

(* Strings that exercise every escaping rule: a quote, a backslash, named
   and \u00XX control characters, and bytes >= 0x80 (passed through). *)
let awkward = "dest \"1\" \\ down\n\t\001 caf\xc3\xa9 \xff"

(* [after ev] is the samples of the constructor declared right after
   [ev]'s, [] after the last one. The match has no wildcard, so adding a
   constructor to [Event.t] fails to compile until it gets a sample
   here; sub-kinds (heap, phase, fault, span kind) each get one too. *)
let after : Obs.Event.t -> Obs.Event.t list =
  let open Obs.Event in
  let phases = [ Pack; Send; Remap; Restart ] in
  function
  | Slot_reserve _ -> [ Slot_release { slot = 3; cached = false } ]
  | Slot_release _ -> [ Slot_transfer { slot = 9; seller = 1; buyer = 2 } ]
  | Slot_transfer _ ->
    [ Block_alloc { heap = Local; addr = 0x1000; bytes = 64 };
      Block_alloc { heap = Iso; addr = 0x8000_0000_0000; bytes = 4096 } ]
  | Block_alloc _ -> [ Block_free { heap = Iso; addr = 0x2040; bytes = 32 } ]
  | Block_free _ -> [ Block_split { heap = Local; addr = 0x2060; bytes = 96 } ]
  | Block_split _ -> [ Block_coalesce { heap = Iso; addr = 0x2000; bytes = 256 } ]
  | Block_coalesce _ ->
    List.mapi
      (fun i phase ->
         Migration_phase
           { tid = 5; phase; bytes = 4096 + i; slots = 2;
             dur = [| 12.25; -0.; 0.1; 75. |].(i) })
      phases
  | Migration_phase _ -> [ Pack_slot { tid = 5; slot = 7; bytes = 2048 } ]
  | Pack_slot _ -> [ Unpack_slot { tid = 5; slot = 7; bytes = 2048 } ]
  | Unpack_slot _ -> [ Neg_request { requester = 2; n = 3 } ]
  | Neg_request _ -> [ Neg_round { requester = 2; peer = 0; bytes = 48 } ]
  | Neg_round _ -> [ Neg_grant { requester = 2; start = 40; n = 3; bought = 1; dur = 255. } ]
  | Neg_grant _ -> [ Neg_deny { requester = 2; n = 64; dur = -0. } ]
  | Neg_deny _ -> [ Packet_send { src = 0; dst = 1; bytes = 96 } ]
  | Packet_send _ -> [ Packet_deliver { src = 0; dst = 1; bytes = 96 } ]
  | Packet_deliver _ ->
    List.map
      (fun kind -> Fault_inject { kind; src = 1; dst = 0; bytes = 32 })
      [ Drop_loss; Drop_partition; Drop_dead; Duplicate; Corrupt ]
  | Fault_inject _ -> [ Node_kill { node = 3 } ]
  | Node_kill _ -> [ Node_restart { node = 3 } ]
  | Node_restart _ ->
    [ Net_retransmit { src = 0; dst = 2; seq = 17; attempt = 2; bytes = 128 } ]
  | Net_retransmit _ -> [ Net_dup_suppress { src = 0; dst = 2; seq = 17 } ]
  | Net_dup_suppress _ -> [ Net_give_up { src = 0; dst = 2; seq = 18; attempts = 8 } ]
  | Net_give_up _ -> [ Migration_abort { tid = 5; src = 0; dst = 1; reason = awkward } ]
  | Migration_abort _ -> [ Migration_rollback { tid = 5; node = 0; slots = 2 } ]
  | Migration_rollback _ -> [ Neg_abort { requester = 1; n = 2; lease_until = 1234567.8 } ]
  | Neg_abort _ -> [ Group_migration_start { gid = 4; src = 0; dst = 1; members = 3 } ]
  | Group_migration_start _ ->
    List.mapi
      (fun i phase ->
         Group_migration_phase
           { gid = 4; phase; members = 3; bytes = 9000 + i; slots = 6;
             dur = [| 1e20; 2.5; -0.; 1e-3 |].(i) })
      phases
  | Group_migration_phase _ ->
    [ Group_migration_commit { gid = 4; dst = 1; members = 3; bytes = 9000 } ]
  | Group_migration_commit _ ->
    [ Group_migration_abort { gid = 4; src = 0; dst = 1; reason = "tab\there" } ]
  | Group_migration_abort _ ->
    [ Train_send { src = 0; dst = 1; train = 6; frags = 3; bytes = 9000 } ]
  | Train_send _ ->
    [ Train_retransmit { src = 0; dst = 1; train = 6; attempt = 2; bytes = 9000 } ]
  | Train_retransmit _ -> [ Train_ack { src = 0; dst = 1; train = 6 } ]
  | Train_ack _ -> [ Delta_hit { tid = 5; pages = 11 } ]
  | Delta_hit _ -> [ Delta_miss { tid = 5; pages = 1 } ]
  | Delta_miss _ -> [ Delta_evict { tid = 5; bytes = 65536 } ]
  | Delta_evict _ ->
    List.mapi
      (fun i kind ->
         Span_end
           { trace = 2; span = 10 + i; parent = (if i = 0 then -1 else 10); kind;
             start = 10.864000000000001; dur = float_of_int i *. 0.5;
             host_us = 0.95367431640625;
             note = [| ""; "accept"; awkward |].(i mod 3) })
      ([ Migration; Negotiate; Probe; Pack; Train; Unpack; Commit; Rollback;
         Delta_refetch ] : span_kind list)
  | Span_end _ -> [ Thread_printf { tid = 32; text = awkward } ]
  | Thread_printf _ -> [ Node_crash { node = 1; threads = 4 } ]
  | Node_crash _ -> [ Node_suspected { node = 1; by = 0 } ]
  | Node_suspected _ -> [ Node_dead { node = 1; by = 0 } ]
  | Node_dead _ ->
    [ Checkpoint { tid = 5; node = 0; bytes = 512; full_bytes = 8192; new_pages = 1 } ]
  | Checkpoint _ -> [ Thread_restore { tid = 5; node = 2; from_node = 1; gen = 3 } ]
  | Thread_restore _ -> [ Thread_lost { tid = 6; node = 1; reason = awkward } ]
  | Thread_lost _ -> [ Delta_invalidate { node = 0; peer = 1; entries = 5 } ]
  | Delta_invalidate _ -> []

(* Every sample, in declaration order, each with its stamp. *)
let golden_samples =
  let rec unfold acc = function
    | [] -> List.rev acc
    | ev :: _ as group -> unfold (List.rev_append group acc) (after ev)
  in
  unfold [] [ Obs.Event.Slot_reserve { slot = 3; n = 2; cache_hit = true } ]
  |> List.mapi (fun i ev -> (float_of_int i *. 1.1, i mod 3, ev))

(* The pinned JSON-lines line of each sample. The stream, the flight
   recorder and pm2-ctl/1 event pushes all write these bytes, so any
   change to an event's wire form shows here. *)
let awkward_json = "\"dest \\\"1\\\" \\\\ down\\n\\t\\u0001 caf\xc3\xa9 \xff\""

let golden_lines =
  [
    {|{"t":0,"node":0,"name":"slot.reserve","slot":3,"n":2,"cache_hit":true}|};
    {|{"t":1.1000000000000001,"node":1,"name":"slot.release","slot":3,"cached":false}|};
    {|{"t":2.2000000000000002,"node":2,"name":"slot.transfer","slot":9,"seller":1,"buyer":2}|};
    {|{"t":3.3000000000000003,"node":0,"name":"heap.local.alloc","addr":4096,"bytes":64}|};
    {|{"t":4.4000000000000004,"node":1,"name":"heap.iso.alloc","addr":140737488355328,"bytes":4096}|};
    {|{"t":5.5,"node":2,"name":"heap.iso.free","addr":8256,"bytes":32}|};
    {|{"t":6.6000000000000005,"node":0,"name":"heap.local.split","addr":8288,"bytes":96}|};
    {|{"t":7.7000000000000011,"node":1,"name":"heap.iso.coalesce","addr":8192,"bytes":256}|};
    {|{"t":8.8000000000000007,"node":2,"name":"migration.pack","tid":5,"bytes":4096,"slots":2,"dur":12.25}|};
    {|{"t":9.9000000000000004,"node":0,"name":"migration.send","tid":5,"bytes":4097,"slots":2,"dur":-0}|};
    {|{"t":11,"node":1,"name":"migration.remap","tid":5,"bytes":4098,"slots":2,"dur":0.10000000000000001}|};
    {|{"t":12.100000000000001,"node":2,"name":"migration.restart","tid":5,"bytes":4099,"slots":2,"dur":75}|};
    {|{"t":13.200000000000001,"node":0,"name":"migration.pack_slot","tid":5,"slot":7,"bytes":2048}|};
    {|{"t":14.300000000000001,"node":1,"name":"migration.unpack_slot","tid":5,"slot":7,"bytes":2048}|};
    {|{"t":15.400000000000002,"node":2,"name":"negotiation.request","requester":2,"n":3}|};
    {|{"t":16.5,"node":0,"name":"negotiation.round","requester":2,"peer":0,"bytes":48}|};
    {|{"t":17.600000000000001,"node":1,"name":"negotiation.grant","requester":2,"start":40,"n":3,"bought":1,"dur":255}|};
    {|{"t":18.700000000000003,"node":2,"name":"negotiation.deny","requester":2,"n":64,"dur":-0}|};
    {|{"t":19.800000000000001,"node":0,"name":"net.send","src":0,"dst":1,"bytes":96}|};
    {|{"t":20.900000000000002,"node":1,"name":"net.deliver","src":0,"dst":1,"bytes":96}|};
    {|{"t":22,"node":2,"name":"fault.drop.loss","src":1,"dst":0,"bytes":32}|};
    {|{"t":23.100000000000001,"node":0,"name":"fault.drop.partition","src":1,"dst":0,"bytes":32}|};
    {|{"t":24.200000000000003,"node":1,"name":"fault.drop.dead","src":1,"dst":0,"bytes":32}|};
    {|{"t":25.300000000000001,"node":2,"name":"fault.dup","src":1,"dst":0,"bytes":32}|};
    {|{"t":26.400000000000002,"node":0,"name":"fault.corrupt","src":1,"dst":0,"bytes":32}|};
    {|{"t":27.500000000000004,"node":1,"name":"node.kill","node":3}|};
    {|{"t":28.600000000000001,"node":2,"name":"node.restart","node":3}|};
    {|{"t":29.700000000000003,"node":0,"name":"net.retransmit","src":0,"dst":2,"seq":17,"attempt":2,"bytes":128}|};
    {|{"t":30.800000000000004,"node":1,"name":"net.dup_suppress","src":0,"dst":2,"seq":17}|};
    {|{"t":31.900000000000002,"node":2,"name":"net.give_up","src":0,"dst":2,"seq":18,"attempts":8}|};
    {|{"t":33,"node":0,"name":"migration.abort","tid":5,"src":0,"dst":1,"reason":|} ^ awkward_json ^ {|}|};
    {|{"t":34.100000000000001,"node":1,"name":"migration.rollback","tid":5,"node":0,"slots":2}|};
    {|{"t":35.200000000000003,"node":2,"name":"negotiation.abort","requester":1,"n":2,"lease_until":1234567.8}|};
    {|{"t":36.300000000000004,"node":0,"name":"group_migration.start","gid":4,"src":0,"dst":1,"members":3}|};
    {|{"t":37.400000000000006,"node":1,"name":"group_migration.pack","gid":4,"members":3,"bytes":9000,"slots":6,"dur":1e+20}|};
    {|{"t":38.5,"node":2,"name":"group_migration.send","gid":4,"members":3,"bytes":9001,"slots":6,"dur":2.5}|};
    {|{"t":39.600000000000001,"node":0,"name":"group_migration.remap","gid":4,"members":3,"bytes":9002,"slots":6,"dur":-0}|};
    {|{"t":40.700000000000003,"node":1,"name":"group_migration.restart","gid":4,"members":3,"bytes":9003,"slots":6,"dur":0.001}|};
    {|{"t":41.800000000000004,"node":2,"name":"group_migration.commit","gid":4,"dst":1,"members":3,"bytes":9000}|};
    {|{"t":42.900000000000006,"node":0,"name":"group_migration.abort","gid":4,"src":0,"dst":1,"reason":"tab\there"}|};
    {|{"t":44,"node":1,"name":"net.train_send","src":0,"dst":1,"train":6,"frags":3,"bytes":9000}|};
    {|{"t":45.100000000000001,"node":2,"name":"net.train_retransmit","src":0,"dst":1,"train":6,"attempt":2,"bytes":9000}|};
    {|{"t":46.200000000000003,"node":0,"name":"net.train_ack","src":0,"dst":1,"train":6}|};
    {|{"t":47.300000000000004,"node":1,"name":"delta.hit","tid":5,"pages":11}|};
    {|{"t":48.400000000000006,"node":2,"name":"delta.miss","tid":5,"pages":1}|};
    {|{"t":49.500000000000007,"node":0,"name":"delta.evict","tid":5,"bytes":65536}|};
    {|{"t":50.600000000000001,"node":1,"name":"span.migration","trace":2,"span":10,"parent":-1,"kind":"migration","start":10.864000000000001,"dur":0,"host_us":0.95367431640625}|};
    {|{"t":51.700000000000003,"node":2,"name":"span.negotiate","trace":2,"span":11,"parent":10,"kind":"negotiate","start":10.864000000000001,"dur":0.5,"host_us":0.95367431640625,"note":"accept"}|};
    {|{"t":52.800000000000004,"node":0,"name":"span.probe","trace":2,"span":12,"parent":10,"kind":"probe","start":10.864000000000001,"dur":1,"host_us":0.95367431640625,"note":|} ^ awkward_json ^ {|}|};
    {|{"t":53.900000000000006,"node":1,"name":"span.pack","trace":2,"span":13,"parent":10,"kind":"pack","start":10.864000000000001,"dur":1.5,"host_us":0.95367431640625}|};
    {|{"t":55.000000000000007,"node":2,"name":"span.train","trace":2,"span":14,"parent":10,"kind":"train","start":10.864000000000001,"dur":2,"host_us":0.95367431640625,"note":"accept"}|};
    {|{"t":56.100000000000001,"node":0,"name":"span.unpack","trace":2,"span":15,"parent":10,"kind":"unpack","start":10.864000000000001,"dur":2.5,"host_us":0.95367431640625,"note":|} ^ awkward_json ^ {|}|};
    {|{"t":57.200000000000003,"node":1,"name":"span.commit","trace":2,"span":16,"parent":10,"kind":"commit","start":10.864000000000001,"dur":3,"host_us":0.95367431640625}|};
    {|{"t":58.300000000000004,"node":2,"name":"span.rollback","trace":2,"span":17,"parent":10,"kind":"rollback","start":10.864000000000001,"dur":3.5,"host_us":0.95367431640625,"note":"accept"}|};
    {|{"t":59.400000000000006,"node":0,"name":"span.delta_refetch","trace":2,"span":18,"parent":10,"kind":"delta_refetch","start":10.864000000000001,"dur":4,"host_us":0.95367431640625,"note":|} ^ awkward_json ^ {|}|};
    {|{"t":60.500000000000007,"node":1,"name":"thread.printf","tid":32,"text":|} ^ awkward_json ^ {|}|};
    {|{"t":61.600000000000009,"node":2,"name":"node.crash","node":1,"threads":4}|};
    {|{"t":62.700000000000003,"node":0,"name":"node.suspected","node":1,"by":0}|};
    {|{"t":63.800000000000004,"node":1,"name":"node.dead","node":1,"by":0}|};
    {|{"t":64.900000000000006,"node":2,"name":"recover.checkpoint","tid":5,"node":0,"bytes":512,"full_bytes":8192,"new_pages":1}|};
    {|{"t":66,"node":0,"name":"recover.restore","tid":5,"node":2,"from_node":1,"gen":3}|};
    {|{"t":67.100000000000009,"node":1,"name":"recover.lost","tid":6,"node":1,"reason":|} ^ awkward_json ^ {|}|};
    {|{"t":68.200000000000003,"node":2,"name":"delta.invalidate","node":0,"peer":1,"entries":5}|};
  ]

let stream_lines samples =
  let path = Filename.temp_file "pm2_golden" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      let s = Obs.Stream.open_file path in
      let sink = Obs.Stream.sink s in
      List.iter (fun (time, node, ev) -> Obs.Sink.emit sink ~time ~node ev) samples;
      Obs.Stream.close s;
      In_channel.with_open_bin path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (( <> ) ""))

let test_golden_stream_lines () =
  Alcotest.(check int) "one line per sample" (List.length golden_lines)
    (List.length golden_samples);
  List.iter2
    (fun expected got -> Alcotest.(check string) "stream line" expected got)
    golden_lines (stream_lines golden_samples)

(* A pm2-ctl/1 event push wraps exactly the stream line. *)
let test_golden_protocol_events () =
  List.iter2
    (fun line (time, node, ev) ->
       Alcotest.(check string) "event frame"
         ({|{"v":"pm2-ctl/1","sub":7,"ev":|} ^ line ^ "}")
         (Pm2_svc.Protocol.encode_event ~sub:7 ~time ~node ev))
    golden_lines golden_samples

(* Chrome [args] are the stream object's fields minus its t/node/name. *)
let test_golden_chrome_args () =
  let chrome = Obs.Chrome.create () in
  let sink = Obs.Chrome.sink chrome in
  List.iter (fun (time, node, ev) -> Obs.Sink.emit sink ~time ~node ev) golden_samples;
  let json = Obs.Json.parse_exn (Obs.Chrome.to_string chrome) in
  let events =
    Option.get (Obs.Json.to_list (Option.get (Obs.Json.member "traceEvents" json)))
    |> List.filter (fun e ->
        match Option.bind (Obs.Json.member "ph" e) Obs.Json.to_string_val with
        | Some ("X" | "i") -> true
        | _ -> false)
  in
  List.iter2
    (fun line e ->
       match (Obs.Json.parse_exn line, Obs.Json.member "args" e) with
       | Obs.Json.Obj (("t", _) :: ("node", _) :: ("name", _) :: fields), Some args ->
         Alcotest.(check bool) ("args of " ^ line) true (args = Obs.Json.Obj fields)
       | _ -> Alcotest.failf "malformed sample %s" line)
    golden_lines events

(* -- metrics JSON -- *)

(* Histogram statistics keep full precision (a [%g] rendering would print
   1.23457e+06), keys are escaped, and no gauge section is emitted. *)
let test_metrics_json_precision () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.observe m ~node:0 "migration.pack_us" 1234567.8;
  Obs.Metrics.incr m ~node:0 "odd \"key\"";
  let node0 =
    Obs.Json.parse_exn (Obs.Json.to_string (Obs.Metrics.to_json m))
    |> Obs.Json.member "node0" |> Option.get
  in
  let hist = Option.bind (Obs.Json.member "histograms" node0) (Obs.Json.member "migration.pack_us") in
  let stat k = Option.bind (Option.bind hist (Obs.Json.member k)) Obs.Json.to_float in
  Alcotest.(check (option (float 0.))) "max exact" (Some 1234567.8) (stat "max");
  Alcotest.(check (option (float 0.))) "mean exact" (Some 1234567.8) (stat "mean");
  Alcotest.(check (option (float 0.))) "escaped key" (Some 1.)
    (Option.bind
       (Option.bind (Obs.Json.member "counters" node0) (Obs.Json.member "odd \"key\""))
       Obs.Json.to_float);
  Alcotest.(check bool) "no gauges" true (Obs.Json.member "gauges" node0 = None)

(* -- the flight recorder's rings -- *)

(* Feed [r] through its sink, as the collector does. *)
let recording r =
  let sink = Obs.Recorder.sink r in
  fun ~time ~node ev -> Obs.Sink.emit sink ~time ~node ev

let printf i = Obs.Event.Thread_printf { tid = i; text = "" }

(* Per node: (dropped, event times oldest first), in dump order. *)
let dumped_nodes r =
  match Obs.Json.parse (Obs.Recorder.dump r) with
  | Error e -> Alcotest.fail ("dump is not valid JSON: " ^ e)
  | Ok j -> (
    match Obs.Json.member "nodes" j with
    | Some (Obs.Json.Obj fields) ->
      List.map
        (fun (name, node) ->
          let num k = Option.get (Option.bind (Obs.Json.member k node) Obs.Json.to_float) in
          let times =
            match Obs.Json.member "events" node with
            | Some (Obs.Json.Arr evs) ->
              List.map
                (fun e -> Option.get (Option.bind (Obs.Json.member "t" e) Obs.Json.to_float))
                evs
            | _ -> Alcotest.fail "events is not an array"
          in
          (name, int_of_float (num "dropped"), times))
        fields
    | _ -> Alcotest.fail "nodes is not an object")

let test_recorder_rings () =
  (* Nodes first seen out of order, one of them past the initial table:
     the dump still lists them in ascending id order. Node 3 wraps its
     ring twice over, node 12 once, node 0 never. *)
  let r = Obs.Recorder.create ~capacity:3 () in
  let record = recording r in
  List.iter
    (fun (node, i) -> record ~time:(float_of_int i) ~node (printf i))
    [ (3, 1); (12, 2); (0, 3); (3, 4); (3, 5); (3, 6); (12, 7); (3, 8); (12, 9); (12, 10);
      (3, 11); (3, 12); (3, 13) ];
  Alcotest.(check (list (triple string int (list (float 0.)))))
    "ascending nodes, per-node drops, newest window oldest first"
    [ ("node0", 0, [ 3. ]); ("node3", 5, [ 11.; 12.; 13. ]); ("node12", 1, [ 7.; 9.; 10. ]) ]
    (dumped_nodes r);
  (* Capacity 0 keeps nothing, but every node seen is listed with the
     events it dropped. *)
  let r0 = Obs.Recorder.create ~capacity:0 () in
  let record = recording r0 in
  List.iter (fun (node, i) -> record ~time:(float_of_int i) ~node (printf i))
    [ (2, 1); (1, 2); (2, 3) ];
  Alcotest.(check (list (triple string int (list (float 0.))))) "capacity 0"
    [ ("node1", 1, []); ("node2", 2, []) ] (dumped_nodes r0);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Recorder.create: capacity < 0") (fun () ->
      ignore (Obs.Recorder.create ~capacity:(-1) ()))

(* A push into a ring, directly or through the recorder's sink, stores
   the event the caller built and allocates nothing else. *)
let test_push_allocates_nothing () =
  let ev = printf 1 in
  let ring = Obs.Ring.create ~capacity:8 in
  let record = recording (Obs.Recorder.create ~capacity:8 ()) in
  record ~time:0. ~node:5 ev;
  let words f =
    Gc.minor ();
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      f ()
    done;
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.)) "Ring.push" 0.
    (words (fun () -> Obs.Ring.push ring ~time:2.5 ~node:1 ev));
  Alcotest.(check (float 0.)) "recorder sink" 0.
    (words (fun () -> record ~time:2.5 ~node:5 ev));
  Alcotest.(check int) "ring wrapped" 992 (Obs.Ring.dropped ring)

(* Names are literals and [Event.write] builds no closure: writing an
   event allocates nothing once its float has been rendered (Span_end
   carries three floats, which the one-entry memo cannot all hold). *)
let test_event_writer_allocates_nothing () =
  let buf = Buffer.create 1024 in
  let w = Json.writer buf in
  let words f =
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      f ()
    done;
    Gc.minor_words () -. before
  in
  List.iter
    (fun (_, _, ev) ->
      let name = Obs.Event.name ev in
      Alcotest.(check (float 0.)) ("name " ^ name) 0.
        (words (fun () -> ignore (Obs.Event.name ev)));
      match ev with
      | Obs.Event.Span_end _ -> ()
      | _ ->
        Alcotest.(check (float 0.)) ("write " ^ name) 0.
          (words (fun () ->
               Buffer.clear buf;
               Obs.Event.write w ev)))
    golden_samples

let tests =
  [
    Alcotest.test_case "stamps match virtual time" `Quick test_stamps_match_virtual_time;
    Alcotest.test_case "cluster events time-ordered" `Quick test_cluster_events_time_ordered;
    Alcotest.test_case "disabled collector is silent" `Quick
      test_disabled_collector_emits_nothing;
    Alcotest.test_case "ring overwrites oldest" `Quick test_ring_overwrites_oldest;
    Alcotest.test_case "ring capacity boundaries" `Quick test_ring_capacity_boundaries;
    Alcotest.test_case "json escapes control chars" `Quick
      test_json_escape_control_chars;
    Alcotest.test_case "json escape round-trip" `Quick test_json_escape_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
    Alcotest.test_case "host migration phases" `Quick test_host_migration_phase_events;
    Alcotest.test_case "engine migration phases" `Quick test_engine_migration_phase_events;
    Alcotest.test_case "metrics sink" `Quick test_metrics_sink;
    Alcotest.test_case "chrome trace round-trip" `Quick test_chrome_roundtrip;
    Alcotest.test_case "chrome escaping" `Quick test_chrome_escaping;
    Alcotest.test_case "trace sink renders printf" `Quick test_trace_sink_renders_printf;
    Alcotest.test_case "golden stream line per event" `Quick test_golden_stream_lines;
    Alcotest.test_case "golden pm2-ctl/1 event frames" `Quick test_golden_protocol_events;
    Alcotest.test_case "chrome args are the stream fields" `Quick test_golden_chrome_args;
    Alcotest.test_case "metrics json full precision" `Quick test_metrics_json_precision;
    Alcotest.test_case "recorder rings per node" `Quick test_recorder_rings;
    Alcotest.test_case "a push allocates nothing" `Quick test_push_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_reader_matches_reference;
    Alcotest.test_case "json reader depth cap" `Quick test_reader_depth_cap;
    Alcotest.test_case "json reader \\u escapes" `Quick test_reader_unicode_escape;
    Alcotest.test_case "json reader numbers" `Quick test_reader_numbers;
    Alcotest.test_case "json writer number edges" `Quick test_writer_number_edges;
    QCheck_alcotest.to_alcotest prop_writer_numbers;
    Alcotest.test_case "json writer %.17g memo" `Quick test_writer_memo;
    Alcotest.test_case "event writer allocates nothing" `Quick
      test_event_writer_allocates_nothing;
  ]

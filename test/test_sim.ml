module Engine = Pm2_sim.Engine
module Cm = Pm2_sim.Cost_model
module Trace = Pm2_sim.Trace

let test_event_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:5. (fun () -> log := 'b' :: !log);
  Engine.schedule e ~at:1. (fun () -> log := 'a' :: !log);
  Engine.schedule e ~at:9. (fun () -> log := 'c' :: !log);
  let t = Engine.run e in
  Alcotest.(check (list char)) "time order" [ 'a'; 'b'; 'c' ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "final clock" 9. t

let test_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~at:1. (fun () -> log := i :: !log)
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "ties are FIFO" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:1. (fun () ->
      log := "first" :: !log;
      Engine.schedule_after e ~delay:2. (fun () -> log := "nested" :: !log));
  ignore (Engine.run e);
  Alcotest.(check (list string)) "nested event ran" [ "first"; "nested" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock advanced" 3. (Engine.now e)

let test_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:5. (fun () -> ());
  ignore (Engine.run e);
  Alcotest.(check bool) "scheduling in the past rejected" true
    (try Engine.schedule e ~at:1. (fun () -> ()); false with Invalid_argument _ -> true)

let test_until () =
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.schedule e ~at:1. (fun () -> incr ran);
  Engine.schedule e ~at:10. (fun () -> incr ran);
  let t = Engine.run ~until:5. e in
  Alcotest.(check int) "only early event ran" 1 !ran;
  Alcotest.(check (float 1e-9)) "clock parked at until" 5. t;
  Alcotest.(check int) "late event still queued" 1 (Engine.pending e);
  ignore (Engine.run e);
  Alcotest.(check int) "late event ran after resume" 2 !ran

let test_step () =
  let e = Engine.create () in
  Alcotest.(check bool) "step on empty" false (Engine.step e);
  Engine.schedule e ~at:2. (fun () -> ());
  Alcotest.(check bool) "step runs one" true (Engine.step e);
  Alcotest.(check int) "queue drained" 0 (Engine.pending e)

let test_max_events () =
  let e = Engine.create () in
  let rec forever () = Engine.schedule_after e ~delay:1. forever in
  forever ();
  Alcotest.(check bool) "max_events guard" true
    (try ignore (Engine.run ~max_events:100 e); false with Failure _ -> true)

let test_negative_delay_clamped () =
  let e = Engine.create () in
  let ran = ref false in
  Engine.schedule_after e ~delay:(-5.) (fun () -> ran := true);
  ignore (Engine.run e);
  Alcotest.(check bool) "clamped to now" true !ran

let prop_many_events_ordered =
  QCheck2.Test.make ~name:"events always fire in nondecreasing time order"
    QCheck2.Gen.(list_size (int_range 1 200) (float_range 0. 1000.))
    (fun times ->
       let e = Engine.create () in
       let fired = ref [] in
       List.iter (fun t -> Engine.schedule e ~at:t (fun () -> fired := t :: !fired)) times;
       ignore (Engine.run e);
       let fired = List.rev !fired in
       List.length fired = List.length times
       && fst
            (List.fold_left
               (fun (ok, prev) t -> (ok && t >= prev, t))
               (true, neg_infinity) fired))

(* -- the event heap against a reference --

   A scenario is a list of events, each with a parent (an earlier
   event, or none for the ones queued before the run), a delay and
   whether it is queued with [schedule ~at:(now + delay)] or
   [schedule_after]. An event logs its id and the clock's bits, then
   queues its children in index order: so equal times, scheduling from
   inside a running event and negative delays all occur. The reference
   is a list searched for the least [(at, seq)] on every pop, with the
   clock rule of the engine's contract. *)

module Ref_engine = struct
  type t = {
    mutable queue : (float * int * (unit -> unit)) list;
    mutable clock : float;
    mutable seq : int;
  }

  let create () = { queue = []; clock = 0.; seq = 0 }
  let now t = t.clock
  let pending t = List.length t.queue

  let schedule t ~at f =
    if at < t.clock then invalid_arg "Ref_engine.schedule";
    t.queue <- (at, t.seq, f) :: t.queue;
    t.seq <- t.seq + 1

  let later (a, s, _) (b, s', _) = a > b || (a = b && s > s')
  let fmax (a : float) b = if a >= b then a else b
  let schedule_after t ~delay f = schedule t ~at:(t.clock +. fmax 0. delay) f

  let head t =
    List.fold_left (fun m e -> match m with Some m when later e m -> Some m | _ -> Some e) None
      t.queue

  let step t =
    match head t with
    | None -> false
    | Some ((at, _, f) as e) ->
      t.queue <- List.filter (fun e' -> e' != e) t.queue;
      t.clock <- fmax t.clock at;
      f ();
      true

  let run ?until ?(max_events = 200_000_000) t =
    let count = ref 0 and stop = ref false in
    while not !stop do
      match head t, until with
      | None, _ -> stop := true
      | Some (at, _, _), Some u when at > u ->
        t.clock <- fmax t.clock u;
        stop := true
      | Some _, _ ->
        incr count;
        if !count > max_events then failwith "Ref_engine.run: max_events exceeded";
        ignore (step t)
    done;
    t.clock
end

type drive =
  | Run
  | Until of float
  | Steps of int
  | Max_events of int

type ops = {
  schedule : at:float -> (unit -> unit) -> unit;
  schedule_after : delay:float -> (unit -> unit) -> unit;
  now : unit -> float;
  step : unit -> bool;
  run : ?until:float -> ?max_events:int -> unit -> float;
  pending : unit -> int;
}

let engine_ops () =
  let e = Engine.create () in
  {
    schedule = (fun ~at f -> Engine.schedule e ~at f);
    schedule_after = (fun ~delay f -> Engine.schedule_after e ~delay f);
    now = (fun () -> Engine.now e);
    step = (fun () -> Engine.step e);
    run = (fun ?until ?max_events () -> Engine.run ?until ?max_events e);
    pending = (fun () -> Engine.pending e);
  }

let ref_ops () =
  let e = Ref_engine.create () in
  {
    schedule = (fun ~at f -> Ref_engine.schedule e ~at f);
    schedule_after = (fun ~delay f -> Ref_engine.schedule_after e ~delay f);
    now = (fun () -> Ref_engine.now e);
    step = (fun () -> Ref_engine.step e);
    run = (fun ?until ?max_events () -> Ref_engine.run ?until ?max_events e);
    pending = (fun () -> Ref_engine.pending e);
  }

(* What a driven scenario leaves behind: every pop as (event id, clock
   bits), then the pending count and the clock's bits at each stop, and
   whether [max_events] tripped. *)
let play ops events drive =
  let log = ref [] in
  let note x = log := x :: !log in
  let bits f = Int64.bits_of_float f in
  let children = Array.make (Array.length events) [] in
  Array.iteri
    (fun i (parent, _, _) -> if parent >= 0 then children.(parent) <- i :: children.(parent))
    events;
  let rec queue i =
    let _, delay, at = events.(i) in
    let f () =
      note (`Pop (i, bits (ops.now ())));
      List.iter queue (List.rev children.(i))
    in
    if at then ops.schedule ~at:(ops.now () +. Float.abs delay) f
    else ops.schedule_after ~delay f
  in
  Array.iteri (fun i (parent, _, _) -> if parent < 0 then queue i) events;
  let stop () = note (`Stop (ops.pending (), bits (ops.now ()))) in
  (match drive with
   | Run -> ignore (ops.run ())
   | Until u ->
     note (`Clock (bits (ops.run ~until:u ())));
     stop ();
     ignore (ops.run ())
   | Steps n ->
     for _ = 1 to n do
       note (`Stepped (ops.step ()))
     done;
     stop ();
     ignore (ops.run ())
   | Max_events n ->
     (match ops.run ~max_events:n () with
      | _ -> note `Finished
      | exception Failure _ -> note `Tripped));
  stop ();
  List.rev !log

let gen_scenario =
  let open QCheck2.Gen in
  let delay =
    oneof [ oneofl [ 0.; 0.; 0.5; 1.; 1.; 2.; 3.25; -1. ]; float_range 0. 10.;
            map (fun k -> float_of_int k *. 0.1) (int_range 0 40) ]
  in
  let* n = int_range 1 60 in
  let* events =
    flatten_l
      (List.init n (fun i ->
           let* parent = if i = 0 then pure (-1) else int_range (-1) (i - 1) in
           let* d = delay in
           let* at = bool in
           pure (parent, d, at)))
  in
  let* drive =
    oneof
      [ pure Run; map (fun u -> Until u) (oneof [ float_range 0. 20.; oneofl [ 1.; 2.; 3.25 ] ]);
        map (fun k -> Steps k) (int_range 0 70); map (fun k -> Max_events k) (int_range 0 70) ]
  in
  pure (Array.of_list events, drive)

let prop_heap_matches_reference =
  QCheck2.Test.make ~name:"event heap pops as a sorted (at, seq) reference" ~count:500
    gen_scenario (fun (events, drive) -> play (engine_ops ()) events drive = play (ref_ops ()) events drive)

(* Queueing and committing an event whose closure already exists
   allocates nothing: the heap's columns and the flat clock hold it. *)
let test_heap_allocates_nothing () =
  let e = Engine.create () in
  let f () = () in
  (* Grow the columns past what the loop uses, once. *)
  for _ = 1 to 100 do
    Engine.schedule_after e ~delay:1. f
  done;
  while Engine.step e do
    ()
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Engine.schedule_after e ~delay:1.5 f;
    Engine.schedule_after e ~delay:0.25 f;
    ignore (Engine.step e);
    ignore (Engine.step e)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 2000 schedule_after + step" 0. words;
  Alcotest.(check (float 0.)) "clock" 1501. (Engine.now e)

(* -- Cost model -- *)

let test_cost_derived () =
  let cm = Cm.default in
  Alcotest.(check (float 1e-9)) "mmap cost"
    (cm.Cm.mmap_base +. (16. *. (cm.Cm.mmap_per_page +. cm.Cm.page_touch)))
    (Cm.mmap_cost cm ~pages:16);
  Alcotest.(check (float 1e-9)) "memcpy"
    (1024. *. cm.Cm.memcpy_per_byte)
    (Cm.memcpy_cost cm ~bytes:1024);
  Alcotest.(check (float 1e-9)) "message"
    (cm.Cm.net_latency +. (100. *. cm.Cm.net_per_byte))
    (Cm.message_cost cm ~bytes:100)

let test_cost_zero () =
  Alcotest.(check (float 0.)) "zero model" 0. (Cm.mmap_cost Cm.zero ~pages:100);
  Alcotest.(check (float 0.)) "zero message" 0. (Cm.message_cost Cm.zero ~bytes:1000)

(* -- Trace -- *)

let test_trace () =
  let tr = Trace.create () in
  Trace.emit tr ~time:1. ~node:0 "value = 1";
  Trace.emit tr ~time:2. ~node:1 "value = 2";
  Alcotest.(check (list string)) "paper-style lines"
    [ "[node0] value = 1"; "[node1] value = 2" ]
    (Trace.lines tr);
  Alcotest.(check bool) "contains" true (Trace.contains tr "value = 2");
  Alcotest.(check bool) "not contains" false (Trace.contains tr "value = 3");
  Alcotest.(check int) "timed lines" 2 (List.length (Trace.timed_lines tr));
  Trace.clear tr;
  Alcotest.(check (list string)) "cleared" [] (Trace.lines tr)

let tests =
  [
    Alcotest.test_case "events in time order" `Quick test_event_order;
    Alcotest.test_case "ties are FIFO" `Quick test_fifo_ties;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "past scheduling rejected" `Quick test_past_rejected;
    Alcotest.test_case "run ~until" `Quick test_until;
    Alcotest.test_case "single step" `Quick test_step;
    Alcotest.test_case "max_events guard" `Quick test_max_events;
    Alcotest.test_case "negative delay clamped" `Quick test_negative_delay_clamped;
    QCheck_alcotest.to_alcotest prop_many_events_ordered;
    QCheck_alcotest.to_alcotest prop_heap_matches_reference;
    Alcotest.test_case "schedule_after and step allocate nothing" `Quick
      test_heap_allocates_nothing;
    Alcotest.test_case "cost model derived costs" `Quick test_cost_derived;
    Alcotest.test_case "cost model zero" `Quick test_cost_zero;
    Alcotest.test_case "trace collection" `Quick test_trace;
  ]

(* End-to-end runtime tests: MiniVM programs running on the simulated
   cluster, reproducing the paper's execution traces. *)

module Trace = Pm2_sim.Trace
module Isa = Pm2_mvm.Isa
open Pm2_mvm.Asm
open Pm2_core

let program = Pm2_programs.Figures.image ()

let run ?config ?(entry = "fig1") ?(arg = 0) () =
  Pm2.run_to_completion ?config program ~entry ~arg ()

let reloc_config =
  { (Cluster.default_config ~nodes:2) with Cluster.scheme = Cluster.Relocating }

(* -- the paper's figures as golden traces -- *)

let test_fig1 () =
  Alcotest.(check (list string)) "Fig. 1 trace"
    [ "[node0] value = 1"; "[node1] value = 1" ]
    (run ~entry:"fig1" ())

let test_fig2_iso () =
  Alcotest.(check (list string)) "Fig. 2 under iso"
    [ "[node0] value = 1"; "[node1] value = 1" ]
    (run ~entry:"fig2" ())

let test_fig2_relocating () =
  match run ~config:reloc_config ~entry:"fig2" () with
  | [ first; second ] ->
    Alcotest.(check string) "before migration" "[node0] value = 1" first;
    Alcotest.(check bool) "segfault after migration" true
      (String.starts_with ~prefix:"[node1] Segmentation fault" second)
  | other -> Alcotest.failf "unexpected trace: %s" (String.concat " / " other)

let test_fig3_relocating () =
  Alcotest.(check (list string)) "Fig. 3: registered pointer survives relocation"
    [ "[node0] value = 1"; "[node1] value = 1" ]
    (run ~config:reloc_config ~entry:"fig3" ())

let test_fig4 () =
  match run ~entry:"fig4" () with
  | [ first; second ] ->
    Alcotest.(check string) "before migration" "[node0] value = 1" first;
    Alcotest.(check bool) "segfault on malloc'd data" true
      (String.starts_with ~prefix:"[node1] Segmentation fault" second)
  | other -> Alcotest.failf "unexpected trace: %s" (String.concat " / " other)

let test_fig7_trace () =
  let n = 105 in
  let lines = run ~entry:"fig7" ~arg:n () in
  (* Fig. 8 shape: banner, 100 elements on node 0, migration notices, the
     rest on node 1. *)
  Alcotest.(check int) "line count" (n + 3) (List.length lines);
  Alcotest.(check string) "banner" "[node0] I am thread eeff0020" (List.nth lines 0);
  Alcotest.(check string) "first element" "[node0] Element 0 = 1" (List.nth lines 1);
  Alcotest.(check string) "last element before migration" "[node0] Element 99 = 199"
    (List.nth lines 100);
  Alcotest.(check string) "init" "[node0] Initializing migration from node 0"
    (List.nth lines 101);
  Alcotest.(check string) "arrival" "[node1] Arrived at node 1" (List.nth lines 102);
  Alcotest.(check string) "first element after" "[node1] Element 100 = 201"
    (List.nth lines 103);
  Alcotest.(check string) "last element" "[node1] Element 104 = 209"
    (List.nth lines (n + 2))

let test_fig9_faults () =
  let lines = run ~entry:"fig9" ~arg:105 () in
  let last = List.nth lines (List.length lines - 1) in
  Alcotest.(check bool) "ends in a segfault on node 1" true
    (String.starts_with ~prefix:"[node1] Segmentation fault" last);
  Alcotest.(check string) "faulted right after arrival" "[node1] Arrived at node 1"
    (List.nth lines (List.length lines - 2))

let test_deep_pingpong () =
  Alcotest.(check (list string)) "frame chain survives migration"
    [ "[node0] canary ok after 800 frames" ]
    (run ~entry:"deep_pingpong" ~arg:800 ())

let test_deep_pingpong_relocating () =
  (* The legacy scheme patches the compiler-generated frame chain using
     "knowledge about the way they are generated by the compiler" (§2):
     300 migrated frames must unwind correctly after relocation. *)
  Alcotest.(check (list string)) "frame chain patched by relocation"
    [ "[node0] canary ok after 300 frames" ]
    (run ~config:reloc_config ~entry:"deep_pingpong" ~arg:300 ())

let test_concurrent_negotiations_serialise () =
  (* Two guest threads issue multi-slot isomallocs back to back: the
     system-wide critical section must serialise them, so completion time
     covers at least two protocol durations. *)
  let prog =
    Pm2.build (fun b ->
        proc b "big" (fun b ->
            imm b r1 (3 * 65536);
            sys b Isa.Sys_isomalloc;
            halt b))
  in
  let cluster = Pm2.launch prog ~spawns:[ (0, "big", 0); (1, "big", 0) ] in
  let finish = Cluster.run cluster in
  Alcotest.(check int) "two negotiations" 2 (Negotiation.count (Cluster.negotiation cluster));
  let d = Negotiation.duration_model (Cluster.negotiation cluster) ~nodes:2 in
  Alcotest.(check bool)
    (Printf.sprintf "finish %.0f covers two serialised protocols (%.0f)" finish (2. *. d))
    true
    (finish >= 2. *. d);
  Cluster.check_invariants cluster

let test_registered_hop_both_schemes () =
  List.iter
    (fun config ->
       Alcotest.(check (list string)) "all registered pointers valid"
         [ "[node1] sum = 700" ]
         (run ~config ~entry:"registered_hop" ~arg:100 ()))
    [ Cluster.default_config ~nodes:2; reloc_config ]

(* -- migration timing (§5) -- *)

let test_null_migration_under_75us () =
  let cluster = Pm2.launch program ~spawns:[ (0, "pingpong", 200) ] in
  ignore (Cluster.run cluster);
  let ms = Cluster.migrations cluster in
  Alcotest.(check int) "400 one-way migrations" 400 (List.length ms);
  let mean = Option.get (Pm2.mean_migration_latency cluster) in
  Alcotest.(check bool) (Printf.sprintf "mean %.1f us < 75 us" mean) true (mean < 75.);
  Alcotest.(check bool) (Printf.sprintf "mean %.1f us sane (> 10 us)" mean) true (mean > 10.);
  Cluster.check_invariants cluster

let test_migration_cost_grows_with_payload () =
  let latency bytes =
    let cluster = Pm2.launch program ~spawns:[ (0, "pingpong_payload", bytes) ] in
    ignore (Cluster.run cluster);
    Option.get (Pm2.mean_migration_latency cluster)
  in
  let small = latency 1024 and big = latency 512_000 in
  Alcotest.(check bool)
    (Printf.sprintf "migrating 512 KB (%.0f us) costs more than 1 KB (%.0f us)" big small)
    true
    (big > 4. *. small)

(* -- runtime machinery -- *)

let test_spawn_syscall () =
  (* The spawner creates workers via Sys_spawn; all must terminate. *)
  let cluster = Pm2.launch program ~spawns:[ (0, "spawner", 10) ] in
  ignore (Cluster.run cluster);
  Alcotest.(check int) "spawner + 10 workers" 11 (List.length (Cluster.threads cluster));
  Alcotest.(check int) "all exited" 0 (Cluster.live_threads cluster);
  Cluster.check_invariants cluster

let test_preemptive_migration () =
  (* A long-running worker is migrated by the host while it runs, without
     any cooperation: the paper's transparency property. *)
  let cluster = Pm2.launch program ~spawns:[ (0, "worker", 100_000) ] in
  let th = List.hd (Cluster.threads cluster) in
  ignore (Cluster.run ~until:2_000. cluster);
  Alcotest.(check int) "still on node 0" 0 th.Thread.node;
  Cluster.request_migration cluster th ~dest:1;
  ignore (Cluster.run cluster);
  Alcotest.(check bool) "migrated" true
    (List.exists (fun m -> m.Cluster.tid = th.Thread.id) (Cluster.migrations cluster));
  Alcotest.(check bool) "finished on node 1" true (Thread.is_exited th);
  Alcotest.(check int) "ended on node 1" 1 th.Thread.node;
  Cluster.check_invariants cluster

let test_isomalloc_syscall_negotiation_blocks () =
  (* A guest isomalloc bigger than a slot triggers a negotiation; the
     calling thread must be parked for the protocol duration, so the
     virtual completion time reflects it. *)
  let prog =
    Pm2.build (fun b ->
        proc b "big" (fun b ->
            imm b r1 (3 * 65536);
            sys b Isa.Sys_isomalloc;
            mov b r7 r0;
            imm b r5 0xAB;
            store b r5 r7 0;
            mov b r1 r7;
            sys b Isa.Sys_isofree;
            halt b))
  in
  let cluster = Pm2.launch prog ~spawns:[ (0, "big", 0) ] in
  let finish = Cluster.run cluster in
  Alcotest.(check int) "one negotiation" 1 (Negotiation.count (Cluster.negotiation cluster));
  let d = Negotiation.duration_model (Cluster.negotiation cluster) ~nodes:2 in
  Alcotest.(check bool)
    (Printf.sprintf "completion %.1f includes the %.1f us negotiation" finish d)
    true (finish >= d);
  Alcotest.(check int) "thread completed" 0 (Cluster.live_threads cluster);
  Cluster.check_invariants cluster

let test_guest_runtime_error_kills_thread () =
  (* Freeing a wild pointer is a guest error: the thread dies, the
     simulation survives. *)
  let prog =
    Pm2.build (fun b ->
        proc b "bad" (fun b ->
            imm b r1 0x123456;
            sys b Isa.Sys_free;
            halt b))
  in
  let cluster = Pm2.launch prog ~spawns:[ (0, "bad", 0) ] in
  ignore (Cluster.run cluster);
  let th = List.hd (Cluster.threads cluster) in
  Alcotest.(check bool) "thread faulted" true
    (match th.Thread.state with Thread.Exited (Thread.Faulted _) -> true | _ -> false);
  Alcotest.(check bool) "error traced" true
    (Trace.contains (Cluster.trace cluster) "runtime error")

let test_dead_thread_releases_slots () =
  let prog =
    Pm2.build (fun b ->
        proc b "alloc_and_die" (fun b ->
            imm b r1 10_000;
            sys b Isa.Sys_isomalloc;
            halt b))
  in
  let cluster = Pm2.launch prog ~spawns:[ (0, "alloc_and_die", 0) ] in
  let mgr = Cluster.node_mgr cluster 0 in
  let owned0 = Slot_manager.owned mgr in
  ignore (Cluster.run cluster);
  (* stack slot + data slot both returned *)
  Alcotest.(check int) "slots all returned on death" (owned0 + 1) (Slot_manager.owned mgr);
  Cluster.check_invariants cluster

let test_round_robin_scheduling () =
  (* Two printing threads on one node interleave by quantum. *)
  let prog =
    Pm2.build (fun b ->
        let fmt = cstring b "tick %d" in
        proc b "chatty" (fun b ->
            mov b r8 r1;
            imm b r9 0;
            label b "c.loop";
            bge b r9 r8 "c.done";
            mov b r2 r9;
            imm b r1 fmt;
            sys b Isa.Sys_print;
            sys b Isa.Sys_yield;
            addi b r9 r9 1;
            jmp b "c.loop";
            label b "c.done";
            halt b))
  in
  let config = Cluster.default_config ~nodes:2 in
  let cluster = Cluster.create config prog in
  let a = Cluster.spawn cluster ~node:0 ~entry:"chatty" ~arg:3 () in
  let b = Cluster.spawn cluster ~node:0 ~entry:"chatty" ~arg:3 () in
  ignore (Cluster.run cluster);
  Alcotest.(check int) "six lines" 6 (List.length (Trace.lines (Cluster.trace cluster)));
  Alcotest.(check bool) "both exited" true (Thread.is_exited a && Thread.is_exited b)

let test_workload_and_clock () =
  let prog =
    Pm2.build (fun b ->
        let fmt = cstring b "elapsed >= %d" in
        proc b "timed" (fun b ->
            sys b Isa.Sys_clock;
            mov b r8 r0;
            imm b r1 5_000;
            sys b Isa.Sys_workload;
            sys b Isa.Sys_clock;
            sub b r2 r0 r8;
            imm b r1 fmt;
            sys b Isa.Sys_print;
            halt b))
  in
  let cluster = Pm2.launch prog ~spawns:[ (0, "timed", 0) ] in
  let finish = Cluster.run cluster in
  Alcotest.(check bool) "virtual time advanced by the workload" true (finish >= 5_000.)

let test_rand_syscall_bounded () =
  let prog =
    Pm2.build (fun b ->
        let fmt = cstring b "r = %d" in
        proc b "r" (fun b ->
            imm b r1 10;
            sys b Isa.Sys_rand;
            mov b r2 r0;
            imm b r1 fmt;
            sys b Isa.Sys_print;
            halt b))
  in
  let lines = Pm2.run_to_completion prog ~entry:"r" () in
  match lines with
  | [ line ] ->
    let v = int_of_string (List.nth (String.split_on_char ' ' line) 3) in
    Alcotest.(check bool) "bounded" true (v >= 0 && v < 10)
  | _ -> Alcotest.fail "expected one line"

let test_stack_overflow_detected () =
  let prog =
    Pm2.build (fun b ->
        proc b "bomb" (fun b ->
            label b "again";
            enter b 4096;
            jmp b "again"))
  in
  let cluster = Pm2.launch prog ~spawns:[ (0, "bomb", 0) ] in
  ignore (Cluster.run cluster);
  let th = List.hd (Cluster.threads cluster) in
  Alcotest.(check bool) "thread stopped" true (Thread.is_exited th);
  Alcotest.(check bool) "reported" true
    (Trace.contains (Cluster.trace cluster) "Stack overflow"
     || Trace.contains (Cluster.trace cluster) "Segmentation fault")

let test_migrate_to_self_is_noop () =
  let prog =
    Pm2.build (fun b ->
        let fmt = cstring b "still here" in
        proc b "stay" (fun b ->
            imm b r1 0;
            sys b Isa.Sys_migrate;
            imm b r1 fmt;
            sys b Isa.Sys_print;
            halt b))
  in
  let cluster = Pm2.launch prog ~spawns:[ (0, "stay", 0) ] in
  ignore (Cluster.run cluster);
  Alcotest.(check int) "no migration" 0 (List.length (Cluster.migrations cluster));
  Alcotest.(check (list string)) "ran through" [ "[node0] still here" ]
    (Trace.lines (Cluster.trace cluster))

let test_bad_migrate_target_faults () =
  let prog =
    Pm2.build (fun b ->
        proc b "bad" (fun b ->
            imm b r1 99;
            sys b Isa.Sys_migrate;
            halt b))
  in
  let cluster = Pm2.launch prog ~spawns:[ (0, "bad", 0) ] in
  ignore (Cluster.run cluster);
  let th = List.hd (Cluster.threads cluster) in
  Alcotest.(check bool) "faulted" true
    (match th.Thread.state with Thread.Exited (Thread.Faulted _) -> true | _ -> false)

(* -- the per-instruction rounding contract -- *)

(* Each retired instruction adds [instr_cost] to the node's clock on its
   own: virtual time is the left fold of those adds, which rounds
   differently from one [float n *. instr_cost]. A guest retires [n]
   straight-line instructions and yields inside one quantum; the tick
   drains the node's charge into the delay of its re-arm, which must
   carry the fold's exact bits. With [n = 150] the fold stays in the
   binade [1, 2) the context switch starts it in; [n = 190] crosses 2. *)
let test_charge_is_a_left_fold n () =
  let prog =
    Pm2.build (fun b ->
        proc b "straight" (fun b ->
            for _ = 1 to n do
              imm b r1 0
            done;
            sys b Isa.Sys_yield;
            halt b))
  in
  let config = Cluster.default_config ~nodes:2 in
  let { Pm2_sim.Cost_model.instr_cost; context_switch; syscall_base; _ } =
    config.Cluster.cost
  in
  Alcotest.(check bool) "one quantum" true (n + 5 <= config.Cluster.quantum);
  Alcotest.(check bool) "binade [1, 2) left iff n > 160" (n > 160)
    (context_switch +. (float_of_int n *. instr_cost) >= 2.);
  let c = Cluster.create config prog in
  let th = Cluster.spawn c ~node:0 ~entry:"straight" () in
  ignore (Cluster.drain_charges c 0) (* exclude thread-creation cost *);
  Alcotest.(check int) "one tick" 1 (Cluster.step_events c ~max_events:1);
  Alcotest.(check bool) "requeued by the yield" true (th.Thread.state = Thread.Ready);
  let fold = ref (0. +. context_switch) in
  for _ = 1 to n do
    fold := !fold +. instr_cost
  done;
  let expected = !fold +. (instr_cost +. syscall_base) in
  let product = (0. +. context_switch) +. (float_of_int n *. instr_cost) in
  Alcotest.(check bool) "n tells a fold from a product" true
    (Int64.bits_of_float (product +. (instr_cost +. syscall_base))
     <> Int64.bits_of_float expected);
  match Pm2_sim.Engine.peek_next (Cluster.engine c) with
  | None -> Alcotest.fail "the tick did not re-arm"
  | Some (at, _) ->
    Alcotest.(check int64) "drained charge, bit for bit" (Int64.bits_of_float expected)
      (Int64.bits_of_float at);
    Alcotest.(check (float 0.)) "nothing left undrained" 0. (Cluster.drain_charges c 0)

(* -- bounded stepping: the daemon slices runs with [step_events] -- *)

(* Everything a run publishes in virtual time that slicing could
   perturb. [lines] are the timed guest prints, so a run that printed
   the right text at the wrong instant still differs. *)
type outputs = {
  lines : string list;
  makespan : float;
  wire_bytes : int;
  migrations : int;
  negotiations : int;
}

(* [faults] is a (spec, seed) pair, not a plan: a plan's random stream
   advances as a run consumes it, so each run gets a fresh one. With
   [~slice] the run is pumped [slice] events at a time before the final
   [Cluster.run] that flushes buffered output. *)
let run_outputs ?slice ?(nodes = 2) ?faults ?(delta = 0) ~entry ~arg () =
  let fault_plan =
    Option.map
      (fun (spec, seed) ->
        match Pm2_fault.Plan.spec_of_string spec with
        | Ok spec -> Pm2_fault.Plan.create ~seed spec
        | Error e -> failwith e)
      faults
  in
  let config =
    Pm2.Config.make ~nodes ?fault_plan ~delta_cache_bytes:delta ~tracing:true ()
  in
  let c = Cluster.create config program in
  ignore (Cluster.spawn c ~node:0 ~entry ~arg ());
  Option.iter
    (fun max_events ->
      while Cluster.step_events c ~max_events > 0 do
        ()
      done)
    slice;
  let makespan = Cluster.run c in
  Cluster.check_invariants c;
  {
    lines = Trace.timed_lines (Cluster.trace c);
    makespan;
    wire_bytes = Pm2_net.Network.bytes_sent (Cluster.network c);
    migrations = List.length (Cluster.migrations c);
    negotiations = Negotiation.count (Cluster.negotiation c);
  }

let test_step_events_slices () =
  let whole = run_outputs ~entry:"deep_pingpong" ~arg:6 () in
  let sliced = run_outputs ~slice:3 ~entry:"deep_pingpong" ~arg:6 () in
  Alcotest.(check bool) "produced output" true (whole.lines <> []);
  Alcotest.(check (list string)) "sliced lines" whole.lines sliced.lines;
  Alcotest.(check (float 0.)) "sliced makespan" whole.makespan sliced.makespan;
  Alcotest.(check int) "sliced wire bytes" whole.wire_bytes sliced.wire_bytes

(* [Node.charge_steps] against the left fold it must reproduce, bit for
   bit. Starts cover zero, subnormals, the context switch's 1.2, huge,
   negative and non-finite values; adds cover zero, [instr_cost], random
   exponents of either sign, ties (an odd multiple of half the start's
   spacing) and runs that land exactly on the top of their binade. *)
let reference_fold v n c =
  let s = ref v in
  for _ = 1 to n do
    s := !s +. c
  done;
  !s

let bare_node () =
  Node.create ~id:0 ~cost:Pm2_sim.Cost_model.default ~geometry:Slot.default
    ~bitmap:(Pm2_util.Bitset.create Slot.default.Slot.count) ~cache_capacity:0 ~seed:1 ()

let prop_charge_steps_exact =
  let open QCheck2 in
  let spacing v = Float.succ v -. v in
  let mantissa = Gen.(map (fun m -> 1. +. (float_of_int m *. 0x1p-30)) (int_bound 0x3fff_ffff)) in
  let scaled lo hi = Gen.(map2 (fun m e -> Float.ldexp m e) mantissa (int_range lo hi)) in
  let steps = Gen.(oneof [ int_range 0 20; int_range 0 10_000 ]) in
  let free =
    Gen.(
      let* v =
        oneof
          [ pure 0.; map (fun k -> Float.ldexp (float_of_int k) (-1074)) (int_bound 0xf_ffff);
            pure 1.2; scaled (-40) 40; scaled 900 1023; map Float.neg (scaled (-40) 40);
            pure infinity; pure nan ]
      in
      let* c =
        oneof
          [ pure 0.; pure 0.005; scaled (-80) 8; map Float.neg (scaled (-80) 8);
            map (fun k -> 1.5 *. Float.ldexp 1. k) (int_range (-80) 0);
            map (fun j -> float_of_int ((2 * j) + 1) *. 0.5 *. spacing (if v > 0. then v else 1.))
              (int_bound 1000) ]
      in
      let* n = steps in
      return (v, n, c))
  in
  (* [k] adds of [d] spacings from [2^(e+1) - k*d*u] end exactly on
     [2^(e+1)]; a quarter spacing more still rounds to [d]. *)
  let landing =
    Gen.(
      let* e = int_range (-30) 30 and* d = int_range 1 1000 and* k = int_range 1 5000 in
      let* f = oneofl [ 0.; 0.25 ] and* extra = int_range (-2) 2 in
      let u = Float.ldexp 1. (e - 52) in
      let v = Float.ldexp 1. (e + 1) -. (float_of_int (k * d) *. u) in
      return (v, max 0 (k + extra), (float_of_int d +. f) *. u))
  in
  let node = bare_node () in
  Test.make ~name:"charge_steps is the left fold, bit for bit" ~count:100_000
    ~print:(fun (v, n, c) -> Printf.sprintf "v=%h n=%d c=%h" v n c)
    Gen.(frequency [ (3, free); (1, landing) ])
    (fun (v, n, c) ->
      ignore (Node.take_charges node);
      Node.charge node v;
      Node.charge_steps node n c;
      Int64.equal (Int64.bits_of_float (Node.take_charges node))
        (Int64.bits_of_float (reference_fold v n c)))

let test_charge_steps_allocates_nothing () =
  let node = bare_node () in
  Node.charge node 1.2;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Node.charge_steps node 200 0.005
  done;
  let words = Gc.minor_words () -. before in
  if words > 16. then Alcotest.failf "%.0f minor words over 1000 calls" words

let prop_sliced_run =
  let open QCheck2 in
  let gen =
    Gen.(
      let* nodes = int_range 2 4 in
      let* entry = oneofl [ "pingpong"; "deep_pingpong"; "registered_hop"; "spawner" ] in
      let* arg = int_range 2 8 in
      let* delta = oneofl [ 0; 1_048_576 ] in
      let* faults = oneofl [ None; Some "loss=0.1"; Some "loss=0.05,dup=0.05" ] in
      let* seed = int_range 1 1000 in
      let* slice = int_range 1 64 in
      return (nodes, entry, arg, delta, faults, seed, slice))
  in
  Test.make ~name:"sliced run equals whole run" ~count:12 gen
    (fun (nodes, entry, arg, delta, faults, seed, slice) ->
      let faults = Option.map (fun spec -> (spec, seed)) faults in
      let whole = run_outputs ~nodes ?faults ~delta ~entry ~arg () in
      let sliced = run_outputs ~slice ~nodes ?faults ~delta ~entry ~arg () in
      if whole <> sliced then
        Test.fail_reportf
          "divergence at nodes=%d entry=%s arg=%d delta=%d faults=%s seed=%d slice=%d:\n\
           whole:  makespan=%.1f wire=%d lines=%d migr=%d\n\
           sliced: makespan=%.1f wire=%d lines=%d migr=%d"
          nodes entry arg delta
          (match faults with Some (s, _) -> s | None -> "-")
          seed slice whole.makespan whole.wire_bytes (List.length whole.lines)
          whole.migrations sliced.makespan sliced.wire_bytes (List.length sliced.lines)
          sliced.migrations;
      true)

let tests =
  [
    Alcotest.test_case "Fig. 1 golden trace" `Quick test_fig1;
    Alcotest.test_case "Fig. 2 under iso scheme" `Quick test_fig2_iso;
    Alcotest.test_case "Fig. 2 under relocating scheme" `Quick test_fig2_relocating;
    Alcotest.test_case "Fig. 3 registered pointers" `Quick test_fig3_relocating;
    Alcotest.test_case "Fig. 4 malloc'd data lost" `Quick test_fig4;
    Alcotest.test_case "Figs. 7/8 golden trace" `Quick test_fig7_trace;
    Alcotest.test_case "Fig. 9 malloc list faults" `Quick test_fig9_faults;
    Alcotest.test_case "deep frame chain" `Quick test_deep_pingpong;
    Alcotest.test_case "deep frame chain under relocation" `Quick
      test_deep_pingpong_relocating;
    Alcotest.test_case "concurrent negotiations serialise" `Quick
      test_concurrent_negotiations_serialise;
    Alcotest.test_case "registered hop, both schemes" `Quick
      test_registered_hop_both_schemes;
    Alcotest.test_case "null migration < 75 us" `Quick test_null_migration_under_75us;
    Alcotest.test_case "migration cost grows with payload" `Quick
      test_migration_cost_grows_with_payload;
    Alcotest.test_case "Sys_spawn" `Quick test_spawn_syscall;
    Alcotest.test_case "preemptive migration" `Quick test_preemptive_migration;
    Alcotest.test_case "guest negotiation blocks the thread" `Quick
      test_isomalloc_syscall_negotiation_blocks;
    Alcotest.test_case "guest runtime error kills only the thread" `Quick
      test_guest_runtime_error_kills_thread;
    Alcotest.test_case "dying thread releases its slots" `Quick
      test_dead_thread_releases_slots;
    Alcotest.test_case "round-robin scheduling" `Quick test_round_robin_scheduling;
    Alcotest.test_case "Sys_workload and Sys_clock" `Quick test_workload_and_clock;
    Alcotest.test_case "Sys_rand bounded" `Quick test_rand_syscall_bounded;
    Alcotest.test_case "stack overflow detected" `Quick test_stack_overflow_detected;
    Alcotest.test_case "migrate to self is a no-op" `Quick test_migrate_to_self_is_noop;
    Alcotest.test_case "bad migrate target faults" `Quick test_bad_migrate_target_faults;
    Alcotest.test_case "step_events slices equal a run" `Quick test_step_events_slices;
    Alcotest.test_case "charge is a left fold of instruction adds" `Quick
      (test_charge_is_a_left_fold 150);
    Alcotest.test_case "charge fold crossing a binade" `Quick
      (test_charge_is_a_left_fold 190);
    QCheck_alcotest.to_alcotest prop_charge_steps_exact;
    Alcotest.test_case "charge_steps allocates nothing" `Quick
      test_charge_steps_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_sliced_run;
  ]

(* T6: the MVM execution engines — host ns/instruction of Step (the
   per-instruction reference interpreter) vs Blocks (basic-block
   closure compilation), on a loop-heavy and a call-heavy guest.

   Three bars to defend (check_bench, suite "mvm"):
   - blocks >= 5x step on the loop-heavy guest (the ISSUE acceptance
     bar; straight-line/loop code is where pre-decode + block closures
     pay most);
   - byte-identical virtual outputs: the two engines run the same
     cluster workload to the same makespan, wire bytes, guest lines and
     migration count, and retire exactly the same instruction counts on
     the microbenchmark guests;
   - at most 1 minor-heap word per instruction when the loop-heavy guest
     runs under the cluster scheduler: charging virtual time for a
     retired instruction allocates nothing.

   Host ns/instruction is measured standalone (bare address space, no
   scheduler): we time whole program executions and divide by the
   retired instruction count, so the number isolates the interpreter
   inner loop the cluster scheduler sits on. Engines are interleaved
   rep by rep and each takes its minimum over many reps — the robust
   estimator under noisy/throttling hosts (same pattern as
   {!Trace_overhead}); a mean would let one slow scheduling window
   skew a single engine and corrupt the ratio. *)

open Pm2_core
open Pm2_mvm.Asm
module Interp = Pm2_mvm.Interp
module Mvm_engine = Pm2_mvm.Engine
module Program = Pm2_mvm.Program
module As = Pm2_vmem.Address_space
module Network = Pm2_net.Network
module Table = Pm2_support.Table

let stack_base = 0x100000

let stack_size = 64 * 1024

(* Loop-heavy: an arithmetic compute kernel, zero memory traffic — the
   pure dispatch cost. 24 instructions per iteration, one basic block. *)
let loop_iters = 20_000

let loop_program =
  lazy
    (Pm2.build (fun b ->
         proc b "main" (fun b ->
             imm b r0 0;
             imm b r9 0;
             imm b r11 loop_iters;
             label b "l.top";
             add b r0 r0 r11;
             addi b r2 r11 3;
             mul b r3 r2 r2;
             sub b r0 r0 r3;
             mov b r4 r0;
             add b r4 r4 r2;
             addi b r5 r4 7;
             sub b r6 r5 r2;
             mul b r7 r6 r6;
             add b r0 r0 r7;
             mov b r1 r3;
             sub b r1 r1 r4;
             add b r0 r0 r1;
             imm b r8 13;
             mul b r8 r8 r2;
             add b r5 r5 r8;
             sub b r6 r6 r5;
             addi b r7 r6 21;
             mul b r7 r7 r3;
             add b r0 r0 r7;
             mov b r10 r0;
             add b r0 r0 r10;
             addi b r11 r11 (-1);
             bne b r11 r9 "l.top";
             halt b)))

(* Call-heavy: every iteration calls a frame-building leaf (enter/leave,
   frame-local store/load, push/pop) — the stack fast path and the
   block-per-procedure shape. ~14 instructions per iteration. *)
let call_iters = 15_000

let call_program =
  lazy
    (Pm2.build (fun b ->
         proc b "main" (fun b ->
             imm b r9 0;
             imm b r11 call_iters;
             label b "c.top";
             mov b r1 r11;
             call b "work";
             addi b r11 r11 (-1);
             bne b r11 r9 "c.top";
             halt b);
         label b "work";
         enter b 32;
         fp b r4;
         store b r1 r4 (-8);
         load b r2 r4 (-8);
         add b r0 r1 r2;
         push b r0;
         pop b r3;
         leave b;
         ret b))

let mk_space program =
  let space = As.create ~node:0 () in
  Program.load_data program space;
  As.mmap space ~addr:stack_base ~size:stack_size;
  space

(* One complete guest execution; returns retired instruction count. *)
let run_once eng program space =
  let ctx =
    Interp.make_context
      ~entry:(Program.entry program "main")
      ~stack_top:(stack_base + stack_size)
  in
  let outcome, steps = Mvm_engine.run eng ctx space ~fuel:max_int in
  if outcome <> Interp.Halted then failwith "mvm_bench: guest did not halt";
  steps

let engines = [ (Mvm_engine.Step, "step"); (Mvm_engine.Blocks, "blocks") ]

let reps = 31

(* Minimum ns per whole-program execution for each engine, engines
   interleaved within every rep. Returns ns keyed by engine name, plus
   the common retired instruction count (engines must agree — that is
   itself one of the parity bars). *)
let measure_guest program =
  let rigs =
    List.map
      (fun (kind, name) ->
        (name, Mvm_engine.create kind program, mk_space program))
      engines
  in
  let counts =
    List.map (fun (_, eng, space) -> run_once eng program space) rigs
  in
  let instrs =
    match counts with
    | [ s; b ] when s = b -> s
    | _ -> failwith "mvm_bench: engines retired different instruction counts"
  in
  let best = Hashtbl.create 4 in
  for _ = 1 to reps do
    List.iter
      (fun (name, eng, space) ->
        let t0 = Unix.gettimeofday () in
        ignore (run_once eng program space);
        let dt = Unix.gettimeofday () -. t0 in
        match Hashtbl.find_opt best name with
        | Some prev when prev <= dt -> ()
        | _ -> Hashtbl.replace best name dt)
      rigs
  done;
  let ns name = Hashtbl.find best name *. 1e9 in
  (ns, instrs)

(* The loop-heavy guest under the real scheduler ([Pm2.run_to_completion],
   blocks engine): quanta, context switches and the per-instruction
   virtual-time charge on top of dispatch. Scheduler runs interleave rep
   by rep with bare blocks-engine runs of the same guest, each side
   keeping its minimum. Minor-heap words per retired instruction are the
   allocation budget of the charge path: the charge must not box a
   float per instruction. *)
let measure_scheduler program =
  let config = Pm2.Config.make ~nodes:2 () in
  let sched () = ignore (Pm2.run_to_completion ~config program ~entry:"main" ()) in
  let eng = Mvm_engine.create Mvm_engine.Blocks program in
  let space = mk_space program in
  let instrs = run_once eng program space in
  sched ();
  let best_sched = ref infinity and best_bare = ref infinity in
  let best_words = ref infinity in
  for _ = 1 to reps do
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    sched ();
    let dt = Unix.gettimeofday () -. t0 in
    best_words := Float.min !best_words (Gc.minor_words () -. w0);
    best_sched := Float.min !best_sched dt;
    let t0 = Unix.gettimeofday () in
    ignore (run_once eng program space);
    best_bare := Float.min !best_bare (Unix.gettimeofday () -. t0)
  done;
  let per = float_of_int instrs in
  (instrs, !best_words /. per, !best_sched *. 1e9 /. per, !best_bare *. 1e9 /. per)

(* Cluster-level parity: the pingpong workload (migrations, syscalls,
   guest prints) must produce identical virtual outputs per engine. *)
let parity_run kind =
  let config = { (Pm2.Config.make ~nodes:2 ()) with Cluster.engine_kind = kind } in
  let c = Cluster.create config (Pm2_programs.Figures.image ()) in
  ignore (Cluster.spawn c ~node:0 ~entry:"pingpong" ~arg:6 ());
  let makespan = Cluster.run c in
  Cluster.check_invariants c;
  ( makespan,
    Network.bytes_sent (Cluster.network c),
    Pm2_sim.Trace.lines (Cluster.trace c),
    List.length (Cluster.migrations c) )

let record_guest guest ~iters program =
  let ns, instrs = measure_guest program in
  let per = float_of_int instrs in
  let step = ns "step" /. per in
  let blocks = ns "blocks" /. per in
  Report.record ~suite:"mvm" ~name:guest
    ~params:
      [ ("iterations", string_of_int iters);
        ("instructions", string_of_int instrs) ]
    [
      ("step_ns_per_instr", step);
      ("blocks_ns_per_instr", blocks);
      ("speedup_blocks_vs_step", step /. blocks);
    ];
  (step, blocks)

let run () =
  Harness.section
    (Printf.sprintf
       "T6: MVM execution engines: host ns/instruction, step vs blocks\n\
        (loop-heavy: %d iters; call-heavy: %d iters; engine parity on pingpong)"
       loop_iters call_iters);
  let loop_p = Lazy.force loop_program in
  let call_p = Lazy.force call_program in
  let l_step, l_blk = record_guest "loop-heavy" ~iters:loop_iters loop_p in
  let c_step, c_blk = record_guest "call-heavy" ~iters:call_iters call_p in
  let t = Table.create [ "guest"; "step ns/i"; "blocks ns/i"; "blocks vs step" ] in
  Table.add_rowf t "loop-heavy|%.1f|%.1f|%.1fx" l_step l_blk (l_step /. l_blk);
  Table.add_rowf t "call-heavy|%.1f|%.1f|%.1fx" c_step c_blk (c_step /. c_blk);
  Table.print t;
  let instrs, words, sched_ns, bare_ns = measure_scheduler loop_p in
  let cores = Domain.recommended_domain_count () in
  Harness.note
    "loop-heavy under the scheduler: %.1f ns/i (bare blocks %.1f ns/i), %.2f minor words/i, %d host cores"
    sched_ns bare_ns words cores;
  Report.record ~suite:"mvm" ~name:"scheduler"
    ~params:
      [ ("guest", "loop-heavy");
        ("instructions", string_of_int instrs);
        ("reps", string_of_int reps);
        ("host_cores", string_of_int cores) ]
    [
      ("minor_words_per_instr", words);
      ("host_ns_per_instr", sched_ns);
      ("bare_ns_per_instr", bare_ns);
      ("scheduler_overhead", sched_ns /. bare_ns);
    ];
  (* Virtual-output parity across engines on a migrating workload. *)
  let runs = List.map (fun (kind, name) -> (name, parity_run kind)) engines in
  let reference = snd (List.hd runs) in
  let identical = List.for_all (fun (_, r) -> r = reference) runs in
  let makespan, wire, lines, migrations = reference in
  Harness.note "engine parity (pingpong, 6 hops): makespan %.1f us, %d wire B, %d lines, %d migrations -> %s"
    makespan wire (List.length lines) migrations
    (if identical then "identical across step/blocks" else "DIVERGED");
  Report.record ~suite:"mvm" ~name:"engine-parity"
    ~params:[ ("workload", "pingpong"); ("hops", "6") ]
    [
      ("identical", if identical then 1. else 0.);
      ("makespan_us", makespan);
      ("wire_bytes", float_of_int wire);
      ("migrations", float_of_int migrations);
    ];
  if not identical then
    failwith "mvm_bench: engines diverged on virtual-time outputs";
  Harness.note "same fuel accounting, same float-add sequence: the blocks engine changes";
  Harness.note "host time only — every virtual metric is byte-identical by construction"

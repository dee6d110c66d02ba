module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout
module Isa = Pm2_mvm.Isa
module Asm = Pm2_mvm.Asm
module Program = Pm2_mvm.Program
module Interp = Pm2_mvm.Interp
module Engine = Pm2_mvm.Engine
module Decode = Pm2_mvm.Decode
open Asm

(* Minimal harness: run a program on a bare space with a 64 KB stack; a
   syscall handler may be supplied (default: fail the test). *)
let stack_base = 0x100000

let run ?(entry = "main") ?(on_syscall = fun _ _ -> failwith "unexpected syscall") ?(fuel = 100_000)
    build =
  let b = create () in
  build b;
  let program = assemble b in
  let sp = As.create ~node:0 () in
  Program.load_data program sp;
  As.mmap sp ~addr:stack_base ~size:65536;
  let ctx = Interp.make_context ~entry:(Program.entry program entry) ~stack_top:(stack_base + 65536) in
  let rec loop fuel =
    if fuel = 0 then failwith "out of fuel";
    match Interp.step program ctx sp with
    | Interp.Running -> loop (fuel - 1)
    | Interp.Syscall sc ->
      on_syscall ctx sc;
      loop (fuel - 1)
    | Interp.Halted -> `Halted
    | Interp.Fault f -> `Fault f
  in
  let outcome = loop fuel in
  (outcome, ctx, sp)

let check_halted_r0 ?on_syscall name expected build =
  let outcome, ctx, _ = run ?on_syscall build in
  Alcotest.(check bool) (name ^ " halts") true (outcome = `Halted);
  Alcotest.(check int) name expected ctx.Interp.regs.(0)

let test_arith () =
  check_halted_r0 "arithmetic" ((((7 + 3) * 4) - 5) / 5 * 10 + ((17 mod 5) * 100)) (fun b ->
      proc b "main" (fun b ->
          imm b r1 7;
          imm b r2 3;
          add b r3 r1 r2; (* 10 *)
          imm b r2 4;
          mul b r3 r3 r2; (* 40 *)
          imm b r2 5;
          sub b r3 r3 r2; (* 35 *)
          div b r3 r3 r2; (* 7 *)
          imm b r2 10;
          mul b r3 r3 r2; (* 70 *)
          imm b r1 17;
          imm b r2 5;
          mod_ b r4 r1 r2; (* 2 *)
          imm b r2 100;
          mul b r4 r4 r2; (* 200 *)
          add b r0 r3 r4; (* 270 *)
          halt b))

let test_branches () =
  (* Compute sum of 1..10 with a loop. *)
  check_halted_r0 "loop sum" 55 (fun b ->
      proc b "main" (fun b ->
          imm b r0 0;
          imm b r4 1;
          imm b r5 11;
          label b "loop";
          bge b r4 r5 "done";
          add b r0 r0 r4;
          addi b r4 r4 1;
          jmp b "loop";
          label b "done";
          halt b))

let test_branch_kinds () =
  check_halted_r0 "branch kinds" 0b1111 (fun b ->
      proc b "main" (fun b ->
          imm b r0 0;
          imm b r4 3;
          imm b r5 3;
          imm b r6 7;
          beq b r4 r5 "t1";
          halt b;
          label b "t1";
          addi b r0 r0 1;
          bne b r4 r6 "t2";
          halt b;
          label b "t2";
          addi b r0 r0 2;
          blt b r4 r6 "t3";
          halt b;
          label b "t3";
          addi b r0 r0 4;
          bge b r6 r4 "t4";
          halt b;
          label b "t4";
          addi b r0 r0 8;
          halt b))

let test_memory () =
  check_halted_r0 "load/store" 99 (fun b ->
      proc b "main" (fun b ->
          imm b r4 stack_base;
          imm b r5 99;
          store b r5 r4 128;
          load b r0 r4 128;
          halt b))

let test_push_pop () =
  check_halted_r0 "push/pop" 21 (fun b ->
      proc b "main" (fun b ->
          imm b r4 1;
          push b r4;
          imm b r4 20;
          push b r4;
          pop b r5;
          pop b r6;
          add b r0 r5 r6;
          halt b))

let test_call_ret () =
  check_halted_r0 "call/ret" 42 (fun b ->
      proc b "main" (fun b ->
          imm b r1 21;
          call b "double";
          halt b);
      label b "double";
      add b r0 r1 r1;
      ret b)

let test_frames () =
  (* Recursion with stack frames: factorial 6 via frame-saved locals. *)
  check_halted_r0 "recursive factorial" 720 (fun b ->
      proc b "main" (fun b ->
          imm b r1 6;
          call b "fact";
          halt b);
      label b "fact";
      enter b 16;
      fp b r4;
      store b r1 r4 (-8);
      imm b r5 1;
      bge b r5 r1 "base";
      addi b r1 r1 (-1);
      call b "fact";
      fp b r4; (* restore after callee clobbered r4 *)
      load b r5 r4 (-8);
      mul b r0 r0 r5;
      jmp b "out";
      label b "base";
      imm b r0 1;
      label b "out";
      leave b;
      ret b)

let test_enter_leave_chain () =
  (* Enter must thread absolute frame pointers through the stack. *)
  let outcome, ctx, sp =
    run (fun b ->
        proc b "main" (fun b ->
            enter b 32;
            enter b 16;
            fp b r4;
            halt b))
  in
  Alcotest.(check bool) "halts" true (outcome = `Halted);
  let fp1 = ctx.Interp.regs.(4) in
  let saved = As.load_word sp fp1 in
  Alcotest.(check bool) "frame chain points into the stack" true
    (saved > fp1 && saved <= stack_base + 65536)

let test_div_by_zero () =
  let outcome, _, _ =
    run (fun b ->
        proc b "main" (fun b ->
            imm b r1 1;
            imm b r2 0;
            div b r3 r1 r2;
            halt b))
  in
  Alcotest.(check bool) "faults" true (outcome = `Fault Interp.Division_by_zero)

let test_segv () =
  let outcome, _, _ =
    run (fun b ->
        proc b "main" (fun b ->
            imm b r4 0x666000;
            load b r0 r4 0;
            halt b))
  in
  match outcome with
  | `Fault (Interp.Segv a) -> Alcotest.(check int) "fault address" 0x666000 a
  | _ -> Alcotest.fail "expected a segfault"

let test_wild_jump_faults () =
  let b = create () in
  proc b "main" (fun b -> jmp b "main"; halt b);
  let program = assemble b in
  let sp = As.create ~node:0 () in
  As.mmap sp ~addr:stack_base ~size:65536;
  let ctx = Interp.make_context ~entry:9999 ~stack_top:(stack_base + 65536) in
  (match Interp.step program ctx sp with
   | Interp.Fault (Interp.Wild_pc 9999) -> ()
   | _ -> Alcotest.fail "expected wild pc fault")

let test_syscall_boundary () =
  let calls = ref [] in
  let outcome, _, _ =
    run
      ~on_syscall:(fun ctx sc ->
        calls := sc :: !calls;
        ctx.Interp.regs.(0) <- 1234)
      (fun b ->
        proc b "main" (fun b ->
            imm b r1 7;
            sys b Isa.Sys_self;
            mov b r5 r0;
            sys b Isa.Sys_yield;
            add b r0 r5 r0;
            halt b))
  in
  Alcotest.(check bool) "halts" true (outcome = `Halted);
  Alcotest.(check int) "two syscalls" 2 (List.length !calls);
  Alcotest.(check bool) "order" true (!calls = [ Isa.Sys_yield; Isa.Sys_self ])

let test_data_segment () =
  let b = create () in
  let s1 = cstring b "hello" in
  let s2 = cstring b "world!" in
  let s1' = cstring b "hello" in
  Alcotest.(check int) "interned" s1 s1';
  Alcotest.(check bool) "distinct strings distinct addrs" true (s1 <> s2);
  let w = words b 4 in
  Alcotest.(check int) "aligned" 0 (w land 7);
  proc b "main" (fun b -> halt b);
  let program = assemble b in
  let sp = As.create ~node:0 () in
  Program.load_data program sp;
  Alcotest.(check string) "string 1" "hello" (As.load_cstring sp s1);
  Alcotest.(check string) "string 2" "world!" (As.load_cstring sp s2);
  Alcotest.(check int) "words zeroed" 0 (As.load_word sp w)

let test_undefined_label () =
  let b = create () in
  proc b "main" (fun b -> jmp b "nowhere");
  Alcotest.(check bool) "undefined label rejected" true
    (try ignore (assemble b); false with Failure _ -> true)

let test_duplicate_label () =
  let b = create () in
  label b "x";
  Alcotest.(check bool) "duplicate label rejected" true
    (try label b "x"; false with Failure _ -> true)

let test_lea () =
  check_halted_r0 "lea loads a pc" 3 (fun b ->
      proc b "main" (fun b ->
          lea b r0 "target";
          halt b);
      nop b;
      label b "target";
      nop b)
    ~on_syscall:(fun _ _ -> ())

let test_context_copy () =
  let ctx = Interp.make_context ~entry:5 ~stack_top:1000 in
  ctx.Interp.regs.(3) <- 77;
  let c2 = Interp.copy_context ctx in
  c2.Interp.regs.(3) <- 0;
  Alcotest.(check int) "registers are deep-copied" 77 ctx.Interp.regs.(3);
  Alcotest.(check int) "pc copied" 5 c2.Interp.pc

(* ===== execution engines: differential + edge-case coverage =====

   The step interpreter is the oracle; Blocks must match it exactly —
   registers, sp/fp/pc, memory, outcome, instruction counts — for
   every program and every fuel chunking. *)

let scratch_base = 0x300000
let scratch_size = 16 * Layout.page_size

(* Full final-state snapshot of one run, compared across engines. *)
type snap = {
  s_outcome : string;
  s_regs : int array;
  s_sp : int;
  s_fp : int;
  s_pc : int;
  s_steps : int;
  s_syscalls : int;
  s_scratch_sum : int;
  s_dirty : bool list; (* per scratch page: store-path bookkeeping parity *)
}

let outcome_str = function
  | `Halted -> "halted"
  | `Fault f -> Format.asprintf "fault: %a" Interp.pp_fault f

(* Drive [program] under [kind] with the cyclic [fuels] schedule until
   halt/fault, handling the two syscalls the generator may emit. *)
let drive ?(entry = "main") ?(map_stack = true) kind program fuels : snap =
  let space = As.create ~node:0 () in
  Program.load_data program space;
  if map_stack then As.mmap space ~addr:stack_base ~size:65536;
  As.mmap space ~addr:scratch_base ~size:scratch_size;
  let ctx =
    Interp.make_context
      ~entry:(try Program.entry program entry with Not_found -> 0)
      ~stack_top:(stack_base + 65536)
  in
  let eng = Engine.create kind program in
  let steps = ref 0 in
  let syscalls = ref 0 in
  let fi = ref 0 in
  let next_fuel () =
    let f = fuels.(!fi mod Array.length fuels) in
    incr fi;
    f
  in
  let rec loop guard =
    if guard = 0 then failwith "drive: guard exhausted";
    let outcome, n = Engine.run eng ctx space ~fuel:(next_fuel ()) in
    steps := !steps + n;
    match outcome with
    | Interp.Running -> loop (guard - 1)
    | Interp.Syscall sc ->
      incr syscalls;
      (match sc with
       | Isa.Sys_self -> ctx.Interp.regs.(0) <- 4242
       | Isa.Sys_yield -> ()
       | _ -> failwith "drive: unexpected syscall");
      loop (guard - 1)
    | Interp.Halted -> `Halted
    | Interp.Fault f -> `Fault f
  in
  let outcome = loop 2_000_000 in
  let sum = ref 0 in
  let a = ref scratch_base in
  while !a < scratch_base + scratch_size do
    sum := !sum + (As.load_word space !a lxor (!a land 0xffff));
    a := !a + 8
  done;
  {
    s_outcome = outcome_str outcome;
    s_regs = Array.copy ctx.Interp.regs;
    s_sp = ctx.Interp.sp;
    s_fp = ctx.Interp.fp;
    s_pc = ctx.Interp.pc;
    s_steps = !steps;
    s_syscalls = !syscalls;
    s_scratch_sum = !sum;
    s_dirty =
      List.init (scratch_size / Layout.page_size) (fun i ->
          As.page_dirty space (scratch_base + (i * Layout.page_size)));
  }

let check_snap_eq what (ref_ : snap) (got : snap) =
  Alcotest.(check string) (what ^ ": outcome") ref_.s_outcome got.s_outcome;
  Alcotest.(check (array int)) (what ^ ": regs") ref_.s_regs got.s_regs;
  Alcotest.(check int) (what ^ ": sp") ref_.s_sp got.s_sp;
  Alcotest.(check int) (what ^ ": fp") ref_.s_fp got.s_fp;
  Alcotest.(check int) (what ^ ": pc") ref_.s_pc got.s_pc;
  Alcotest.(check int) (what ^ ": steps") ref_.s_steps got.s_steps;
  Alcotest.(check int) (what ^ ": syscalls") ref_.s_syscalls got.s_syscalls;
  Alcotest.(check int) (what ^ ": scratch") ref_.s_scratch_sum got.s_scratch_sum;
  Alcotest.(check (list bool)) (what ^ ": dirty pages") ref_.s_dirty got.s_dirty

(* Fuel chunkings exercising every engine boundary: per-instruction,
   tiny odd chunks (mid-block exhaustion and tail re-entry),
   quantum-like, and effectively unbounded. *)
let fuel_schedules =
  [ ("fuel=1", [| 1 |]);
    ("fuel=3,7", [| 3; 7 |]);
    ("fuel=50,1,13", [| 50; 1; 13 |]);
    ("fuel=200", [| 200 |]);
    ("fuel=big", [| 1_000_000 |]) ]

let all_kinds = [ Engine.Step; Engine.Blocks ]

let kind_name = function Engine.Step -> "step" | Engine.Blocks -> "blocks"

(* Compare every engine x fuel-schedule combination against the step
   oracle run per-instruction. *)
let check_differential what program =
  let ref_ = drive Engine.Step program [| 1 |] in
  List.iter
    (fun kind ->
      List.iter
        (fun (fname, fuels) ->
          let got = drive kind program fuels in
          check_snap_eq
            (Printf.sprintf "%s [%s %s]" what (kind_name kind) fname)
            ref_ got)
        fuel_schedules)
    all_kinds

(* -- seeded random program generator: structured, always terminating -- *)

let gen_program rng =
  let b = create () in
  let rnd n = Random.State.int rng n in
  let greg () = rnd 8 in (* r0..r7 scratch registers *)
  let arith b =
    match rnd 6 with
    | 0 -> imm b (greg ()) (rnd 1000 - 500)
    | 1 -> add b (greg ()) (greg ()) (greg ())
    | 2 -> sub b (greg ()) (greg ()) (greg ())
    | 3 -> mul b (greg ()) (greg ()) (greg ())
    | 4 -> addi b (greg ()) (greg ()) (rnd 100 - 50)
    | _ -> mov b (greg ()) (greg ())
  in
  let n_leaves = 1 + rnd 3 in
  proc b "main" (fun b ->
      imm b r8 scratch_base;
      imm b r9 0;
      let segments = 4 + rnd 8 in
      for _ = 1 to segments do
        match rnd 8 with
        | 0 | 1 ->
          for _ = 0 to rnd 6 do arith b done
        | 2 ->
          (* bounded counted loop *)
          let l = fresh_label b in
          imm b r11 (1 + rnd 9);
          label b l;
          for _ = 0 to rnd 3 do arith b done;
          addi b r11 r11 (-1);
          bne b r11 r9 l
        | 3 ->
          (* scratch-memory traffic, word-aligned, in-bounds *)
          let off = rnd (scratch_size / 8) * 8 in
          store b (greg ()) r8 off;
          load b (greg ()) r8 off
        | 4 ->
          let x = greg () and y = greg () in
          push b x;
          push b y;
          pop b y;
          pop b x
        | 5 -> call b (Printf.sprintf "leaf%d" (rnd n_leaves))
        | 6 -> sys b (if rnd 2 = 0 then Isa.Sys_yield else Isa.Sys_self)
        | _ ->
          (* guarded division: divisor forced nonzero *)
          imm b r5 (1 + rnd 20);
          (if rnd 2 = 0 then div b (greg ()) (greg ()) r5
           else mod_ b (greg ()) (greg ()) r5)
      done;
      halt b);
  for i = 0 to n_leaves - 1 do
    label b (Printf.sprintf "leaf%d" i);
    if rnd 2 = 0 then begin
      (* frame-using leaf: locals below fp *)
      enter b (8 * (1 + rnd 4));
      fp b r10;
      store b (greg ()) r10 (-8);
      for _ = 0 to rnd 3 do arith b done;
      load b (greg ()) r10 (-8);
      leave b
    end
    else
      for _ = 0 to rnd 4 do arith b done;
    ret b
  done;
  assemble b

let test_differential_random () =
  for seed = 1 to 25 do
    let rng = Random.State.make [| 0xbeef; seed |] in
    let program = gen_program rng in
    check_differential (Printf.sprintf "seed %d" seed) program
  done

(* Random programs that end in a guest fault: the exact fault, faulting
   pc and partially mutated sp/fp must agree across engines. *)
let test_differential_faulting () =
  for seed = 1 to 12 do
    let rng = Random.State.make [| 0xdead; seed |] in
    let b = create () in
    let rnd n = Random.State.int rng n in
    proc b "main" (fun b ->
        imm b r8 scratch_base;
        imm b r9 0;
        for _ = 0 to 2 + rnd 4 do
          imm b (rnd 8) (rnd 100)
        done;
        (match rnd 5 with
         | 0 -> div b r0 r1 r9 (* division by zero *)
         | 1 ->
           imm b r4 0x666000;
           load b r0 r4 0 (* unmapped load *)
         | 2 ->
           imm b r4 0x666000;
           store b r1 r4 8 (* unmapped store *)
         | 3 ->
           (* Push with sp relocated into the void: sp mutates, store
              faults — the partial mutation must be identical *)
           imm b r4 0x777000;
           mov b r5 r4;
           sp b r6;
           push b r6 (* fine: stack still mapped *)
         | _ -> mod_ b r0 r1 r9);
        halt b);
    let program = assemble b in
    check_differential (Printf.sprintf "faulting seed %d" seed) program
  done

(* -- engine boundary edge cases -- *)

(* Raw images (hand-numbered pcs) pin down exact fault pcs. *)
let raw code = Program.make ~code ~data:Bytes.empty ~entries:[ ("main", 0) ]

let test_edge_wild_jmp () =
  (* Jmp far out of range: every engine faults Wild_pc 12345 with pc
     left at the wild value. *)
  let program = raw [| Isa.Jmp 12345 |] in
  List.iter
    (fun kind ->
      let s = drive kind program [| 10 |] in
      Alcotest.(check string)
        (kind_name kind ^ ": wild jmp")
        "fault: Illegal program counter 12345" s.s_outcome;
      Alcotest.(check int) (kind_name kind ^ ": pc") 12345 s.s_pc)
    all_kinds

let test_edge_ret_wild () =
  (* Ret to an out-of-range pc loaded from the stack, mid-block. *)
  let program =
    raw [| Isa.Imm (4, 9999); Isa.Push 4; Isa.Ret; Isa.Halt |]
  in
  check_differential "ret to wild pc" program;
  let s = drive Engine.Blocks program [| 10 |] in
  Alcotest.(check string) "ret wild faults" "fault: Illegal program counter 9999"
    s.s_outcome

let test_edge_negative_jmp () =
  let program = raw [| Isa.Jmp (-3) |] in
  check_differential "jmp to negative pc" program

let test_edge_enter_zero_negative () =
  (* Enter with zero and negative frame sizes: sp/fp arithmetic must
     match the oracle exactly (negative n grows sp). *)
  let program =
    raw
      [|
        Isa.Enter 0; Isa.Sp 4; Isa.Fp 5; Isa.Leave;
        Isa.Enter (-16); Isa.Sp 6; Isa.Fp 7; Isa.Leave;
        Isa.Halt;
      |]
  in
  check_differential "enter 0 / enter -16" program

let test_edge_fault_last_in_block () =
  (* The faulting Store is the last body instruction of its block (a
     Jmp follows): fault pc and completed-step count must match. *)
  let program =
    raw [| Isa.Imm (4, 0x666000); Isa.Store (5, 4, 0); Isa.Jmp 0 |]
  in
  check_differential "fault on last instruction of a block" program;
  let s = drive Engine.Blocks program [| 100 |] in
  Alcotest.(check int) "fault pc is the store" 1 s.s_pc;
  Alcotest.(check int) "steps before the fault" 1 s.s_steps

let test_edge_fault_terminator () =
  (* Call whose return-address push faults (unmapped stack): the block
     terminator itself faults, with sp already decremented. *)
  let program = raw [| Isa.Call 0 |] in
  List.iter
    (fun kind ->
      let s = drive ~map_stack:false kind program [| 10 |] in
      Alcotest.(check string)
        (kind_name kind ^ ": call faults")
        (Printf.sprintf "fault: Segmentation fault (address 0x%x)"
           (stack_base + 65536 - 8))
        s.s_outcome;
      Alcotest.(check int) (kind_name kind ^ ": pc") 0 s.s_pc;
      Alcotest.(check int)
        (kind_name kind ^ ": sp decremented")
        (stack_base + 65536 - 8) s.s_sp)
    all_kinds

let test_edge_syscall_branch_target () =
  (* A Sys instruction as a branch target is a one-instruction block. *)
  let b = create () in
  proc b "main" (fun b ->
      imm b r0 0;
      imm b r1 0;
      beq b r0 r1 "t";
      halt b;
      label b "t";
      sys b Isa.Sys_yield;
      sys b Isa.Sys_self;
      halt b);
  check_differential "syscall as branch target" (assemble b)

let test_edge_code_end_fallthrough () =
  (* Straight-line code running off the end of the image: wild fault at
     pc = code_size under every engine and chunking. *)
  let program = raw [| Isa.Imm (0, 1); Isa.Addi (0, 0, 2); Isa.Nop |] in
  check_differential "fall off code end" program

let test_fault_pc_reporting () =
  (* Satellite fix: ctx.pc must point AT the faulting instruction, not
     one past it — for the oracle and both fast engines. *)
  let program =
    raw [| Isa.Imm (1, 1); Isa.Imm (2, 0); Isa.Div (3, 1, 2); Isa.Halt |]
  in
  List.iter
    (fun kind ->
      let s = drive kind program [| 100 |] in
      Alcotest.(check string)
        (kind_name kind ^ ": div fault")
        "fault: Division by zero" s.s_outcome;
      Alcotest.(check int)
        (kind_name kind ^ ": pc at faulting div")
        2 s.s_pc)
    all_kinds

let test_tail_every_split () =
  (* One straight-line block using every body op, ending in Halt. A
     first slice of k < block-length fuel runs through the exact-fuel
     tail and stops after instruction k-1; the rest of the block then
     runs as its own lazily compiled block. Every split point must
     match the oracle. *)
  let code =
    [|
      Isa.Imm (8, scratch_base); Isa.Imm (1, 91); Isa.Imm (2, 7); Isa.Mov (3, 1);
      Isa.Add (4, 1, 2); Isa.Sub (5, 1, 2); Isa.Mul (6, 1, 2); Isa.Div (7, 1, 2);
      Isa.Mod (0, 1, 2); Isa.Addi (3, 3, 5); Isa.Store (4, 8, 16);
      Isa.Load (5, 8, 16); Isa.Push 6; Isa.Enter 24; Isa.Sp 9; Isa.Fp 10;
      Isa.Store (7, 10, -8); Isa.Load (11, 10, -8); Isa.Leave; Isa.Pop 12;
      Isa.Nop; Isa.Halt;
    |]
  in
  let program = raw code in
  check_differential "straight line" program;
  let ref_ = drive Engine.Step program [| 1 |] in
  for k = 1 to Array.length code - 1 do
    check_snap_eq
      (Printf.sprintf "straight line [blocks split at %d]" k)
      ref_
      (drive Engine.Blocks program [| k; 1_000_000 |])
  done

let test_decode_rejects_bad_reg () =
  Alcotest.(check bool) "register out of range rejected" true
    (try
       ignore (Decode.of_code [| Isa.Mov (0, 99) |]);
       false
     with Invalid_argument _ -> true)

let tests =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "loop with branches" `Quick test_branches;
    Alcotest.test_case "all branch kinds" `Quick test_branch_kinds;
    Alcotest.test_case "load/store" `Quick test_memory;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "call/ret" `Quick test_call_ret;
    Alcotest.test_case "recursion with frames" `Quick test_frames;
    Alcotest.test_case "frame chain in memory" `Quick test_enter_leave_chain;
    Alcotest.test_case "division by zero" `Quick test_div_by_zero;
    Alcotest.test_case "guest segfault" `Quick test_segv;
    Alcotest.test_case "wild pc" `Quick test_wild_jump_faults;
    Alcotest.test_case "syscall boundary" `Quick test_syscall_boundary;
    Alcotest.test_case "data segment" `Quick test_data_segment;
    Alcotest.test_case "undefined label" `Quick test_undefined_label;
    Alcotest.test_case "duplicate label" `Quick test_duplicate_label;
    Alcotest.test_case "lea" `Quick test_lea;
    Alcotest.test_case "context copy" `Quick test_context_copy;
    Alcotest.test_case "engines: random differential" `Quick test_differential_random;
    Alcotest.test_case "engines: faulting differential" `Quick test_differential_faulting;
    Alcotest.test_case "engines: wild jmp" `Quick test_edge_wild_jmp;
    Alcotest.test_case "engines: ret to wild pc" `Quick test_edge_ret_wild;
    Alcotest.test_case "engines: negative jmp" `Quick test_edge_negative_jmp;
    Alcotest.test_case "engines: enter 0/negative" `Quick test_edge_enter_zero_negative;
    Alcotest.test_case "engines: fault at block end" `Quick test_edge_fault_last_in_block;
    Alcotest.test_case "engines: faulting terminator" `Quick test_edge_fault_terminator;
    Alcotest.test_case "engines: syscall branch target" `Quick test_edge_syscall_branch_target;
    Alcotest.test_case "engines: code-end fallthrough" `Quick test_edge_code_end_fallthrough;
    Alcotest.test_case "engines: fault pc reporting" `Quick test_fault_pc_reporting;
    Alcotest.test_case "engines: tail at every split" `Quick test_tail_every_split;
    Alcotest.test_case "decode: register validation" `Quick test_decode_rejects_bad_reg;
  ]

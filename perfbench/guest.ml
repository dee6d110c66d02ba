(* The benchmark's guest programs, written against the MiniVM assembler,
   and the host-side predictors of the self-check line each thread
   prints. Every thread prints a key that is unique within its run
   (derived from its seeded argument) followed by a value the predictor
   reproduces exactly, so a wrong or missing line names the thread that
   failed. *)

open Pm2_mvm.Asm
module Isa = Pm2_mvm.Isa

(* The guest LCG (glibc constants, 31-bit state): x * a stays below
   2^62, inside OCaml's native int. *)
let lcg_a = 1103515245
let lcg_c = 12345
let lcg_m = 1 lsl 31
let lcg x = ((x * lcg_a) + lcg_c) mod lcg_m
let prime = 1_000_000_007

let emit_lcg b ~x =
  imm b r4 lcg_a;
  mul b x x r4;
  addi b x x lcg_c;
  imm b r4 lcg_m;
  mod_ b x x r4

(* {1 compute: ALU, load/store and call kernel}

   arg = x0 lsl iters_bits lor iters. A 16-word stack buffer is written
   and read back every iteration, a mixing procedure is called every 8th
   iteration and the thread yields every [yield_every]th. Prints
   "c <x0> <acc>". *)

let iters_bits = 20
let yield_every = 256
let compute_arg ~x0 ~iters = (x0 lsl iters_bits) lor iters

let emit_compute b =
  let fmt = cstring b "c %d %d" in
  let buf_addr ~index =
    (* r6 <- fp - 128 + 8 * (index mod 16) *)
    imm b r4 16;
    mod_ b r5 index r4;
    imm b r4 8;
    mul b r5 r5 r4;
    fp b r6;
    add b r6 r6 r5
  in
  proc b "pb_compute" (fun b ->
      enter b 128;
      imm b r4 (1 lsl iters_bits);
      mod_ b r8 r1 r4;
      div b r10 r1 r4;
      mov b r12 r10;
      imm b r11 0;
      imm b r9 0;
      label b "pbc.zero";
      imm b r4 16;
      bge b r9 r4 "pbc.zeroed";
      buf_addr ~index:r9;
      imm b r7 0;
      store b r7 r6 (-128);
      addi b r9 r9 1;
      jmp b "pbc.zero";
      label b "pbc.zeroed";
      imm b r9 0;
      label b "pbc.loop";
      bge b r9 r8 "pbc.done";
      emit_lcg b ~x:r10;
      buf_addr ~index:r9;
      store b r10 r6 (-128);
      addi b r3 r9 7;
      buf_addr ~index:r3;
      load b r7 r6 (-128);
      add b r11 r11 r7;
      imm b r4 8;
      mod_ b r5 r9 r4;
      imm b r4 0;
      bne b r5 r4 "pbc.nocall";
      call b "pbc.mix";
      label b "pbc.nocall";
      imm b r4 yield_every;
      mod_ b r5 r9 r4;
      imm b r4 (yield_every - 1);
      bne b r5 r4 "pbc.noyield";
      sys b Isa.Sys_yield;
      label b "pbc.noyield";
      addi b r9 r9 1;
      jmp b "pbc.loop";
      label b "pbc.done";
      imm b r1 fmt;
      mov b r2 r12;
      mov b r3 r11;
      sys b Isa.Sys_print;
      leave b;
      halt b;
      (* acc <- (acc * 31 + x) mod prime *)
      label b "pbc.mix";
      imm b r4 31;
      mul b r11 r11 r4;
      add b r11 r11 r10;
      imm b r4 prime;
      mod_ b r11 r11 r4;
      ret b)

let predict_compute ~x0 ~iters =
  let buf = Array.make 16 0 in
  let x = ref x0 and acc = ref 0 in
  for i = 0 to iters - 1 do
    x := lcg !x;
    buf.(i mod 16) <- !x;
    acc := !acc + buf.((i + 7) mod 16);
    if i mod 8 = 0 then acc := ((!acc * 31) + !x) mod prime
  done;
  Printf.sprintf "c %d %d" x0 !acc

(* {1 swarm: a worker with seeded CPU demand}

   arg = id * demand_mod + demand (µs). Burns the demand in 200 µs
   chunks, yielding after each, then prints "w <id> <chunks>". *)

let demand_mod = 16384
let chunk_us = 200
let worker_arg ~id ~demand = (id * demand_mod) + demand

let emit_worker b =
  let fmt = cstring b "w %d %d" in
  proc b "pb_worker" (fun b ->
      imm b r4 demand_mod;
      mod_ b r8 r1 r4;
      div b r12 r1 r4;
      imm b r9 0;
      label b "pbw.loop";
      imm b r4 0;
      beq b r8 r4 "pbw.done";
      imm b r5 chunk_us;
      blt b r8 r5 "pbw.small";
      mov b r6 r5;
      jmp b "pbw.burn";
      label b "pbw.small";
      mov b r6 r8;
      label b "pbw.burn";
      mov b r1 r6;
      sys b Isa.Sys_workload;
      sub b r8 r8 r6;
      addi b r9 r9 1;
      sys b Isa.Sys_yield;
      jmp b "pbw.loop";
      label b "pbw.done";
      imm b r1 fmt;
      mov b r2 r12;
      mov b r3 r9;
      sys b Isa.Sys_print;
      halt b)

let predict_worker ~id ~demand =
  Printf.sprintf "w %d %d" id ((demand + chunk_us - 1) / chunk_us)

(* {1 isochurn: an iso-heap linked list that migrates}

   arg = x0 lsl 8 lor k. The thread isomallocs k list cells of seeded
   sizes (below a page, up to half a slot, or multi-slot), isofrees the
   cells at odd positions, isomallocs k/2 more, then hops [hops] times
   along a seeded route over [churn_nodes] nodes, checksumming the list
   after each hop and printing "i <x0*16+hop> <checksum>". *)

let churn_nodes = 8
let hops = 4
let churn_arg ~x0 ~k = (x0 lsl 8) lor k

(* Size of one allocation. Its class is set by the grow loop's countdown
   (one multi-slot cell per thread, every 4th cell medium, the rest
   below a page), so every seed allocates the same mix; the size within
   the class comes from the LCG state after its step. *)
let churn_size ~countdown x =
  let s = x / 32 in
  if countdown mod 32 = 19 then 65536 + (s mod 65536) (* 2 or 3 slots: negotiated *)
  else if countdown mod 4 = 1 then 4096 + (s mod 28672)
  else 16 + (s mod 4000)

let churn_value x = x mod 1000003

let emit_churn b =
  let fmt = cstring b "i %d %d" in
  proc b "pb_churn" (fun b ->
      imm b r4 256;
      mod_ b r8 r1 r4;
      div b r10 r1 r4;
      mov b r12 r10;
      imm b r7 0;
      mov b r9 r8;
      call b "pbi.grow";
      (* unlink and isofree the cells at odd positions *)
      mov b r6 r7;
      imm b r5 0;
      imm b r9 0;
      label b "pbi.free";
      imm b r4 0;
      beq b r6 r4 "pbi.freed";
      load b r11 r6 0;
      imm b r4 2;
      mod_ b r3 r9 r4;
      imm b r4 0;
      beq b r3 r4 "pbi.keep";
      store b r11 r5 0;
      mov b r1 r6;
      sys b Isa.Sys_isofree;
      jmp b "pbi.adv";
      label b "pbi.keep";
      mov b r5 r6;
      label b "pbi.adv";
      mov b r6 r11;
      addi b r9 r9 1;
      jmp b "pbi.free";
      label b "pbi.freed";
      imm b r4 2;
      div b r9 r8 r4;
      call b "pbi.grow";
      imm b r11 0;
      label b "pbi.hop";
      imm b r4 hops;
      bge b r11 r4 "pbi.done";
      emit_lcg b ~x:r10;
      imm b r4 churn_nodes;
      mod_ b r1 r10 r4;
      mov b r3 r1;
      sys b Isa.Sys_node;
      mov b r1 r3;
      bne b r1 r0 "pbi.go";
      addi b r1 r1 1;
      imm b r4 churn_nodes;
      mod_ b r1 r1 r4;
      label b "pbi.go";
      sys b Isa.Sys_migrate;
      imm b r5 0;
      mov b r6 r7;
      label b "pbi.sum";
      imm b r4 0;
      beq b r6 r4 "pbi.summed";
      load b r3 r6 8;
      imm b r4 7;
      mul b r5 r5 r4;
      add b r5 r5 r3;
      imm b r4 prime;
      mod_ b r5 r5 r4;
      load b r6 r6 0;
      jmp b "pbi.sum";
      label b "pbi.summed";
      imm b r4 16;
      mul b r2 r12 r4;
      add b r2 r2 r11;
      mov b r3 r5;
      imm b r1 fmt;
      sys b Isa.Sys_print;
      addi b r11 r11 1;
      jmp b "pbi.hop";
      label b "pbi.done";
      halt b;
      (* push r9 fresh cells onto the list at r7 *)
      label b "pbi.grow";
      imm b r4 0;
      beq b r9 r4 "pbi.grown";
      emit_lcg b ~x:r10;
      imm b r4 32;
      div b r6 r10 r4;
      mod_ b r5 r9 r4;
      imm b r4 19;
      bne b r5 r4 "pbi.notlarge";
      imm b r4 65536;
      mod_ b r6 r6 r4;
      addi b r1 r6 65536;
      jmp b "pbi.alloc";
      label b "pbi.notlarge";
      imm b r4 4;
      mod_ b r5 r9 r4;
      imm b r4 1;
      bne b r5 r4 "pbi.small";
      imm b r4 28672;
      mod_ b r6 r6 r4;
      addi b r1 r6 4096;
      jmp b "pbi.alloc";
      label b "pbi.small";
      imm b r4 4000;
      mod_ b r6 r6 r4;
      addi b r1 r6 16;
      label b "pbi.alloc";
      sys b Isa.Sys_isomalloc;
      store b r7 r0 0;
      imm b r4 1000003;
      mod_ b r5 r10 r4;
      store b r5 r0 8;
      mov b r7 r0;
      addi b r9 r9 (-1);
      jmp b "pbi.grow";
      label b "pbi.grown";
      ret b)

(* The allocation script of one churn thread: the sizes of the first k
   cells, the positions freed (in list order, head = 0), and the sizes
   of the k/2 refill cells; plus the list checksum. *)
type churn_plan = {
  first : int list; (* sizes, allocation order *)
  refill : int list;
  checksum : int;
}

let churn_plan ~x0 ~k =
  let x = ref x0 in
  let grow n list =
    let sizes = ref [] and list = ref list in
    for countdown = n downto 1 do
      x := lcg !x;
      sizes := churn_size ~countdown !x :: !sizes;
      list := churn_value !x :: !list
    done;
    (List.rev !sizes, !list)
  in
  let first, list = grow k [] in
  let list = List.filteri (fun i _ -> i mod 2 = 0) list in
  let refill, list = grow (k / 2) list in
  let checksum = List.fold_left (fun cs v -> ((cs * 7) + v) mod prime) 0 list in
  { first; refill; checksum }

let predict_churn ~x0 ~k =
  let p = churn_plan ~x0 ~k in
  List.init hops (fun h -> Printf.sprintf "i %d %d" ((x0 * 16) + h) p.checksum)

(* The combined program image every cluster workload loads. *)
let image () =
  Pm2_core.Pm2.build (fun b ->
      emit_compute b;
      emit_worker b;
      emit_churn b)

(* Fast MVM execution over the pre-decoded form.

   Two machines behind one [run] surface, bit-exact against each other:

   - [Step]   — per-instruction [Interp.step], the reference oracle the
                differential tests and the engine-parity bench compare
                against.
   - [Blocks] — basic-block closure compilation: decoded code is split
                into blocks at load time and each block becomes one
                chained OCaml closure (per-instruction closures fused
                nose to tail, branch targets resolved to pcs), cached
                per entry pc, so a hot loop is a handful of closure
                calls per iteration. A block longer than the remaining
                fuel runs its first [fuel] ops through [tail], a
                one-op-at-a-time loop. Both inline a one-entry page
                cache into the guest load/store path.

   Exactness contract (what "bit-exact" means here):
   - fuel is an exact instruction budget. An instruction executes only
     while fuel > 0; every Running-outcome instruction consumes 1 fuel
     and counts 1 step; Sys/Halt/fault instructions consume none and
     count none (the scheduler charges syscalls separately) — precisely
     the accounting of the historic per-[step] scheduler loop, so
     preemption points, requeues and virtual time are byte-identical.
   - the fuel check precedes the wild-pc check, as in the old loop: a
     thread out of budget requeues first and faults next quantum.
   - faults restore the faulting instruction's pc and preserve partial
     sp/fp mutations (a [Push] whose store faults keeps the decremented
     sp), exactly like the fixed {!Interp.step}.
   - [st] (and with it the page cache) is built fresh per [run] call:
     no munmap/scrub/epoch-advance can happen *within* a run (only guest
     instructions execute; syscalls end the run), so cached page buffers
     are structurally valid for the whole slice, and migration /
     checkpoint / restore paths between runs can never observe or keep a
     stale page handle. Write-cache hits skip the dirty re-mark because
     the miss already stamped the page with the current epoch and
     epochs cannot advance mid-run. *)

module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout
module A = Array

type kind =
  | Step
  | Blocks

(* Division-by-zero (and any future non-memory fault) unwinds block
   closures through this; segfaults unwind as [As.Segfault]. *)
exception Guest_fault of Interp.fault

(* Per-[run] machine state. [regs] aliases the thread context's register
   file (mutated in place); [sp]/[fp] are committed back at exit. *)
type st = {
  regs : int array;
  mutable sp : int;
  mutable fp : int;
  space : As.t;
  mutable steps : int; (* completed Running-outcome instructions *)
  mutable fpc : int; (* pc of the risky instr in flight *)
  mutable fsteps : int; (* [steps] value to restore on fault *)
  mutable rp : int; (* read-cached page number, -1 = none *)
  mutable rb : Bytes.t;
  mutable wp : int; (* write-cached page number, -1 = none *)
  mutable wb : Bytes.t;
}

type bterm =
  | Bt_cont (* b_exec returns the next pc *)
  | Bt_sys of Isa.syscall * int (* resume pc (after the Sys) *)
  | Bt_halt of int (* pc after the Halt *)

type block = {
  b_total : int; (* instructions in the block, terminator included *)
  b_regulars : int; (* of them, Running-outcome ones (fuel consumers) *)
  b_term : bterm;
  b_exec : st -> int; (* next pc for Bt_cont; ignored otherwise *)
}

(* Sentinel for not-yet-compiled block slots; tested by physical
   equality, never executed. *)
let uncompiled : block =
  { b_total = 0; b_regulars = 0; b_term = Bt_cont; b_exec = (fun _ -> 0) }

type t = {
  kind : kind;
  program : Program.t;
  d : Decode.t;
  blocks : block array;
      (* entry pc -> compiled block ([Blocks]); [uncompiled] sentinel
         (physical equality) marks not-yet-compiled entries — cheaper to
         test on the hot path than an option deref *)
}

(* The tail loop and the block closures match on int literals; pin
   them to the named constants once, at module init. *)
let () =
  assert
    (Decode.stride = 4 && Decode.op_imm = 0 && Decode.op_mov = 1
   && Decode.op_add = 2 && Decode.op_sub = 3 && Decode.op_mul = 4
   && Decode.op_div = 5 && Decode.op_mod = 6 && Decode.op_addi = 7
   && Decode.op_load = 8 && Decode.op_store = 9 && Decode.op_push = 10
   && Decode.op_pop = 11 && Decode.op_sp = 12 && Decode.op_fp = 13
   && Decode.op_jmp = 14 && Decode.op_beq = 15 && Decode.op_bne = 16
   && Decode.op_blt = 17 && Decode.op_bge = 18 && Decode.op_call = 19
   && Decode.op_ret = 20 && Decode.op_enter = 21 && Decode.op_leave = 22
   && Decode.op_sys = 23 && Decode.op_halt = 24 && Decode.op_nop = 25)

(* ===== inlined guest word access (the fast path) ===== *)

let page_mask = Layout.page_size - 1

let last_word_off = Layout.page_size - 8

(* Same arithmetic as [As.load_word]/[store_word], with the page lookup
   cached in [st] instead of re-probed per access; words straddling a
   page boundary (off > page_size-8) take the byte-wise slow path. *)
let[@inline] ld st a =
  let off = a land page_mask in
  if off <= last_word_off then begin
    let p = a lsr Layout.page_shift in
    let b =
      if p = st.rp then st.rb
      else begin
        let b = As.page_for_read st.space a in
        st.rp <- p;
        st.rb <- b;
        b
      end
    in
    Int64.to_int (Bytes.get_int64_le b off)
  end
  else As.load_word st.space a

let[@inline] sd st a v =
  let off = a land page_mask in
  if off <= last_word_off then begin
    let p = a lsr Layout.page_shift in
    let b =
      if p = st.wp then st.wb
      else begin
        let b = As.page_for_write st.space a in
        st.wp <- p;
        st.wb <- b;
        b
      end
    in
    Bytes.set_int64_le b off (Int64.of_int v)
  end
  else As.store_word st.space a v

(* ===== the exact-fuel tail ===== *)

(* Run the first [fuel] instructions of the block entered at [pc], one
   at a time: the driver calls this only when [fuel] is less than the
   block's length, so every instruction reached is a body op — never the
   terminator, never past the end of code. Faults unwind to the driver's
   handler through the same [fpc]/[fsteps] restart point the block
   closures record. Returns the pc of the next instruction to execute. *)
let tail (d : Decode.t) (st : st) ~pc ~fuel =
  let code = d.Decode.code in
  let r = st.regs in
  for ipc = pc to pc + fuel - 1 do
    let base = ipc * 4 in
    let a = Array.unsafe_get code (base + 1) in
    let b = Array.unsafe_get code (base + 2) in
    let c = Array.unsafe_get code (base + 3) in
    st.fpc <- ipc;
    st.fsteps <- st.steps;
    (match Array.unsafe_get code base with
     | 0 (* Imm *) -> Array.unsafe_set r a b
     | 1 (* Mov *) -> Array.unsafe_set r a (Array.unsafe_get r b)
     | 2 (* Add *) ->
       Array.unsafe_set r a (Array.unsafe_get r b + Array.unsafe_get r c)
     | 3 (* Sub *) ->
       Array.unsafe_set r a (Array.unsafe_get r b - Array.unsafe_get r c)
     | 4 (* Mul *) ->
       Array.unsafe_set r a (Array.unsafe_get r b * Array.unsafe_get r c)
     | 5 (* Div *) ->
       let dv = Array.unsafe_get r c in
       if dv = 0 then raise (Guest_fault Interp.Division_by_zero);
       Array.unsafe_set r a (Array.unsafe_get r b / dv)
     | 6 (* Mod *) ->
       let dv = Array.unsafe_get r c in
       if dv = 0 then raise (Guest_fault Interp.Division_by_zero);
       Array.unsafe_set r a (Array.unsafe_get r b mod dv)
     | 7 (* Addi *) -> Array.unsafe_set r a (Array.unsafe_get r b + c)
     | 8 (* Load *) -> Array.unsafe_set r a (ld st (Array.unsafe_get r b + c))
     | 9 (* Store *) -> sd st (Array.unsafe_get r b + c) (Array.unsafe_get r a)
     | 10 (* Push *) ->
       st.sp <- st.sp - 8;
       sd st st.sp (Array.unsafe_get r a)
     | 11 (* Pop *) ->
       Array.unsafe_set r a (ld st st.sp);
       st.sp <- st.sp + 8
     | 12 (* Sp *) -> Array.unsafe_set r a st.sp
     | 13 (* Fp *) -> Array.unsafe_set r a st.fp
     | 21 (* Enter *) ->
       st.sp <- st.sp - 8;
       sd st st.sp st.fp;
       st.fp <- st.sp;
       st.sp <- st.sp - a
     | 22 (* Leave *) ->
       st.sp <- st.fp;
       st.fp <- ld st st.sp;
       st.sp <- st.sp + 8
     | 25 (* Nop *) -> ()
     | _ -> assert false);
    st.steps <- st.steps + 1
  done;
  pc + fuel

(* ===== layer 3: basic-block closure compilation ===== *)

(* Compile the decoded instruction at [ipc] (block-relative index [bi])
   into one closure that performs the op and tail-calls its continuation
   [k] (the rest of the block, already compiled). Continuation-passing
   keeps the per-instruction cost to a single indirect tail call — no
   wrapper closures between instructions. Ops that can fault record the
   restart point (fpc / steps-so-far) first; the block driver uses it to
   report the exact faulting instruction and step count. *)
let compile_instr (d : Decode.t) ~ipc ~bi (k : st -> int) : st -> int =
  let base = ipc * 4 in
  let code = d.Decode.code in
  let a = code.(base + 1) in
  let b = code.(base + 2) in
  let c = code.(base + 3) in
  match code.(base) with
  | 0 (* Imm *) ->
    fun st ->
      Array.unsafe_set st.regs a b;
      k st
  | 1 (* Mov *) ->
    fun st ->
      Array.unsafe_set st.regs a (Array.unsafe_get st.regs b);
      k st
  | 2 (* Add *) ->
    fun st ->
      Array.unsafe_set st.regs a
        (Array.unsafe_get st.regs b + Array.unsafe_get st.regs c);
      k st
  | 3 (* Sub *) ->
    fun st ->
      Array.unsafe_set st.regs a
        (Array.unsafe_get st.regs b - Array.unsafe_get st.regs c);
      k st
  | 4 (* Mul *) ->
    fun st ->
      Array.unsafe_set st.regs a
        (Array.unsafe_get st.regs b * Array.unsafe_get st.regs c);
      k st
  | 5 (* Div *) ->
    fun st ->
      st.fpc <- ipc;
      st.fsteps <- st.steps + bi;
      let dv = Array.unsafe_get st.regs c in
      if dv = 0 then raise (Guest_fault Interp.Division_by_zero);
      Array.unsafe_set st.regs a (Array.unsafe_get st.regs b / dv);
      k st
  | 6 (* Mod *) ->
    fun st ->
      st.fpc <- ipc;
      st.fsteps <- st.steps + bi;
      let dv = Array.unsafe_get st.regs c in
      if dv = 0 then raise (Guest_fault Interp.Division_by_zero);
      Array.unsafe_set st.regs a (Array.unsafe_get st.regs b mod dv);
      k st
  | 7 (* Addi *) ->
    fun st ->
      Array.unsafe_set st.regs a (Array.unsafe_get st.regs b + c);
      k st
  | 8 (* Load *) ->
    fun st ->
      st.fpc <- ipc;
      st.fsteps <- st.steps + bi;
      Array.unsafe_set st.regs a (ld st (Array.unsafe_get st.regs b + c));
      k st
  | 9 (* Store *) ->
    fun st ->
      st.fpc <- ipc;
      st.fsteps <- st.steps + bi;
      sd st (Array.unsafe_get st.regs b + c) (Array.unsafe_get st.regs a);
      k st
  | 10 (* Push *) ->
    fun st ->
      st.fpc <- ipc;
      st.fsteps <- st.steps + bi;
      st.sp <- st.sp - 8;
      sd st st.sp (Array.unsafe_get st.regs a);
      k st
  | 11 (* Pop *) ->
    fun st ->
      st.fpc <- ipc;
      st.fsteps <- st.steps + bi;
      Array.unsafe_set st.regs a (ld st st.sp);
      st.sp <- st.sp + 8;
      k st
  | 12 (* Sp *) ->
    fun st ->
      Array.unsafe_set st.regs a st.sp;
      k st
  | 13 (* Fp *) ->
    fun st ->
      Array.unsafe_set st.regs a st.fp;
      k st
  | 21 (* Enter *) ->
    fun st ->
      st.fpc <- ipc;
      st.fsteps <- st.steps + bi;
      st.sp <- st.sp - 8;
      sd st st.sp st.fp;
      st.fp <- st.sp;
      st.sp <- st.sp - a;
      k st
  | 22 (* Leave *) ->
    fun st ->
      st.fpc <- ipc;
      st.fsteps <- st.steps + bi;
      st.sp <- st.fp;
      st.fp <- ld st st.sp;
      st.sp <- st.sp + 8;
      k st
  | 25 (* Nop *) -> k
  | _ ->
    (* terminators never appear as block bodies *)
    assert false

(* The six "simple" ALU ops: register-only, never fault, never touch
   sp/fp — fusable into superinstruction closures with no effect on the
   exactness contract (no fpc/fsteps bookkeeping needed). *)
let is_simple op = op = 0 || op = 1 || op = 2 || op = 3 || op = 4 || op = 7

(* One closure executing two adjacent simple ops — halves the indirect
   calls on arithmetic runs. Written-then-read dependences are honoured
   because both ops mutate the same register array in order. *)
let compile_pair code base1 base2 (k : st -> int) : st -> int =
  let op1 = code.(base1) and a1 = code.(base1 + 1)
  and b1 = code.(base1 + 2) and c1 = code.(base1 + 3) in
  let op2 = code.(base2) and a2 = code.(base2 + 1)
  and b2 = code.(base2 + 2) and c2 = code.(base2 + 3) in
  match op1, op2 with
  | 0, 0 -> fun st -> let r = st.regs in A.unsafe_set r a1 b1; A.unsafe_set r a2 b2; k st
  | 0, 1 -> fun st -> let r = st.regs in A.unsafe_set r a1 b1; A.unsafe_set r a2 (A.unsafe_get r b2); k st
  | 0, 2 -> fun st -> let r = st.regs in A.unsafe_set r a1 b1; A.unsafe_set r a2 (A.unsafe_get r b2 + A.unsafe_get r c2); k st
  | 0, 3 -> fun st -> let r = st.regs in A.unsafe_set r a1 b1; A.unsafe_set r a2 (A.unsafe_get r b2 - A.unsafe_get r c2); k st
  | 0, 4 -> fun st -> let r = st.regs in A.unsafe_set r a1 b1; A.unsafe_set r a2 (A.unsafe_get r b2 * A.unsafe_get r c2); k st
  | 0, 7 -> fun st -> let r = st.regs in A.unsafe_set r a1 b1; A.unsafe_set r a2 (A.unsafe_get r b2 + c2); k st
  | 1, 0 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1); A.unsafe_set r a2 b2; k st
  | 1, 1 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1); A.unsafe_set r a2 (A.unsafe_get r b2); k st
  | 1, 2 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1); A.unsafe_set r a2 (A.unsafe_get r b2 + A.unsafe_get r c2); k st
  | 1, 3 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1); A.unsafe_set r a2 (A.unsafe_get r b2 - A.unsafe_get r c2); k st
  | 1, 4 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1); A.unsafe_set r a2 (A.unsafe_get r b2 * A.unsafe_get r c2); k st
  | 1, 7 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1); A.unsafe_set r a2 (A.unsafe_get r b2 + c2); k st
  | 2, 0 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 + A.unsafe_get r c1); A.unsafe_set r a2 b2; k st
  | 2, 1 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 + A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2); k st
  | 2, 2 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 + A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2 + A.unsafe_get r c2); k st
  | 2, 3 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 + A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2 - A.unsafe_get r c2); k st
  | 2, 4 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 + A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2 * A.unsafe_get r c2); k st
  | 2, 7 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 + A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2 + c2); k st
  | 3, 0 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 - A.unsafe_get r c1); A.unsafe_set r a2 b2; k st
  | 3, 1 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 - A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2); k st
  | 3, 2 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 - A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2 + A.unsafe_get r c2); k st
  | 3, 3 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 - A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2 - A.unsafe_get r c2); k st
  | 3, 4 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 - A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2 * A.unsafe_get r c2); k st
  | 3, 7 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 - A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2 + c2); k st
  | 4, 0 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 * A.unsafe_get r c1); A.unsafe_set r a2 b2; k st
  | 4, 1 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 * A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2); k st
  | 4, 2 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 * A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2 + A.unsafe_get r c2); k st
  | 4, 3 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 * A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2 - A.unsafe_get r c2); k st
  | 4, 4 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 * A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2 * A.unsafe_get r c2); k st
  | 4, 7 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 * A.unsafe_get r c1); A.unsafe_set r a2 (A.unsafe_get r b2 + c2); k st
  | 7, 0 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 + c1); A.unsafe_set r a2 b2; k st
  | 7, 1 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 + c1); A.unsafe_set r a2 (A.unsafe_get r b2); k st
  | 7, 2 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 + c1); A.unsafe_set r a2 (A.unsafe_get r b2 + A.unsafe_get r c2); k st
  | 7, 3 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 + c1); A.unsafe_set r a2 (A.unsafe_get r b2 - A.unsafe_get r c2); k st
  | 7, 4 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 + c1); A.unsafe_set r a2 (A.unsafe_get r b2 * A.unsafe_get r c2); k st
  | 7, 7 -> fun st -> let r = st.regs in A.unsafe_set r a1 (A.unsafe_get r b1 + c1); A.unsafe_set r a2 (A.unsafe_get r b2 + c2); k st
  | _ -> assert false

(* Fuse the body instructions of [entry..body_stop) onto [term] (the
   terminator's continuation), innermost first, pairing adjacent simple
   ops greedily from the tail. *)
let fuse (d : Decode.t) ~entry ~body_stop (term : st -> int) : st -> int =
  let code = d.Decode.code in
  let rec build ipc k =
    if ipc < entry then k
    else if
      ipc > entry
      && is_simple code.(ipc * 4)
      && is_simple code.((ipc - 1) * 4)
    then build (ipc - 2) (compile_pair code ((ipc - 1) * 4) (ipc * 4) k)
    else build (ipc - 1) (compile_instr d ~ipc ~bi:(ipc - entry) k)
  in
  build (body_stop - 1) term

let compile (d : Decode.t) entry : block =
  let code = d.Decode.code in
  let len = d.Decode.len in
  let rec scan pc =
    (* exclusive end: first terminator (inclusive) or end of code *)
    if pc >= len then pc
    else if Decode.is_terminator code.(pc * 4) then pc + 1
    else scan (pc + 1)
  in
  let stop = scan entry in
  let total = stop - entry in
  let tpc = stop - 1 in
  let has_term = Decode.is_terminator code.((stop - 1) * 4) in
  let body_stop = if has_term then stop - 1 else stop in
  let fuse term = fuse d ~entry ~body_stop term in
  if not has_term then
    (* Code runs off the end: every instruction is a regular body and
       control falls through to pc = len, which the driver reports as
       the wild-pc fault (or a requeue first, if fuel ran out). *)
    { b_total = total; b_regulars = total; b_term = Bt_cont;
      b_exec = fuse (fun _ -> len) }
  else begin
    let base = tpc * 4 in
    let a = code.(base + 1) in
    let b = code.(base + 2) in
    let c = code.(base + 3) in
    let bi = tpc - entry in
    match code.(base) with
    | 14 (* Jmp *) ->
      { b_total = total; b_regulars = total; b_term = Bt_cont;
        b_exec = fuse (fun _ -> a) }
    | 15 (* Beq *) ->
      let fall = tpc + 1 in
      { b_total = total; b_regulars = total; b_term = Bt_cont;
        b_exec =
          fuse (fun st ->
              if Array.unsafe_get st.regs a = Array.unsafe_get st.regs b then c
              else fall) }
    | 16 (* Bne *) ->
      let fall = tpc + 1 in
      { b_total = total; b_regulars = total; b_term = Bt_cont;
        b_exec =
          fuse (fun st ->
              if Array.unsafe_get st.regs a <> Array.unsafe_get st.regs b then c
              else fall) }
    | 17 (* Blt *) ->
      let fall = tpc + 1 in
      { b_total = total; b_regulars = total; b_term = Bt_cont;
        b_exec =
          fuse (fun st ->
              if Array.unsafe_get st.regs a < Array.unsafe_get st.regs b then c
              else fall) }
    | 18 (* Bge *) ->
      let fall = tpc + 1 in
      { b_total = total; b_regulars = total; b_term = Bt_cont;
        b_exec =
          fuse (fun st ->
              if Array.unsafe_get st.regs a >= Array.unsafe_get st.regs b then c
              else fall) }
    | 19 (* Call *) ->
      let ra = tpc + 1 in
      { b_total = total; b_regulars = total; b_term = Bt_cont;
        b_exec =
          fuse (fun st ->
              st.fpc <- tpc;
              st.fsteps <- st.steps + bi;
              st.sp <- st.sp - 8;
              sd st st.sp ra;
              a) }
    | 20 (* Ret *) ->
      { b_total = total; b_regulars = total; b_term = Bt_cont;
        b_exec =
          fuse (fun st ->
              st.fpc <- tpc;
              st.fsteps <- st.steps + bi;
              let ra = ld st st.sp in
              st.sp <- st.sp + 8;
              ra) }
    | 23 (* Sys *) ->
      { b_total = total; b_regulars = total - 1;
        b_term = Bt_sys (Decode.syscall_of_int a, tpc + 1);
        b_exec = fuse (fun _ -> 0) }
    | 24 (* Halt *) ->
      { b_total = total; b_regulars = total - 1; b_term = Bt_halt (tpc + 1);
        b_exec = fuse (fun _ -> 0) }
    | _ -> assert false
  end

let get_block t pc =
  let b = Array.unsafe_get t.blocks pc in
  if b != uncompiled then b
  else begin
    let b = compile t.d pc in
    t.blocks.(pc) <- b;
    b
  end

(* The block driver. Whole blocks run only when fuel covers them; a
   block bigger than the remaining fuel hands the rest of the slice to
   [tail], which enforces the per-instruction budget exactly (fuel >=
   b_total iff every instruction of the block, terminator included,
   passes the old loop's budget > 0 check). The fault handler is
   installed once per [drive], not per block: until a block completes,
   [st.steps] still holds its start-of-block value (and [tail] keeps
   [fsteps] current per op), so the handler's [fsteps] restore is
   always correct. The loop is a while
   loop, not recursion — calls under an active trap frame cannot be
   tail-call optimized, so a recursive driver inside [try] would grow
   the host stack by one frame per block executed. *)
let drive t st ~pc ~fuel : Interp.outcome * int =
  let len = t.d.Decode.len in
  let blocks = t.blocks in
  let pc = ref pc in
  let fuel = ref fuel in
  let outcome = ref Interp.Running in
  let running = ref true in
  (try
     while !running do
       let p = !pc in
       if !fuel <= 0 then running := false
       else if p < 0 || p >= len then begin
         outcome := Interp.Fault (Interp.Wild_pc p);
         running := false
       end
       else begin
         let b =
           let b = Array.unsafe_get blocks p in
           if b != uncompiled then b
           else begin
             let b = compile t.d p in
             t.blocks.(p) <- b;
             b
           end
         in
         if b.b_total > !fuel then begin
           pc := tail t.d st ~pc:p ~fuel:!fuel;
           running := false
         end
         else begin
           let next = b.b_exec st in
           st.steps <- st.steps + b.b_regulars;
           match b.b_term with
           | Bt_cont ->
             fuel := !fuel - b.b_regulars;
             pc := next
           | Bt_sys (sc, resume) ->
             outcome := Interp.Syscall sc;
             pc := resume;
             running := false
           | Bt_halt resume ->
             outcome := Interp.Halted;
             pc := resume;
             running := false
         end
       end
     done
   with
  | As.Segfault { addr; _ } ->
    st.steps <- st.fsteps;
    outcome := Interp.Fault (Interp.Segv addr);
    pc := st.fpc
  | Guest_fault f ->
    st.steps <- st.fsteps;
    outcome := Interp.Fault f;
    pc := st.fpc);
  (!outcome, !pc)

(* Eagerly compile the statically known block leaders (named entries,
   branch/call targets, fall-through successors of terminators), so the
   steady state pays no compile checks. Leaders only reachable through
   computed pcs (lea'd labels, spawn entries popped off the stack)
   compile lazily on first execution via [get_block]. *)
let precompile t =
  let code = t.d.Decode.code in
  let len = t.d.Decode.len in
  if len > 0 then begin
    let mark = Array.make len false in
    mark.(0) <- true;
    List.iter
      (fun (_, pc) -> if pc >= 0 && pc < len then mark.(pc) <- true)
      t.program.Program.entries;
    for pc = 0 to len - 1 do
      let op = code.(pc * 4) in
      if Decode.is_terminator op then begin
        if pc + 1 < len then mark.(pc + 1) <- true;
        let tgt =
          if op = Decode.op_jmp || op = Decode.op_call then code.((pc * 4) + 1)
          else if op >= Decode.op_beq && op <= Decode.op_bge then
            code.((pc * 4) + 3)
          else -1
        in
        if tgt >= 0 && tgt < len then mark.(tgt) <- true
      end
    done;
    for pc = 0 to len - 1 do
      if mark.(pc) then ignore (get_block t pc)
    done
  end

let create kind program =
  let d = Program.decoded program in
  let t =
    {
      kind;
      program;
      d;
      blocks =
        (match kind with
         | Blocks -> Array.make (max 1 d.Decode.len) uncompiled
         | Step -> [||]);
    }
  in
  if kind = Blocks then precompile t;
  t

let run t (ctx : Interp.context) space ~fuel : Interp.outcome * int =
  match t.kind with
  | Step ->
    (* The reference oracle, verbatim: per-instruction [Interp.step]
       with the budget check ahead of each step. *)
    let steps = ref 0 in
    let fuel = ref fuel in
    let result = ref Interp.Running in
    let running = ref true in
    while !running do
      if !fuel <= 0 then running := false
      else
        match Interp.step t.program ctx space with
        | Interp.Running ->
          incr steps;
          decr fuel
        | o ->
          result := o;
          running := false
    done;
    (!result, !steps)
  | Blocks ->
    let st =
      {
        regs = ctx.Interp.regs;
        sp = ctx.Interp.sp;
        fp = ctx.Interp.fp;
        space;
        steps = 0;
        fpc = 0;
        fsteps = 0;
        rp = -1;
        rb = Bytes.empty;
        wp = -1;
        wb = Bytes.empty;
      }
    in
    let outcome, pc = drive t st ~pc:ctx.Interp.pc ~fuel in
    ctx.Interp.pc <- pc;
    ctx.Interp.sp <- st.sp;
    ctx.Interp.fp <- st.fp;
    (outcome, st.steps)

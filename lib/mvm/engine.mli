(** Fast MVM execution.

    Two interchangeable machines behind one [run] surface, bit-exact
    against each other:

    - [Step] — per-instruction {!Interp.step}: the reference oracle the
      differential tests and the engine-parity bench compare against.
    - [Blocks] — basic-block closure compilation over the pre-decoded
      form ({!Decode.t}): each block becomes one chained OCaml closure,
      cached per entry pc, with an inlined one-entry page cache on the
      guest load/store path. The cluster default.

    The contract that keeps every virtual-time output byte-identical
    across engines: [fuel] is an exact instruction budget (each
    Running-outcome instruction consumes 1 and counts 1 step;
    Sys/Halt/fault instructions consume and count none), the fuel check
    precedes the wild-pc check, and faults restore the faulting
    instruction's pc while preserving partial sp/fp mutations — exactly
    the historic per-step scheduler loop. See DESIGN §15. *)

type kind =
  | Step
  | Blocks

type t

(** [create kind program] builds an engine over [program]'s pre-decoded
    form ({!Program.decoded}). For [Blocks], statically known block
    leaders are compiled eagerly; computed targets (lea'd labels, spawn
    entries) compile lazily on first execution. Engines hold no
    per-thread state: any thread of the program can run on the same
    engine, including after migration/checkpoint-restore. *)
val create : kind -> Program.t -> t

(** [run t ctx space ~fuel] executes from [ctx] for at most [fuel]
    Running-outcome instructions and returns [(outcome, steps)] where
    [steps] is the exact count executed (each owes the scheduler one
    instruction charge; the instruction producing [Syscall]/[Halted]/
    [Fault] is {e not} included — the caller accounts for it, as the
    per-step loop did). [ctx] is committed on exit: on [Syscall] the pc
    is past the Sys instruction, on [Fault] it is the faulting
    instruction's pc ([Wild_pc] keeps the wild value), on [Running]
    (fuel exhausted) it is the next instruction to execute. Page caches
    live only within the call, so the caller may migrate, checkpoint,
    restore or unmap between calls with no invalidation hook. *)
val run : t -> Interp.context -> Pm2_vmem.Address_space.t -> fuel:int -> Interp.outcome * int

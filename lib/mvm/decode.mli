(** Pre-decoded program form.

    [of_code] lowers the boxed {!Isa.instr} array into a flat int array —
    one fixed-width group of {!stride} ints per instruction (opcode, then
    up to three operand fields) — produced once at program-load time and
    shared by every execution engine. See {!Engine} for the machines that
    run it; {!Interp.step} remains the reference oracle over the boxed
    form. *)

type t = private {
  code : int array; (* stride-wide groups: op, a, b, c per pc *)
  len : int; (* instruction count *)
}

val stride : int
(** Ints per decoded instruction (4): opcode + three operand fields. The
    fields of instruction [pc] live at [code.(pc*stride) ..
    code.(pc*stride+3)]. *)

(** [of_code code] decodes a whole program. Every register operand is
    validated against {!Isa.num_regs} here, once — this is what makes the
    engines' unchecked register accesses sound. Branch targets are not
    validated (a wild target is the guest's [Wild_pc] fault, not a
    malformed program).
    @raise Invalid_argument on a register operand outside [0, num_regs). *)
val of_code : Isa.instr array -> t

val op : t -> int -> int
(** Opcode of the instruction at [pc] (bounds-checked; for block
    scanning and tests, not the hot loop). *)

(** {1 Opcodes} — {!Isa.instr} constructor order, dense from 0. *)

val op_imm : int
val op_mov : int
val op_add : int
val op_sub : int
val op_mul : int
val op_div : int
val op_mod : int
val op_addi : int
val op_load : int
val op_store : int
val op_push : int
val op_pop : int
val op_sp : int
val op_fp : int
val op_jmp : int
val op_beq : int
val op_bne : int
val op_blt : int
val op_bge : int
val op_call : int
val op_ret : int
val op_enter : int
val op_leave : int
val op_sys : int
val op_halt : int
val op_nop : int

val is_terminator : int -> bool
(** Instructions that unconditionally end a basic block (all control
    transfers, [Sys], [Halt]). *)

val syscall_of_int : int -> Isa.syscall
(** The syscall numbered [n] in the dense {!Isa.syscall} constructor
    order the decoder uses. @raise Invalid_argument out of range. *)

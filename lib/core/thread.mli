(** PM2 thread descriptors (the paper's Marcel threads).

    "A PM2 thread is an execution flow managing a set of resources, i.e.,
    its state descriptor, its private execution stack, and a series of
    dynamically allocated sub-areas within the iso-address area." (§3.2)

    The state descriptor is this record: the MiniVM context (registers,
    pc, sp, fp), the head of the slot chain (a virtual address — the chain
    itself lives in the slot headers, in simulated memory), and the
    registered-pointer table used only by the legacy relocation scheme.
    Thread ids are cluster-global and survive migration. *)

type exit_reason =
  | Halted
  | Faulted of Pm2_mvm.Interp.fault
  | Killed (* host-level termination *)

type state =
  | Ready (* in some node's run queue *)
  | Running (* inside the current quantum *)
  | Blocked (* waiting for a negotiation / critical section *)
  | Migrating (* packed, in flight between nodes *)
  | Exited of exit_reason

type t = {
  id : int;
  mutable node : int; (* current location *)
  mutable state : state;
      (* written only by the cluster's setters, with [pending_migration]:
         the two decide membership in its movable-thread index *)
  mutable ctx : Pm2_mvm.Interp.context;
  mutable slots_head : Pm2_vmem.Layout.addr; (* 0 = no slots *)
  mutable stack_slot : Pm2_vmem.Layout.addr; (* base of the stack slot, 0 = none *)
  registry : (int, Pm2_vmem.Layout.addr) Hashtbl.t;
      (* key -> address of a registered pointer cell (legacy scheme, §2) *)
  mutable next_key : int;
  mutable pending_migration : int option;
      (* preemptive migration target, honoured at the next quantum boundary *)
}

val make : id:int -> node:int -> ctx:Pm2_mvm.Interp.context -> t

val is_exited : t -> bool

(** {1 Registered pointers (legacy scheme of §2)} *)

(** [register_ptr t addr] records that the word at [addr] holds a pointer
    that must be updated if the thread's memory is relocated. Returns the
    key for unregistration. *)
val register_ptr : t -> Pm2_vmem.Layout.addr -> int

(** @raise Invalid_argument on an unknown key. *)
val unregister_ptr : t -> int -> unit

val registered_cells : t -> Pm2_vmem.Layout.addr list

(** The block layer: [pm2_isomalloc] / [pm2_isofree] (paper, §3.3–4.4).

    Blocks of arbitrary size are carved out of the slots owned by the
    calling thread. Each slot holds a doubly linked list of free blocks
    (head in the slot header, links in the free blocks themselves — all in
    simulated memory, hence migrated verbatim). Allocation is first-fit
    over the thread's slots; when no free block fits, a new slot is
    acquired from the local node, or — for requests larger than a slot — a
    run of [n] contiguous slots is merged into a "large slot", negotiating
    with the other nodes if the local bitmap has no such run. *)

(** Placement strategy for the block layer. The paper uses first-fit and
    notes "other strategies could be considered as well, especially if
    fragmentation is to be kept low" (§3.3) — best-fit is provided for the
    fragmentation ablation. *)
type fit =
  | First_fit
  | Best_fit

type env = {
  space : Pm2_vmem.Address_space.t;
  mgr : Slot_manager.t; (* slot manager of the node the thread is visiting *)
  cost : Pm2_sim.Cost_model.t;
  charge : float -> unit;
  fit : fit;
  negotiate : n:int -> int option;
      (* acquire [n] contiguous slots for this node via the global
         negotiation protocol; ownership changes are applied before it
         returns. [None] = the whole iso-address area has no such run. *)
  obs : Pm2_obs.Collector.t;
      (* receives [Block_alloc]/[Block_free]/[Block_split]/[Block_coalesce],
         attributed to the visited node. *)
}

val fit_to_string : fit -> string

(** Payload capacity of a single fresh slot under geometry [g]. *)
val slot_capacity : Slot.t -> int

(** [isomalloc env thread size] allocates [size] bytes of private,
    migratable memory for [thread]; returns the payload address, or [None]
    if the iso-address area is exhausted or smaller than [size].
    @raise Invalid_argument if [size <= 0]. *)
val isomalloc : env -> Thread.t -> int -> Pm2_vmem.Layout.addr option

(** [isofree env thread addr] releases a block previously returned by
    [isomalloc]. A slot whose last block is freed is released to the node
    the thread is {e currently} visiting (which may differ from the node
    that originally provided it — paper, §3.2).
    @raise Invalid_argument if [addr] is not a live block of [thread]. *)
val isofree : env -> Thread.t -> Pm2_vmem.Layout.addr -> unit

(** [isorealloc env thread addr size] resizes a live block: shrinks in
    place, grows in place when the next block in the slot is free and
    large enough, and otherwise allocates-copies-frees. [addr = 0]
    behaves as [isomalloc]. Returns the (possibly moved) payload address,
    or [None] on exhaustion (the original block is then left intact).
    @raise Invalid_argument on a dead or foreign [addr] or [size <= 0]. *)
val isorealloc :
  env -> Thread.t -> Pm2_vmem.Layout.addr -> int -> Pm2_vmem.Layout.addr option

(** [isocalloc env thread ~count ~size] allocates and zero-fills
    [count * size] bytes; [None] also when that product overflows. *)
val isocalloc : env -> Thread.t -> count:int -> size:int -> Pm2_vmem.Layout.addr option

(** {1 Thread life cycle} *)

(** [acquire_stack_slot env thread] gives [thread] its initial slot (stack
    kind), links it into the chain, and returns the stack top address —
    or [None] if no slot could be obtained even by negotiation. *)
val acquire_stack_slot : env -> Thread.t -> Pm2_vmem.Layout.addr option

(** [release_all env thread] returns every slot of [thread] to the node it
    is visiting (thread death — paper, Fig. 6 step 4). *)
val release_all : env -> Thread.t -> unit

(** {1 Introspection} *)

(** Bases of the thread's slots, in chain order (walks simulated memory). *)
val slot_list : env -> Thread.t -> Pm2_vmem.Layout.addr list

(** [live_blocks env thread] is the payload addresses of all used blocks in
    data slots, in address order. *)
val live_blocks : env -> Thread.t -> Pm2_vmem.Layout.addr list

(** Payload capacity of a live block. *)
val usable_size : env -> Thread.t -> Pm2_vmem.Layout.addr -> int

(** Total bytes of iso-address space held by the thread (all slots). *)
val footprint : env -> Thread.t -> int

(** Aggregate heap statistics for one thread (fragmentation studies). *)
type heap_stats = {
  slots : int; (* chain entries, stack slot included *)
  footprint_bytes : int; (* iso-address space held *)
  live_blocks : int;
  live_payload_bytes : int; (* user bytes in used blocks *)
  free_bytes : int; (* block-layer free space across data slots *)
  largest_free_block : int;
}

val stats : env -> Thread.t -> heap_stats

(** [fragmentation s] is [1 - live/footprint] over the data slots — 0 when
    every held byte is user payload. *)
val fragmentation : heap_stats -> float

(** Walks every slot of the thread and checks: header magic, chain link
    symmetry, block tag/footer coherence, full coalescing, free-list
    integrity. @raise Failure with a diagnostic on corruption. *)
val check_invariants : env -> Thread.t -> unit

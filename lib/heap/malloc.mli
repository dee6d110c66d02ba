(** The node-local heap: a classic boundary-tag, first-fit [malloc]/[free]
    with explicit doubly linked free list and sbrk-style growth.

    This is the paper's comparison baseline (Fig. 11) and the allocator the
    container (heavy) process itself uses. Data allocated here lives in the
    local-heap segment, which does {e not} belong to the iso-address area:
    it never follows a migrating thread, reproducing the failure of Figs. 4
    and 9 when such data is accessed after migration.

    Virtual-time costs (search steps, heap growth page faults) are reported
    through a [charge] callback so the scheduler can account them to the
    calling thread. *)

type t

type addr = Pm2_vmem.Layout.addr

exception Out_of_memory
(** Raised only by the {!malloc_exn} wrapper. *)

(** Why an allocation or deallocation could not be carried out; nothing is
    mutated when [Error] is returned. Aggregated into {!Pm2_core.Pm2.Error.t}
    as [Heap]. *)
type error =
  | Heap_exhausted (** the local-heap segment's address budget is spent *)
  | Invalid_free of addr (** the address is not a live [malloc] payload *)

val error_to_string : error -> string

(** [create space cost ~charge] sets up an empty heap in [space]'s
    local-heap segment. [charge] receives virtual-time costs. [?obs]
    receives [Block_alloc]/[Block_free]/[Block_split]/[Block_coalesce]
    events (heap kind [Local]) attributed to [?node]. *)
val create :
  ?obs:Pm2_obs.Collector.t ->
  ?node:int ->
  Pm2_vmem.Address_space.t ->
  Pm2_sim.Cost_model.t ->
  charge:(float -> unit) ->
  t

(** [malloc t size] allocates [size] user bytes and returns the payload
    address (8-aligned), or [Error Heap_exhausted] if the heap segment is
    spent or [size] exceeds the whole segment.
    @raise Invalid_argument if [size <= 0] (programmer error, not a heap
    condition). *)
val malloc : t -> int -> (addr, error) result

(** [free t addr] releases a block previously returned by [malloc]
    (coalescing with free neighbours); [Error (Invalid_free addr)] if
    [addr] is not a live [malloc] payload. *)
val free : t -> addr -> (unit, error) result

(** {1 Raising wrappers}

    The pre-redesign API, for callers (examples, benches, the guest
    [Sys_free] fault path) that treat failure as fatal. *)

(** @raise Out_of_memory on [Error]. *)
val malloc_exn : t -> int -> addr

(** @raise Invalid_argument on [Error]. *)
val free_exn : t -> addr -> unit

(** [usable_size t addr] is the payload capacity of the block. *)
val usable_size : t -> addr -> int

(** {1 Introspection (tests, benches)} *)

val live_blocks : t -> int
val live_bytes : t -> int
(** User bytes currently allocated. *)

val heap_bytes : t -> int
(** Bytes of address space currently claimed from the segment (brk). *)

(** [check_invariants t] walks the whole arena and verifies tag coherence,
    free-list integrity and full coalescing; raises [Failure] with a
    diagnostic on corruption. Used by the property tests. *)
val check_invariants : t -> unit

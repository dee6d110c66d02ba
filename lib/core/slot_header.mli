(** The in-memory header at the base of every thread-owned slot.

    "Chaining is carried out by means of pointers stored in the slot
    headers. Given that the slot contents get copied at the same virtual
    address in case of migration, these pointers remain valid and the
    chaining is thus preserved." (paper, §4.2)

    All fields are 8-byte words in simulated memory:

    {v
      +0   magic
      +8   size        total bytes of this (possibly merged) slot
      +16  next        next slot in the owning thread's list (0 = nil)
      +24  prev        previous slot (0 = nil)
      +32  free_head   first free block in this slot (0 = none)
      +40  kind        0 = data slot, 1 = stack slot
      +48  owner       thread id (debugging aid)
      +56  reserved
    v}

    Blocks start at [base + size_of_header]. *)

type space = Pm2_vmem.Address_space.t

type addr = Pm2_vmem.Layout.addr

val size_of_header : int
(** 64 bytes. *)

type kind = Data | Stack

(** [init sp base ~size ~kind ~owner] writes a fresh header (no blocks,
    empty free list, unlinked). *)
val init : space -> addr -> size:int -> kind:kind -> owner:int -> unit

(** [check_magic sp base] — @raise Failure if the header is corrupt (e.g.
    a thread stack overflowed into it). *)
val check_magic : space -> addr -> unit

val read_size : space -> addr -> int
val read_prev : space -> addr -> addr
val read_free_head : space -> addr -> addr
val write_free_head : space -> addr -> addr -> unit
val read_kind : space -> addr -> kind
val read_owner : space -> addr -> int

(** [blocks_base base] is the address of the first block. *)
val blocks_base : addr -> addr

(** [iter_chain sp ~head f] applies [f] to each slot base along the [next]
    chain starting at [head] (0 = empty). Detects cycles and
    @raise Failure on a corrupt chain longer than the slot count. *)
val iter_chain : space -> head:addr -> (addr -> unit) -> unit

(** [chain_to_list sp ~head] collects the slot bases in chain order. *)
val chain_to_list : space -> head:addr -> addr list

(** {1 Chain editing}

    The chain is intrusive and has no separate list object; callers hold
    the head address (in the thread descriptor). *)

(** [link_front sp ~head base] links [base] before [head]; returns the new
    head. *)
val link_front : space -> head:addr -> addr -> addr

(** [unlink sp ~head base] removes [base] from the chain; returns the new
    head. *)
val unlink : space -> head:addr -> addr -> addr

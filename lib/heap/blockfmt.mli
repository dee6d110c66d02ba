(** The boundary-tag arena shared by the local-heap allocator ({!Malloc})
    and the isomalloc block layer ([Pm2_core.Iso_heap]): the block format
    and every operation on a region of blocks (paper, §3.3: blocks have
    headers storing their size, plus free-list links for free blocks).

    A block occupies [size] bytes ([size] is a multiple of 8, at least
    {!min_block}):

    {v
      h          : header word  = size lor used-bit
      h+8        : user payload (for a free block: next-free link)
      h+16       :              (for a free block: prev-free link)
      h+size-8   : footer word  = size lor used-bit
    v}

    The footer enables O(1) backwards coalescing (boundary tags). All words
    live in simulated memory, so for isomalloc blocks they are migrated
    verbatim by the iso-address copy and stay consistent.

    {2 Regions and lists}

    A region [\[lo, hi)] is tiled by blocks: the arena of a local heap,
    or the blocks area of one slot. Its free blocks form one doubly
    linked list, 0-terminated. The caller owns the list head: every
    operation takes it as [~head] and returns the new head (the idiom of
    [Slot_header.link_front]). [Malloc] keeps it in an OCaml field. The
    iso heap keeps it in the slot header and stores it when an operation
    moved it, and after every {!release}, whose linking always stored it.

    {2 No link clearing}

    A block leaving the free list keeps its stale links, and a block
    carved for use keeps whatever its payload held. These words are part
    of the bytes a blocks-only migration ships and of the pages a delta
    migration hashes, so an operation writes exactly the words the
    list discipline needs and no others. *)

type space = Pm2_vmem.Address_space.t

type addr = Pm2_vmem.Layout.addr

val overhead : int
(** header + footer = 16 bytes. *)

val min_block : int
(** 32 bytes: overhead + room for the two free-list links. *)

val align : int -> int
(** Round a size up to a multiple of 8. *)

(** [block_size_for ~payload] is the smallest valid block size able to hold
    [payload] user bytes. *)
val block_size_for : payload:int -> int

val payload_of_block : int -> int
val payload_addr : addr -> addr
val block_of_payload : addr -> addr

(** {1 Reading a block} *)

val read_size : space -> addr -> int
val read_used : space -> addr -> bool

(** The next link of a free block (0 = end of list): what a fit search
    follows. *)
val read_next_free : space -> addr -> addr

(** {1 Free lists} *)

(** [push sp ~head b] links [b] at the front; returns [b], the new head. *)
val push : space -> head:addr -> addr -> addr

(** [unlink sp ~head b] takes [b] off the list; returns the new head. *)
val unlink : space -> head:addr -> addr -> addr

(** {1 Region operations} *)

(** [carve sp ~head b ~need] places a [need]-byte used block at the free
    block [b]: [b] leaves the list and, when the rest is at least
    {!min_block}, the rest at [b + need] becomes a free block at the
    front. Returns the new head and the size of that rest (0 when there
    was no split).
    @raise Invalid_argument if [need] is not a valid block size. *)
val carve : space -> head:addr -> addr -> need:int -> addr * int

(** [release sp ~head ~lo ~hi b ~size] turns the [size] bytes at [b]
    into a free block, merged with a free neighbour on either side inside
    [\[lo, hi)], and links it at the front. Returns the new head, which
    is the merged block: its size is [read_size sp] of it. *)
val release : space -> head:addr -> lo:addr -> hi:addr -> addr -> size:int -> addr

(** [resize sp ~head ~lo ~hi b ~need] resizes the used block [b] to
    [need] bytes in place: shrinking gives back a tail of at least
    {!min_block} (merged with a free block after it), growing absorbs
    the free block after [b] when the two are big enough. Returns the
    new head, or [None], having changed nothing, when [b] cannot grow in
    place. *)
val resize : space -> head:addr -> lo:addr -> hi:addr -> addr -> need:int -> addr option

(** [fold sp ~lo ~hi f acc] folds [f acc b ~size ~used] over the blocks
    of [\[lo, hi)] in address order.
    @raise Invalid_argument on a block smaller than {!min_block} (a
    header the guest overwrote), which would stall the walk. *)
val fold :
  space -> lo:addr -> hi:addr -> ('a -> addr -> size:int -> used:bool -> 'a) -> 'a -> 'a

(** [check sp ~head ~lo ~hi ~used] verifies the region: symmetric links
    on the free list, tag/footer coherence, blocks tiling [\[lo, hi)]
    exactly, full coalescing, and a list holding exactly the free
    blocks. [used b] is the caller's own check of each used block.
    @raise Failure with a diagnostic on corruption. *)
val check : space -> head:addr -> lo:addr -> hi:addr -> used:(addr -> unit) -> unit

(** [rebuild sp ~lo ~hi used] makes every gap between the [used]
    [(block, size)] pairs (in address order) a free block and returns the
    head of a new list holding them in ascending address order, so first
    fit keeps preferring low addresses. The used blocks are not touched.
    @raise Invalid_argument if a gap is not a valid block size. *)
val rebuild : space -> lo:addr -> hi:addr -> (addr * int) list -> addr

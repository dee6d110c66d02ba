(** A simulated per-node virtual address space.

    A table keyed by 16-page (64 KB) chunk holds, for each mapped page,
    one page record: its contents, the epoch of its last store and its
    memoized content hash. A slot's map, unmap or hop probes the table
    once per chunk, not once per page, and a probe is two array reads.
    Pages are
    materialised lazily: [mmap] declares a range mapped (and
    zero-filled), [munmap] unmaps it, and any access to an unmapped address
    raises {!Segfault} — exactly the failure mode of the paper's Figs. 2, 4
    and 9 when a migrated thread dereferences a pointer whose target did not
    follow it.

    All multi-byte accessors are little-endian. Words are 8 bytes: the
    MiniVM is a 64-bit machine, and all isomalloc headers are stored as
    words {e inside} this memory so that they are carried verbatim by an
    iso-address copy (paper, §4.2: slot chaining pointers live in the slot
    headers and stay valid after migration). *)

type t

type addr = Layout.addr

exception Segfault of { addr : addr; node : int; what : string }

(** [create ~node ()] is an empty address space; [node] tags segfault
    reports. *)
val create : node:int -> unit -> t

val node : t -> int

(** {1 Mapping} *)

(** [mmap t ~addr ~size] maps (and zero-fills) the page-aligned range.
    It allocates nothing per page: every page shares one never-written
    record until its first access or store. A page's buffer, allocated
    on that first access, is taken from a small process-wide cache of
    buffers that {!munmap}, {!scrub_range} and {!adopt} let go of, and
    zero-filled.
    @raise Invalid_argument if the range is not page aligned, reaches
    above the top of the process stack ({!Layout.stack_base} +
    {!Layout.stack_size}), or any page in it is already mapped (MAP_FIXED
    without overwrite — the iso-address discipline must guarantee this
    never happens across nodes). *)
val mmap : t -> addr:addr -> size:int -> unit

(** [munmap t ~addr ~size] unmaps the range.
    @raise Invalid_argument if not page aligned or any page is not mapped. *)
val munmap : t -> addr:addr -> size:int -> unit

val is_mapped : t -> addr -> bool

(** [range_mapped t ~addr ~size] is [true] iff every byte of the range is
    mapped. *)
val range_mapped : t -> addr:addr -> size:int -> bool

(** [range_unmapped t ~addr ~size] is [true] iff no page of the range is
    mapped — the test a migration destination runs before accepting a
    thread (two-phase protocol): [mmap] at those addresses will succeed. *)
val range_unmapped : t -> addr:addr -> size:int -> bool

(** [scrub_range t ~addr ~size] unmaps whatever pages of the range happen
    to be mapped and returns how many were dropped. Unlike {!munmap} it
    tolerates holes: it is the cleanup path after a partially applied
    migration unpack is abandoned. *)
val scrub_range : t -> addr:addr -> size:int -> int

val mapped_pages : t -> int
(** Mapped page count. *)

val resident_pages : t -> int
(** Mapped pages that have been allocated. A page is allocated,
    zero-filled, on its first access, so a mapped range nothing touches
    costs no host memory. *)

val mmap_calls : t -> int
(** Number of [mmap] invocations so far (feeds the cost model). *)

(** {1 Dirty / zero-page tracking}

    The v2 migration codec ({!Pm2_net.Codec}-style group transfers) ships
    only pages that actually hold data and {e describes} the rest: since
    {!mmap} zero-fills, an untouched page is all-zero by construction and
    can be recreated at the destination by mapping alone. *)

val page_dirty : t -> addr -> bool
(** [page_dirty t a] is [true] iff some store touched the page containing
    [a] since it was mapped. One table probe; never faults. *)

(** {2 Access epochs}

    Placement telemetry: {!advance_epoch} opens a new observation window
    and {!dirty_in_epoch} counts the pages of a range last stored to
    inside the current window. The balancer derives per-thread "heat"
    from these counts — no extra bookkeeping rides the store fast path:
    the epoch stamp is the page record's last-store field, the same one
    {!page_dirty} reads. *)

val advance_epoch : t -> unit
(** Open a new observation window. Stores from now on stamp the new
    epoch; earlier stores no longer count as current-window heat. *)

val epoch : t -> int
(** The current observation window (0 before the first
    {!advance_epoch} — heat reads 0 in that pre-history window). *)

val dirty_in_epoch : t -> addr:addr -> size:int -> int
(** [dirty_in_epoch t ~addr ~size] — how many pages of the range were
    last stored to in the current window. Never faults; unmapped pages
    count 0. *)

val page_is_zero : t -> addr -> bool
(** [page_is_zero t a] is [true] iff the mapped page containing [a] is
    currently all-zero. Clean and untouched pages answer without reading
    memory or allocating; other dirty pages are scanned word-wise (a store of zeros is re-detected as zero,
    so the manifest stays content-accurate, not merely
    history-accurate). @raise Segfault if the page is unmapped. *)

(** {1 Page content hashing (delta migration)}

    The v3 delta codec classifies pages by a 62-bit content hash
    (FNV-1a 64 over the page's 8-byte words, splitmix-mixed, folded to a
    non-negative OCaml int). Each page record memoizes its hash and every
    store clears the memo, so re-hashing a page no store has touched
    since is one table probe, never a page scan. *)

val page_hash : t -> addr -> int
(** [page_hash t a] is the content hash of the mapped page containing
    [a]; memoized until the next store to that page.
    @raise Segfault if the page is unmapped. *)

val page_bytes_hash : Bytes.t -> int
(** [page_bytes_hash b] hashes a detached page-sized buffer with the same
    function as {!page_hash} — the destination-side validator for cached
    residual pages. @raise Invalid_argument if [b] is not exactly one
    page long. *)

(** {1 Moving pages between spaces}

    Every node's space lives in one process, so a migration can hand a
    page's buffer to the destination instead of copying its bytes. The
    rule is that a buffer has exactly one owner: a mapped page of one
    space, or one {!pages} value in transit. *)

type pages
(** Page records taken out of a space: contents, store marks and hash
    memos, in address order. *)

(** [take t ~addr ~size] unmaps the range like {!munmap} and hands back
    its pages. As with [munmap], every page handle
    ({!page_for_read}/{!page_for_write}) into the range becomes invalid
    in [t]; worse, once the pages are adopted elsewhere a stale handle
    writes into another space, so callers must drop theirs at any point
    a [take] could run.
    @raise Invalid_argument if not page aligned or any page is not
    mapped. *)
val take : t -> addr:addr -> size:int -> pages

(** [adopt t ~ranges pages] maps [pages] back at the addresses they were
    taken from, in [t], leaving exactly what {!mmap} followed by one
    {!store_sub} of each listed [(addr, len)] range, with the bytes the
    pages held there, would: bytes outside the ranges read zero, a page
    a non-empty range touches carries [t]'s store mark (current epoch,
    hash memo dropped), and any other page is untouched again. Only
    {!resident_pages} may differ: a page keeps its buffer where a range
    touches it, even if the bytes stored there are zero. Counts as one
    {!mmap_calls}. [pages] must not be used again.
    @raise Invalid_argument, having changed nothing, if any page is
    already mapped in [t] or the ranges are not ascending, disjoint and
    inside the pages' span. *)
val adopt : t -> ranges:(addr * int) list -> pages -> unit

(** [nonzero_buffers pages] is the [(page address, buffer)] of every
    taken page that is not all zero ({!page_is_zero}), in address order.
    The caller becomes the buffers' one owner: [pages] must not be
    adopted afterwards. *)
val nonzero_buffers : pages -> (addr * Bytes.t) list

(** {1 Typed access} *)

(** [page_for_read t a] is the live page buffer containing [a] — the
    building block of the MVM engine's inlined word-access fast path.
    The handle aliases the mapped page and stays valid only until the
    next {!munmap}/{!scrub_range}/{!take}; callers must re-fetch it at
    any point such a call could run. After an unmap the buffer may be
    reused for a page of any space, so a stale handle writes into
    another page. @raise Segfault if the page is unmapped. *)
val page_for_read : t -> addr -> Bytes.t

(** [page_for_write t a] is {!page_for_read} plus the dirty-page mark of
    a store ({!page_dirty}, access epochs, hash-memo invalidation) — use
    it before writing into the returned buffer. Subsequent direct writes
    to the same page within one uninterrupted slice need no re-mark: the
    page is already stamped with the current epoch.
    @raise Segfault if the page is unmapped. *)
val page_for_write : t -> addr -> Bytes.t

val load_u8 : t -> addr -> int
val store_u8 : t -> addr -> int -> unit

val load_word : t -> addr -> int
(** 8-byte little-endian load. @raise Segfault on unmapped access. *)

val store_word : t -> addr -> int -> unit

val load_bytes : t -> addr -> int -> Bytes.t
val store_bytes : t -> addr -> Bytes.t -> unit

(** [store_sub t addr b ~pos ~len] writes [b[pos .. pos+len-1]] at [addr]
    without materialising the sub-range — the zero-copy counterpart of
    [store_bytes] for unpacking length-prefixed views straight off the
    wire. A page-sized or smaller run of zeros stored into an untouched
    page leaves it unallocated; the page still counts as stored to
    ({!page_dirty}, access epochs, hash memo).
    @raise Invalid_argument if [pos]/[len] fall outside [b]. *)
val store_sub : t -> addr -> Bytes.t -> pos:int -> len:int -> unit

(** [load_into t ~addr ~len dst ~pos] copies the range into
    [dst.[pos .. pos+len-1]] page run by page run — the zero-copy packing
    path of a migration. An untouched page ({!resident_pages}) reads as
    zeros and stays unallocated.
    @raise Segfault on unmapped access.
    @raise Invalid_argument if the region falls outside [dst]. *)
val load_into : t -> addr:addr -> len:int -> Bytes.t -> pos:int -> unit

(** [load_cstring t addr] reads a NUL-terminated string (bounded at 4 KB to
    keep runaway reads from looping forever). *)
val load_cstring : t -> addr -> string

(** [fill t ~addr ~size byte] writes [size] copies of [byte]. *)
val fill : t -> addr:addr -> size:int -> int -> unit

(** [copy_within t ~src ~dst ~size] copies inside one space. Disjoint
    ranges blit page-to-page with no intermediate allocation; overlapping
    ranges go through a temporary. *)
val copy_within : t -> src:addr -> dst:addr -> size:int -> unit

(** [blit ~src ~src_addr ~dst ~dst_addr ~size] copies bytes across spaces —
    the heart of an iso-address migration when [src_addr = dst_addr].
    Distinct spaces blit directly page run by page run. *)
val blit : src:t -> src_addr:addr -> dst:t -> dst_addr:addr -> size:int -> unit

(** Per-node residual image cache for delta migration.

    When a thread migrates out, the source retains a copy of every
    non-zero page of its iso-address image (a {e residual image}); when
    the thread later migrates {e back}, the old destination — now the
    source — classifies pages whose content hash the new destination is
    believed to retain as [Cached] and ships only the hash
    ({!Pm2_net.Codec.encode_range}). The destination reconstructs
    [Cached] pages from its own residual image, and any page it cannot
    restore (evicted, or hash mismatch after corruption) is re-fetched
    from the source's {e pinned} image via the RDLT/RFUL fallback, so
    correctness never depends on cache contents.

    Two stores, both keyed by thread id:

    - residual images — page copies, byte-accounted against a budget.
      Images are {e pinned} while their transfer is in flight (rollback
      and fallback serve from them) and become evictable once the
      transfer settles; eviction is whole-image LRU.
    - knowledge — per (thread, peer) page-hash maps recording what
      [peer] is believed to retain, replaced wholesale each time the
      thread arrives from [peer]. Advisory only: staleness costs a
      fallback round-trip, never correctness.

    A budget of [0] disables the cache entirely ([retain],
    [record_knowledge] become no-ops), reproducing pre-delta behavior. *)

type t

(** [create ~budget ()] is an empty cache. [budget] bounds the bytes of
    {e unpinned} retained images; [on_evict] fires once per evicted
    image. @raise Invalid_argument if [budget < 0]. *)
val create : ?on_evict:(tid:int -> bytes:int -> unit) -> budget:int -> unit -> t

val enabled : t -> bool
(** [true] iff the budget is positive. *)

(** [retain t ~tid pages] stores (pinned) the given page copies as
    [tid]'s residual image, replacing any previous one. Each element is
    [(page_address, page_bytes)]; buffers are kept by reference, so
    callers must pass copies the address space will not mutate.
    No-op when disabled.
    @raise Invalid_argument if a buffer is not exactly one page. *)
val retain : t -> tid:int -> (int * Bytes.t) list -> unit

val unpin : t -> tid:int -> unit
(** Make [tid]'s image evictable (transfer settled) and apply the byte
    budget. Harmless if the image is already gone. *)

val drop_image : t -> tid:int -> unit
(** Forget [tid]'s residual image (slot release / thread exit /
    knowledge superseded). *)

val lookup_page : t -> tid:int -> addr:int -> Bytes.t option
(** The retained copy of [tid]'s page at [addr], if any; touches the
    image's LRU stamp. *)

(** [record_knowledge t ~tid ~peer pages] replaces what this node
    believes [peer] retains for [tid] with [(page_address, hash)] list.
    No-op when disabled. *)
val record_knowledge : t -> tid:int -> peer:int -> (int * int) list -> unit

val known : t -> tid:int -> peer:int -> int -> int option
(** [known t ~tid ~peer] is the lookup function feeding
    {!Pm2_net.Codec.delta_manifest}: page address → believed hash. *)

val has_knowledge : t -> tid:int -> peer:int -> bool

val drop_thread : t -> tid:int -> unit
(** Forget everything about [tid]: its image and all knowledge entries
    (thread exit). *)

val drop_peer : t -> peer:int -> int
(** Forget every (thread, [peer]) knowledge entry — [peer] crashed or was
    declared dead, so it retains nothing. Advisory state only (images are
    untouched); returns the number of entries dropped. *)

val images : t -> int
(** Number of retained images. *)

val corrupt_page : t -> tid:int -> addr:int -> bool
(** Test hook: flip a byte in the retained copy of [tid]'s page at
    [addr] so the next [Cached] restore fails its hash check. [true] iff
    the page existed. *)

val check : t -> unit
(** Internal invariants: byte accounting matches image contents and
    unpinned images respect the budget. @raise Failure on violation. *)

(** Content-addressed store of checkpointed thread images.

    One snapshot per thread (the latest wins), stored as the same v3
    codec frame the migration pipeline ships on the wire — the store and
    the wire share one format, so a restore is just an
    [unpack_group]. Page content is held once in a shared pool keyed by
    the FNV-1a-64 page hashes from {!Pm2_vmem.Address_space}: a page
    whose content is already pooled (from an earlier checkpoint of the
    same thread, or from {e any other} thread) costs only a reference,
    which is why steady-state checkpoint bytes are deltas for free.

    Refcounts track occurrences across snapshots' hash lists; a pooled
    page is evicted when the last snapshot referencing it is superseded
    ({!save}) or dropped ({!drop}). *)

type entry = {
  e_tid : int;
  e_node : int; (* node the thread lived on at snapshot time *)
  e_gen : int; (* that node's incarnation number at snapshot time *)
  e_at : float; (* virtual time of the snapshot, µs *)
  e_frame : Bytes.t; (* v3 codec group-of-one wire image *)
  e_ranges : (int * int) list; (* (addr, size) slot ranges, for the probe *)
  e_hashes : int list; (* content refs, one per non-zero page *)
}

type t

val create : unit -> t

(** [save t ~tid ~node ~gen ~at ~frame ~ranges ~pages] stores a new
    snapshot for [tid], superseding any previous one. The store keeps
    [frame] itself: the caller must not write it again. [pages] is the
    [(hash, read)] list of every non-zero page of the image; [read ()]
    must return a fresh copy of the page, and is called only for a page
    whose hash the pool lacks. Returns how many pages were new to the
    pool — the incremental content cost of this checkpoint. *)
val save :
  t ->
  tid:int ->
  node:int ->
  gen:int ->
  at:float ->
  frame:Bytes.t ->
  ranges:(int * int) list ->
  pages:(int * (unit -> Bytes.t)) list ->
  int

val latest : t -> tid:int -> entry option

(** [drop t ~tid] forgets [tid]'s snapshot (thread exited), releasing its
    page references. *)
val drop : t -> tid:int -> unit

val has_page : t -> hash:int -> bool

(** [find_page t ~hash] — the pooled content for [hash]; what the restore
    callback feeds to {!Pm2_net.Codec.decode_range}. *)
val find_page : t -> hash:int -> Bytes.t option

(** {1 Statistics} *)

val entries : t -> int
val saves : t -> int

val dedup_pages : t -> int
(** Page saves served by the pool instead of new content. *)

val pool_pages : t -> int
val pool_bytes : t -> int

val bytes : t -> int
(** Total store footprint: pooled content + stored frames. *)

val page_size : int

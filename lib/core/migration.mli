(** Iso-address migration: pack / transfer / unpack (paper, §2 and §4).

    The migration operation is carried out in three steps:

    + the thread is frozen and its resources (descriptor + slots) are
      copied into a communication buffer; the memory areas are unmapped;
    + the buffer travels to the destination node;
    + the destination maps memory {e at the same virtual addresses},
      copies the resources back, and resumes the thread.

    Two packing strategies are provided (ablation A2): {!Full_slots} ships
    every byte of every slot; {!Blocks_only} is the paper's §6
    optimization — only the header, the live stack region and the
    internally allocated blocks of each slot are sent, and the free blocks
    are reconstructed from the gaps on arrival.

    The direct, fault-free hop that carries the paper's calibrated
    numbers is {!move_out}/{!move_in}: every node's space lives in one
    process, so the slots' pages change owner instead of travelling as
    bytes. {!pack}/{!unpack} build and apply the wire image the hop
    models; they stay as its byte-for-byte reference. Every other
    migration — a group, or a lone iso thread with delta migration on or
    under a live fault plan (a group of one) — goes through the group
    pipeline below: one probe/verdict handshake, one checksummed
    transfer, and rollback to the source on any failure.

    Each part of the wire exists once. One descriptor writer and one
    reader serve both images, parameterised by the word codec (8-byte
    words in a {!pack} image, varints in a group image). One pack-cost
    and one unpack-cost formula charge every path — the oracle, the
    direct hop, the group pipeline and checkpoints. The pipeline's
    control messages are one {!msg} type with one {!encode} and one total
    {!decode}. *)

type packing =
  | Blocks_only
  | Full_slots

type packed = {
  buffer : Bytes.t; (* what travels on the wire *)
  pack_cost : float; (* freeze + copy-out + unmapping, µs *)
  slots : int; (* chain entries shipped (stack slot included) *)
}

(** [pack ~cost ~space ~packing thread] freezes [thread], packs its
    resources, and unmaps its slots from [space]. After this the
    thread's memory exists only in the buffer. [?obs] receives one
    [Pack_slot] event per chain entry (packed wire bytes), attributed to
    [?node] (default 0). *)
val pack :
  ?obs:Pm2_obs.Collector.t ->
  ?node:int ->
  cost:Pm2_sim.Cost_model.t ->
  space:Pm2_vmem.Address_space.t ->
  packing:packing ->
  Thread.t ->
  packed

(** [image_size ~space ~packing thread] is the length of the buffer
    {!pack} would produce for [thread] now, computed from the descriptor
    and the slot chain without packing. [pack] sizes its wire buffer with
    it, so the image is built in one allocation and handed over without
    a copy. *)
val image_size :
  space:Pm2_vmem.Address_space.t -> packing:packing -> Thread.t -> int

(** [unpack ~cost ~space thread buffer] maps every packed slot at its
    original address in [space], restores the contents, and overwrites
    [thread]'s descriptor fields (context, slot list head, registered
    pointers) from the wire image. Returns the unpack cost in µs. [?obs]
    receives one [Unpack_slot] event per slot (wire bytes consumed).
    @raise Invalid_argument on a corrupt buffer.
    @raise Invalid_argument if some target page is already mapped — i.e.
    the iso-address discipline was violated. *)
val unpack :
  ?obs:Pm2_obs.Collector.t ->
  ?node:int ->
  cost:Pm2_sim.Cost_model.t ->
  space:Pm2_vmem.Address_space.t ->
  Thread.t ->
  Bytes.t ->
  float

(** {1 The direct hop: page ownership} *)

type moved_pages
(** A thread's slots in transit: their pages, taken out of the source
    space ({!Pm2_vmem.Address_space.take}), and what {!pack} would have
    shipped of each. These buffers have no other owner. *)

type moved = {
  m_bytes : int; (* wire bytes: what {!pack}'s image would measure *)
  m_pack_cost : float; (* {!pack}'s cost for that image, µs *)
  m_slots : int; (* chain entries moved (stack slot included) *)
  m_pages : moved_pages;
}

(** [move_out ~cost ~space ~packing thread] freezes [thread] and takes
    its slots' pages out of [space], leaving the slots unmapped as
    {!pack} does. Sizes, cost and [Pack_slot] events equal {!pack}'s. *)
val move_out :
  ?obs:Pm2_obs.Collector.t ->
  ?node:int ->
  cost:Pm2_sim.Cost_model.t ->
  space:Pm2_vmem.Address_space.t ->
  packing:packing ->
  Thread.t ->
  moved

(** [move_in ~cost ~space thread moved] installs the moved pages at
    their addresses in [space] and returns the unpack cost in µs.
    [space] ends up as {!unpack} of {!pack}'s image would leave it —
    every page's bytes, store marks, epoch heat, hashes and zero state,
    and the rebuilt free lists — with the same cost and [Unpack_slot]
    events. Only {!Pm2_vmem.Address_space.resident_pages} may differ.
    The descriptor is not touched: the thread never left this process.
    [moved] must not be used again.
    @raise Invalid_argument if some target page is already mapped. *)
val move_in :
  ?obs:Pm2_obs.Collector.t ->
  ?node:int ->
  cost:Pm2_sim.Cost_model.t ->
  space:Pm2_vmem.Address_space.t ->
  Thread.t ->
  moved ->
  float

val packing_to_string : packing -> string

(** [(base address, size)] of every slot in the thread's chain. *)
val slot_ranges : Pm2_vmem.Address_space.t -> Thread.t -> (int * int) list

(** {1 Group migration (v2/v3 codec)}

    N threads moving between the same pair of nodes share one pipeline:
    one probe/verdict handshake covering every member's ranges, one
    {!Pm2_net.Codec} V2 or V3 wire image, one reliable packet train, all
    carried by the {!msg} codec below. Inside the image, each descriptor
    is {!pack}'s field list written as varints (without the magic word),
    its cost is {!pack}'s formula summed over the members, and every slot ships
    as a page manifest plus only its non-zero pages — untouched and
    all-zero pages are recreated by the destination's [mmap] zero-fill
    (zero-page elision), and because pages carry slot headers and block
    tags verbatim no free-list rebuild is needed on arrival.

    A V3 image additionally classifies pages the destination is believed
    to retain (from a previous hop) as [Cached] and ships only their
    content hash — delta migration. The destination restores those pages
    from its residual image cache and fetches any it cannot restore with
    a {!Delta_request}/{!Delta_full} exchange. *)

type group_packed = {
  g_buffer : Bytes.t; (* Codec V2/V3 frame: what travels in the train *)
  g_pack_cost : float; (* freezes + copy-out + unmapping, µs *)
  g_slots : int; (* slots shipped across all members *)
  g_data_pages : int; (* pages shipped verbatim *)
  g_zero_pages : int; (* pages elided by the manifest *)
  g_cached_pages : int; (* pages shipped as hashes only (v3) *)
  g_retained : (int * (int * Bytes.t) list) list;
      (* v3 with [unmap] only: per member, every non-zero page it had —
         the buffers taken out of the source, not copies — for the caller
         to pin in its delta cache to back rollback and the full-resend
         fallback *)
}

(** [pack_group ~cost ~space ~gid threads] packs every member into one
    frame and unmaps their slots from [space] — only after the whole
    image is built, so a packing failure leaves the source untouched.
    [?version] selects the codec (default [V2]). Under
    [V3], [known ~tid] is the sender's believed destination knowledge
    (page address → hash, typically {!Delta_cache.known}); pages whose
    current hash matches ship as [Cached], and [g_retained] carries the
    pages to pin. [?obs] receives one [Pack_slot] event per slot,
    plus per-member [Delta_hit]/[Delta_miss] under [V3]. [?trace] is the
    causal-trace context stamped into the codec frame
    ({!Pm2_net.Codec.frame}) for destination-side span parenting.
    [?unmap:false] builds the identical image {e without} freeing the
    source memory (and without charging the munmaps) and retains
    nothing — the non-destructive snapshot a checkpoint takes of a
    still-running thread. *)
val pack_group :
  ?obs:Pm2_obs.Collector.t ->
  ?node:int ->
  ?version:Pm2_net.Codec.version ->
  ?known:(tid:int -> int -> int option) ->
  ?trace:int * int ->
  ?unmap:bool ->
  cost:Pm2_sim.Cost_model.t ->
  space:Pm2_vmem.Address_space.t ->
  gid:int ->
  Thread.t list ->
  group_packed

(** The result of {!unpack_group}. *)
type group_unpacked = {
  u_gid : int;
  u_tids : int list; (* member tids in wire order *)
  u_cost : float; (* unpack cost, µs *)
  u_missing : (int * int * int) list;
      (* (tid, page addr, hash): v3 [Cached] pages the restore callback
         could not reconstruct; the caller fetches them with a
         {!Delta_request} before the group may commit *)
  u_ranges : (int * (int * int) list) list;
      (* per member, its slot (addr, size) ranges as decoded *)
  u_trace : (int * int) option;
      (* the frame's causal-trace context (trace id, parent span id), if
         the sender stamped one *)
}

(** [unpack_group ~cost ~space ~lookup buffer] decodes a {!pack_group}
    image, read in place from [buffer.[pos .. pos+len-1]] (default: all
    of [buffer]; the cost charges [len] bytes): maps every slot at its original address, stores the data
    pages, and overwrites each member's descriptor ([lookup tid] resolves
    the thread). For a V3 image, each [Cached] page invokes
    [restore ~tid ~addr ~hash]; the callback must blit the retained page
    and return [true] only on a content-hash match — failures are
    collected into [u_missing] (default callback restores nothing).
    @raise Invalid_argument on a corrupt or unframed buffer, or an
    already-mapped target page (caller scrubs the ranges and rolls the
    whole group back). *)
val unpack_group :
  ?obs:Pm2_obs.Collector.t ->
  ?node:int ->
  ?restore:(tid:int -> addr:int -> hash:int -> bool) ->
  ?pos:int ->
  ?len:int ->
  cost:Pm2_sim.Cost_model.t ->
  space:Pm2_vmem.Address_space.t ->
  lookup:(int -> Thread.t) ->
  Bytes.t ->
  group_unpacked

(** Concatenated {!slot_ranges} of every member, in member order. *)
val group_ranges : Pm2_vmem.Address_space.t -> Thread.t list -> (int * int) list

(** {1 Control messages}

    The group pipeline's messages, one type with one codec. Each is
    8-byte words: a magic word ("GPRO", "GVER", "GXFR", "RDLT" or
    "RFUL"), the group id, then the fields below in order.

    When a v3 destination cannot restore a [Cached] page — its residual
    image was evicted, or the retained copy's hash no longer matches
    (corruption) — it sends the source a {!Delta_request} naming the
    pages; the source answers with a {!Delta_full} carrying their raw
    bytes, served from the pinned image it kept at pack time. Correctness
    never depends on cache contents: a failed restore always degrades to
    a full-page resend, never to a silently wrong image. *)

type msg =
  | Probe of { gid : int; ranges : (int * int) list; trace : (int * int) option }
      (** The slot ranges the destination must be able to map. [trace] is
          a [(trace id, parent span id)] context, sent as two trailing
          words when present (an untraced probe keeps its historic
          bytes). *)
  | Verdict of { gid : int; ok : bool; reason : string }
  | Transfer of { gid : int; ranges : (int * int) list; image : Bytes.t * int * int }
      (** The image as a [(data, pos, len)] view, behind its own
          checksum. *)
  | Delta_request of { gid : int; pages : (int * int * int) list }
      (** [(tid, page addr, expected hash)] of every page to resend. *)
  | Delta_full of { gid : int; pages : (int * int * Bytes.t) list }
      (** [(tid, page addr, page bytes)]; every page is page-sized. *)

(** [encode m] is the message's wire bytes, in one exact-size buffer. *)
val encode : msg -> Bytes.t

(** [decode b] is total. A transfer's image comes back as a view into
    [b] (nothing is copied) after its checksum is verified in place.
    [Error reason] names the kind the magic announces ("malformed probe",
    "malformed group transfer message", ...; "malformed message" for an
    unknown magic), or is "group wire buffer checksum mismatch". *)
val decode : Bytes.t -> (msg, string) result

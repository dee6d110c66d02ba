(** Madeleine-style pack/unpack buffers.

    PM2's migration protocol copies the thread resources into a
    communication buffer, ships it, and unpacks on the destination (paper,
    §2). We reproduce that with real byte buffers so that message sizes —
    which drive the network cost model — are faithful to what is actually
    packed (descriptor fields, slot headers, live blocks). *)

(** {1 Packing} *)

type packer

(** [packer ?size ()] is an empty wire buffer with room for [size] bytes
    (default 256). It grows by doubling when full. A caller that knows
    the exact final size passes it: the buffer is then allocated once and
    {!contents} returns it without a copy. *)
val packer : ?size:int -> unit -> packer

val pack_int : packer -> int -> unit
(** 8 bytes, little-endian. *)

val pack_float : packer -> float -> unit

val pack_bytes : packer -> Bytes.t -> unit
(** Length-prefixed byte block. *)

val pack_string : packer -> string -> unit

val pack_list : packer -> ('a -> unit) -> 'a list -> unit
(** Length-prefixed list; elements packed by the callback. *)

(** [pack_raw p ~len write] packs a length-prefixed block of exactly [len]
    bytes: it reserves the region and calls [write buf pos], which must
    fill [buf.[pos .. pos+len-1]]. This is the zero-copy variant of
    {!pack_bytes}. The migration packer uses it to copy simulated memory
    straight onto the wire. The wire format is identical to [pack_bytes].
    The region starts uninitialised; [write] must not touch bytes outside
    it. @raise Invalid_argument if [len] is negative. *)
val pack_raw : packer -> len:int -> (Bytes.t -> int -> unit) -> unit

(** [pack_varint p v] packs [v] as a zigzag-folded LEB128 varint: the
    sign bit moves to bit 0, then 7 bits per wire byte, high bit set on
    all but the last. Values in [-64, 63] take one byte; slot-sized
    addresses take 5 — the compact integer encoding of the v2 migration
    codec ({!Codec}). *)
val pack_varint : packer -> int -> unit

(** [pack_unprefixed p ~len write] is {!pack_raw} with {e no} length
    prefix — for codec layers that already know the length from their
    own framing (e.g. fixed-size page images).
    @raise Invalid_argument if [len] is negative. *)
val pack_unprefixed : packer -> len:int -> (Bytes.t -> int -> unit) -> unit

(** [varint_size v] is the number of bytes {!pack_varint} writes for [v]. *)
val varint_size : int -> int

(** [patch_int p ~pos v] overwrites the {!pack_int} word already packed
    at byte [pos] with [v]: a length known only once what follows it is
    packed.
    @raise Invalid_argument if [pos .. pos+7] is not inside the packed
    bytes. *)
val patch_int : packer -> pos:int -> int -> unit

val packed_size : packer -> int

(** [contents p] is the packed bytes. When the buffer is exactly full (an
    exact [?size] hint) it is returned as is, with no copy; later packs
    into [p] reallocate, so the result is never written again. *)
val contents : packer -> Bytes.t

(** {1 Unpacking} *)

type unpacker

(** [unpacker ?pos ?len b] reads [b.[pos .. pos+len-1]] in place
    (default: all of [b]); {!remaining} counts to the end of that window.
    @raise Invalid_argument if the window falls outside [b]. *)
val unpacker : ?pos:int -> ?len:int -> Bytes.t -> unpacker

(** [unpack_int u] reads one {!pack_int} word.
    @raise Invalid_argument on truncation, or on a word whose bit 63
    differs from bit 62: {!pack_int} sign-extends every int, so no
    packer writes one. *)
val unpack_int : unpacker -> int

val unpack_float : unpacker -> float
val unpack_bytes : unpacker -> Bytes.t
val unpack_string : unpacker -> string
val unpack_list : unpacker -> (unit -> 'a) -> 'a list

(** [unpack_view u] consumes a length-prefixed block like {!unpack_bytes}
    but returns a [(data, pos, len)] view into the wire buffer instead of
    copying it out. The view is read-only by convention; it aliases the
    unpacker's buffer.
    @raise Invalid_argument on a negative length prefix or truncation. *)
val unpack_view : unpacker -> Bytes.t * int * int

(** [unpack_varint u] reads one {!pack_varint} integer.
    @raise Invalid_argument on truncation or overflow. *)
val unpack_varint : unpacker -> int

(** [unpack_take u len] consumes the next [len] un-prefixed bytes and
    returns an aliasing [(data, pos)] view — the inverse of
    {!pack_unprefixed}.
    @raise Invalid_argument if fewer than [len] bytes remain. *)
val unpack_take : unpacker -> int -> Bytes.t * int

val remaining : unpacker -> int
(** Bytes not yet consumed (0 after a complete unpack). *)

(** {1 Integrity} *)

val checksum : ?pos:int -> ?len:int -> Bytes.t -> int
(** FNV-1a 64-bit hash of [b.[pos .. pos+len-1]] (default: all of [b])
    folded to a non-negative OCaml [int]. Used by the reliable-delivery
    layer and the migration pipeline's transfer messages to detect
    corrupted wire buffers.
    @raise Invalid_argument if the window falls outside [b]. *)

(** Versioned migration wire codec.

    The group-migration train frames its payload with an explicit
    version header and encodes each slot as a {e page manifest} plus
    the raw bytes of only the pages that hold data. Untouched and
    all-zero pages are {e described, not shipped}: the destination
    recreates them for free because {!Pm2_vmem.Address_space.mmap}
    zero-fills (zero-page elision).

    v3 adds a third page class, [Cached]: a page whose 62-bit content
    hash matches what the destination is believed to retain from a
    previous hop of the same thread is shipped as its hash alone, and
    the destination reconstructs it from its residual image cache —
    delta migration.

    Frame layout (all fixed fields 8-byte LE words):
    {v
      +--------+---------+-----------------+---------------------+
      | "PM2C" | version |  payload length |   payload bytes...  |
      +--------+---------+-----------------+---------------------+
    v}

    A buffer that does not start with the ["PM2C"] magic is not a frame
    and decodes to an error. The direct single-thread hop moves its
    pages without any wire image ([Pm2_core.Migration.move_out]) and
    never passes through this codec.

    Range encoding, per slot — one format, whose class tag is 1 bit
    wide in v2 (no [Cached] class) and 2 bits wide in v3:
    {v
      varint run_count
      run_count x [ varint (pages << bits | tag)  tag: 0=Zero 1=Data 2=Cached
                    if tag = Cached:
                      pages x 8-byte LE content hash ]
      raw page bytes of every Data run, in order  (no per-page framing)
    v}

    Varints are zigzag LEB128 ({!Packet.pack_varint}). *)

(** Wire format generations. [V2] is the page manifest with zero-page
    elision; [V3] adds the [Cached] page class for delta transfers. *)
type version = V2 | V3

val version_name : version -> string
(** ["v2"] / ["v3"], for logs and error messages. *)

(** [frame ?trace version payload] wraps [payload] in a versioned frame.
    [trace] is a [(trace id, parent span id)] causal-trace context:
    when present, a flag bit is set in the version word and the two ids
    travel as extra words between the version and the payload. Without
    [trace] the frame is byte-for-byte the historic layout, so
    tracing-off runs put exactly the same bytes on the wire. *)
val frame : ?trace:int * int -> version -> Bytes.t -> Bytes.t

(** Framing in place, for a payload packed straight behind its header:
    [open_frame ?trace version p] packs the header {!frame} would write
    (its length word a placeholder) and returns the length word's
    position; once the payload is packed, [close_frame p at] patches the
    length in. The bytes are exactly {!frame}'s. [header_size ?trace ()]
    is the header's size, 24 bytes untraced and 40 traced. *)
val header_size : ?trace:int * int -> unit -> int

val open_frame : ?trace:int * int -> version -> Packet.packer -> int
val close_frame : Packet.packer -> int -> unit

(** Typed decode errors. Fault-injected corruption must surface as a
    value the protocol layer can act on (nack, rollback, resend), never
    as an exception escaping the codec. *)
type error =
  | Bad_version of int  (** frame header names a version we don't speak *)
  | Bad_manifest of string
      (** not a frame, or a structurally invalid manifest or payload *)

val error_to_string : error -> string

(** [decode ?pos ?len buf] opens the frame held in
    [buf.[pos .. pos+len-1]] (default: all of [buf]): its version, its
    trace context if the trace flag is set (what the destination parents
    its spans through; [None] for untraced frames), and an unpacker over
    the payload in place — it aliases [buf], copies nothing and ends
    where the payload ends. Errors on a missing frame magic, unknown
    versions (a version word other than 2 or 3, with or without the
    trace flag), truncation, trailing garbage and a window outside
    [buf]. *)
val decode :
  ?pos:int ->
  ?len:int ->
  Bytes.t ->
  (version * (int * int) option * Packet.unpacker, error) result

(** {1 Page ranges} *)

(** Per-page classification of a slot image. *)
type page_class =
  | Zero  (** all-zero; recreated by mapping alone *)
  | Data  (** shipped verbatim *)
  | Cached of int
      (** content hash matches the destination's believed residual copy;
          only the hash travels (v3 only) *)

(** [delta_manifest space ~addr ~size ~known] classifies each page of the
    range: all-zero pages are [Zero] (clean pages classify without being
    read); a page for which [known addr] is [Some h] and whose
    {!Pm2_vmem.Address_space.page_hash} equals [h] is [Cached h];
    everything else is [Data]. [known] is the sender's knowledge of what
    the destination retains for this thread (page address → hash),
    typically from the delta cache; a page it knows nothing about is
    never hashed.
    @raise Invalid_argument if [size] is not a positive multiple of the
    page size. *)
val delta_manifest :
  Pm2_vmem.Address_space.t ->
  addr:int ->
  size:int ->
  known:(int -> int option) ->
  page_class list

(** [encode_range p version space ~addr ~size ~known] appends the
    range's manifest (with inline hashes for [Cached] runs) and the raw
    bytes of its [Data] runs to [p], with the tag width of [version];
    returns [(data_pages, zero_pages, cached_pages)]. [known] feeds
    {!delta_manifest}; a [V2] range ignores it, so it has no [Cached]
    pages.
    @raise Invalid_argument if [size] is not a positive multiple of the
    page size. *)
val encode_range :
  Packet.packer ->
  version ->
  Pm2_vmem.Address_space.t ->
  addr:int ->
  size:int ->
  known:(int -> int option) ->
  int * int * int

(** {!encode_range} in two steps, so a caller can size its buffer before
    writing: [plan_range] classifies the range's pages (hashing those
    [known] names) into its manifest runs, [range_size] is the exact
    number of bytes [write_range] then appends, and [write_range] packs
    the manifest and the data pages, read from [space] at that moment,
    returning the page counts. [encode_range] is the two in a row. *)
type range_plan

val plan_range :
  version ->
  Pm2_vmem.Address_space.t ->
  addr:int ->
  size:int ->
  known:(int -> int option) ->
  range_plan

val range_size : range_plan -> int
val write_range : Packet.packer -> Pm2_vmem.Address_space.t -> range_plan -> int * int * int

(** [decode_range u version space ~addr ~size ~restore] reads one
    {!encode_range} image of [version] into [space], which must already
    have the whole range freshly mapped (zero runs are left untouched).
    For each [Cached] page it calls [restore ~addr ~hash]; the callback must blit the retained page at [addr] and
    return [true] only if its content hash matches [hash]. Pages whose
    restore fails are collected (in address order) into the returned
    missing list [(addr, hash)] for the caller to fetch via the
    full-resend fallback. Returns [(data_pages, missing)].
    @raise Invalid_argument if the manifest is structurally invalid,
    does not cover [size], or the buffer is truncated. *)
val decode_range :
  Packet.unpacker ->
  version ->
  Pm2_vmem.Address_space.t ->
  addr:int ->
  size:int ->
  restore:(addr:int -> hash:int -> bool) ->
  int * (int * int) list

(** [try_decode_range] is {!decode_range} with corruption reported as
    [Error (Bad_manifest _)] instead of an exception. *)
val try_decode_range :
  Packet.unpacker ->
  version ->
  Pm2_vmem.Address_space.t ->
  addr:int ->
  size:int ->
  restore:(addr:int -> hash:int -> bool) ->
  (int * (int * int) list, error) result

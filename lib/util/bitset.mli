(** Fixed-size bitsets backed by [Bytes], scanned 64 bits at a time.

    This is the data structure behind the per-node slot bitmaps of the
    isomalloc slot layer (paper, §4.2): a 3.5 GB iso-address area divided
    into 64 KB slots gives 57 344 bits = 7 168 bytes per node. The hot
    scans ([first_set_from], [find_run], [count], [iter_set],
    [intersects]) operate on whole little-endian words with popcount /
    trailing-zero-count tricks and allocate nothing beyond an [option]
    result; the virtual-time charge accounting (per logical byte) is
    unchanged. The cluster's per-node thread indexes are bitsets too,
    indexed by thread id, walked with {!next_set_from} and grown with
    {!extend}. *)

type t

(** [create n] is a bitset of [n] bits, all cleared. *)
val create : int -> t

(** [init_words n f] is the bitset of [n] bits whose bits [64k .. 64k+63]
    are those of [f k], bit [i] of the word giving bit [64k + i]; bits
    at or above [n] are dropped. [f] is called once per word, in
    increasing order: the way to build a map whose pattern is known a
    word at a time. *)
val init_words : int -> (int -> int64) -> t

(** Number of bits. *)
val length : t -> int

(** Logical size in bytes, [(length + 7) / 8] (what travels on the wire
    during a negotiation gather/scatter, and what bitmap scans are charged
    on). The physical store may be padded to a whole number of words. *)
val byte_size : t -> int

val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit
val assign : t -> int -> bool -> unit

(** Number of set bits. *)
val count : t -> int

(** [first_set t] is the lowest set bit index, or [None]. *)
val first_set : t -> int option

(** [first_set_from t i] is the lowest set bit index [>= i], or [None]. *)
val first_set_from : t -> int -> int option

(** [next_set_from t i] is the lowest set bit index [>= i], or [-1]:
    {!first_set_from} without the [option], so a loop over the set bits
    allocates nothing. *)
val next_set_from : t -> int -> int

(** [find_run t n] is the start of the lowest run of [n] consecutive set
    bits, or [None]. First-fit, as in the paper's multi-slot search. *)
val find_run : t -> int -> int option

(** [set_range t i n] sets bits [i .. i+n-1]; [clear_range] clears them. *)
val set_range : t -> int -> int -> unit

val clear_range : t -> int -> int -> unit

(** [or_into ~into src] computes [into := into lor src] (the global OR of
    step 2c of the negotiation protocol). Lengths must match. *)
val or_into : into:t -> t -> unit

(** [copy_into ~into src] makes [into] a copy of [src] in place,
    allocating nothing. Lengths must match. *)
val copy_into : into:t -> t -> unit

(** [extend t n] is a fresh bitset of [n] bits holding [t]'s bits, the
    rest cleared: how a set that outgrows its length is grown.
    @raise Invalid_argument if [n < length t]. *)
val extend : t -> int -> t

(** [equal a b] is structural equality (same length, same bits). *)
val equal : t -> t -> bool

(** [iter_set f t] applies [f] to each set bit index in increasing order.
    The iteration reads one word at a time: mutations [f] makes to [t]
    within the word currently being visited are not observed. *)
val iter_set : (int -> unit) -> t -> unit

(** [intersects a b] is [true] iff some bit is set in both. Used to check
    the iso-address invariant that no slot is owned by two nodes. *)
val intersects : t -> t -> bool

val to_string : t -> string

val pp : Format.formatter -> t -> unit

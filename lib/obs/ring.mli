(** A bounded ring buffer of stamped events: the generic in-memory sink,
    and the per-node store of the flight recorder ({!Recorder}).

    Constant memory: once full, each push overwrites the oldest record
    (counted in {!dropped}). The ring is kept as columns (a
    [Float.Array] of times, an [int array] of nodes and an [Event.t
    array]), so {!push} allocates nothing: the only heap object an
    event costs is the [Event.t] the caller built. Records are built
    only when the ring is read. *)

type record = {
  time : float;
  node : int;
  event : Event.t;
}

type t

(** [create ~capacity] — capacity [0] is legal and drops every record
    (still counted in {!dropped}).
    @raise Invalid_argument on a negative capacity. *)
val create : capacity:int -> t

val capacity : t -> int

(** Records currently held (≤ capacity). *)
val length : t -> int

(** Records overwritten since creation / {!clear}. *)
val dropped : t -> int

(** [push t ~time ~node ev] stores one event, overwriting the oldest
    once the ring is full. Allocates nothing. *)
val push : t -> time:float -> node:int -> Event.t -> unit

val clear : t -> unit

(** Oldest first. *)
val to_list : t -> record list

(** Oldest first. *)
val iter : (record -> unit) -> t -> unit

(** The sink feeding this buffer. *)
val sink : t -> Sink.t

(** The flight recorder: a bounded ring of recent events per node,
    cheap enough to stay attached on every run, dumped as JSON when
    something goes wrong.

    The rings are {!Ring}s, kept in an array indexed by node id and
    made on a node's first event, so recording an event is an array
    load and a {!Ring.push}: it allocates nothing. The dump lists the
    nodes in ascending id order, whatever order they were first seen
    in.

    Trigger conditions: [Migration_abort], [Group_migration_abort],
    [Migration_rollback] and [Net_give_up]. Each trigger is recorded
    (and handed to the {!set_on_trigger} callback, which is where
    [pm2sim --flight-recorder PATH] hooks its dump-to-file). *)

type trigger = {
  trig_time : float;
  trig_node : int;
  trig_reason : string;
}

type t

(** [capacity] is per node (default 256 records; 0 keeps nothing and
    only counts, per node, the events it dropped).
    @raise Invalid_argument on a negative capacity. *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int

(** The sink to attach to the collector. An event stamped with a
    negative node id raises [Invalid_argument]. *)
val sink : t -> Sink.t

(** Triggers seen so far, oldest first. *)
val triggers : t -> trigger list

(** Called on every trigger, after it is recorded. *)
val set_on_trigger : t -> (trigger -> unit) -> unit

(** The dump, format ["pm2-flight/1"], compact on one line:
    [{"recorder":"pm2-flight/1","capacity":N,"triggers":[{"t":...,
    "node":...,"reason":...},...],"nodes":{"nodeK":{"dropped":N,
    "events":[...]},...}}] — triggers oldest first, and per node the
    retained events oldest first, each one [{"t":..., ...}] followed by
    the fields of {!Event.write}. *)
val dump : t -> string

val write_file : t -> string -> unit

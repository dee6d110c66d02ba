(** Discrete-event simulation engine.

    Virtual time is a [float] count of microseconds since simulation start.
    Events are closures ordered by (time, insertion sequence): ties are
    broken FIFO, so the simulation is fully deterministic.

    The queue is a binary min-heap kept as columns (a [Float.Array] of
    times, an [int array] of sequence numbers and an array of closures)
    and sifted with a hole, and the clock is a flat float cell. So
    {!schedule_after} and {!step} allocate nothing of their own (the
    arrays grow by doubling, which is amortised): the closure a caller
    builds, if it builds one per event, is the event's only heap
    object. *)

type t

type time = float
(** Microseconds of virtual time. *)

val create : unit -> t

val now : t -> time

(** [schedule t ~at f] runs [f] at absolute virtual time [at].
    @raise Invalid_argument if [at] is in the past. *)
val schedule : t -> at:time -> (unit -> unit) -> unit

(** [schedule_after t ~delay f] runs [f] at [now t +. delay]. Negative
    delays are clamped to 0. *)
val schedule_after : t -> delay:time -> (unit -> unit) -> unit

(** Number of events waiting to run. *)
val pending : t -> int

(** Sequence number the next [schedule] will assign. Together with
    {!peek_next} this lets a caller recognise its own events at the
    head of the queue without the engine knowing anything about their
    payloads. *)
val next_seq : t -> int

(** [(time, seq)] of the next event to run, or [None] if drained. This
    builds an option and a tuple; {!step} and {!run} never call it. *)
val peek_next : t -> (time * int) option

(** [run t] processes events until the queue is empty. Returns the final
    virtual time. [~until] stops the clock at that time (events scheduled
    later stay queued). [~max_events] guards against runaway simulations.
    @raise Failure if [max_events] is exceeded. *)
val run : ?until:time -> ?max_events:int -> t -> time

(** [step t] runs the single next event; [false] if the queue was empty. *)
val step : t -> bool

(** A pluggable event consumer.

    A sink is a named callback receiving every event the {!Collector}
    lets through, already stamped with virtual time and node id. The
    standard sinks are {!Ring} (bounded in-memory buffer), {!Metrics}
    (per-node counters / histograms), {!Chrome} (trace_event
    JSON for chrome://tracing and Perfetto) and
    [Pm2_sim.Trace.sink] (the legacy [[node0] ...] line renderer). *)

type t

val make : name:string -> (time:float -> node:int -> Event.t -> unit) -> t

val name : t -> string

val emit : t -> time:float -> node:int -> Event.t -> unit

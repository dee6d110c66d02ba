(** The event collector: the single funnel between instrumentation sites
    and sinks.

    A collector is created with a virtual-clock source (typically
    [fun () -> Engine.now engine]) and stamps every event at emission.
    When disabled — or when no sink is attached — {!emit} is a single
    branch; instrumentation sites additionally guard event construction
    with {!enabled} so a quiescent collector costs one test and no
    allocation. *)

type t

val create : now:(unit -> float) -> unit -> t

(** A permanently disabled shared collector — the default for modules
    instrumented with an optional [?obs] argument. Never attach a sink
    to it. *)
val null : t

val enabled : t -> bool

(** Toggle event flow without touching the sink list. Sinks keep whatever
    they have recorded so far. *)
val set_enabled : t -> bool -> unit

(** [attach t sink] appends [sink] and enables the collector. *)
val attach : t -> Sink.t -> unit

(** [detach t name] removes every sink called [name]; disables the
    collector when none remain. *)
val detach : t -> string -> unit

val sinks : t -> Sink.t list

(** Events that reached at least the sink loop since creation. *)
val emitted : t -> int

(** [emit t ~node ev] stamps [ev] with [now ()] and [node] and feeds every
    sink. No-op when disabled. *)
val emit : t -> node:int -> Event.t -> unit

(** [emit_at] with an explicit timestamp, for events whose natural time is
    not the current virtual instant (e.g. synchronous host-mode
    migration phases). *)
val emit_at : t -> time:float -> node:int -> Event.t -> unit

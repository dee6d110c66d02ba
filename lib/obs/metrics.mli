(** The per-node metrics registry sink: counters and fixed-bucket
    latency/size histograms ({!Pm2_util.Stats.Histogram}), keyed by the
    dot-separated taxonomy names of {!Event.name} (e.g.
    ["migration.pack"], ["negotiation.us"], ["heap.iso.alloc_bytes"]).

    Use {!sink} to aggregate a run's events, then {!report} (human) or
    {!to_json} (machine) for the per-node breakdown with p50/p95/p99
    snapshots. The registry can also be driven directly ({!incr},
    {!observe}) by code outside the event pipeline. Live gauges (heat,
    load) are not kept here; they live in {!Feed}. *)

type t

(** [create ?bounds ()] — [bounds] are the histogram bucket limits
    (default {!Pm2_util.Stats.Histogram.default_bounds}). *)
val create : ?bounds:float array -> unit -> t

val incr : t -> node:int -> ?by:int -> string -> unit
val observe : t -> node:int -> string -> float -> unit

(** 0 when never incremented. *)
val counter : t -> node:int -> string -> int

val histogram : t -> node:int -> string -> Pm2_util.Stats.Histogram.t option

(** Nodes that recorded at least one metric, ascending. *)
val node_ids : t -> int list

(** Sum of one counter across all nodes. *)
val total_counter : t -> string -> int

(** Merge one histogram across all nodes; [None] if no node has it. *)
val merged_histogram : t -> string -> Pm2_util.Stats.Histogram.t option

(** The sink mapping events onto this registry. [Slot_transfer] is
    attributed to both the seller (["slot.sold"]) and the buyer
    (["slot.bought"]); everything else lands on the emitting node. *)
val sink : t -> Sink.t

(** Plain-text per-node report (counters, histogram quantiles). *)
val report : t -> string

(** The per-node breakdown as a JSON tree: [{"node0":{"counters":{...},
    "histograms":{"name":{"n":..,"mean":..,"p50":..,"p95":..,"p99":..,
    "max":..},...}},...}], keys sorted. Render it with {!Json.to_string}
    or {!Json.value}; numbers keep full precision. *)
val to_json : t -> Json.t

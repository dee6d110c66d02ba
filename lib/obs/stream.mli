(** JSON-lines streaming export: one flat object per event
    ([{"t":..., "node":..., "name":..., ...payload}], the fields of
    {!Event.write}), written as events happen. Periodic metrics
    snapshots interleave as ["metrics.snapshot"] lines; consumers
    dispatch on ["name"]. *)

type t

val open_file : string -> t

(** Lines written so far (events + snapshots). *)
val lines : t -> int

(** The sink to attach to the collector. *)
val sink : t -> Sink.t

(** [write_metrics t ~time m] writes one snapshot line
    [{"t":..., "name":"metrics.snapshot", "metrics":...}] embedding
    [Metrics.to_json m]. *)
val write_metrics : t -> time:float -> Metrics.t -> unit

(** Flushes and closes the file. *)
val close : t -> unit

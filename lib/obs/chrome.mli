(** Chrome [trace_event]-format JSON exporter.

    Records every event and renders the run as a JSON object with a
    [traceEvents] array, loadable in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}. The mapping:

    - [Migration_phase] → complete ("X") spans named [migrate:pack],
      [migrate:send], [migrate:remap], [migrate:restart], with pid = node
      and tid = thread id; [Group_migration_phase] likewise as
      [group_migrate:*] with tid = group id;
    - [Neg_grant] / [Neg_deny] → complete spans [negotiation] /
      [negotiation:deny] covering the modelled protocol time;
    - [Span_end] → a complete span [span:KIND] from the span's virtual
      start, tid = trace id, with cross-node flow arrows to its parent;
    - every other event → an instant ("i") event on its node, named by
      {!Event.name} ([pm2_printf] for guest output).

    Every event's [args] object is its own wire fields, exactly as
    {!Event.write_fields} writes them for the JSON-lines stream. This
    module adds only what is Chrome-specific: the display name, the
    category, and the ts/dur/tid placement. Timestamps are virtual
    microseconds, which is natively what the [ts]/[dur] fields expect. *)

type t

val create : unit -> t

(** Events recorded so far. *)
val length : t -> int

val clear : t -> unit

val sink : t -> Sink.t

val to_string : t -> string
val write_file : t -> string -> unit

(** Reliable delivery over the lossy {!Network}.

    BIP/Myrinet gave the original PM2 a reliable transport for free; once
    the fault plan can drop, duplicate or corrupt messages, the protocols
    that carry thread state need these guarantees back. This layer
    provides at-most-once delivery with best-effort retransmission:

    - every message carries a sequence number and an FNV checksum;
    - the receiver acknowledges each copy, suppresses duplicates (a
      per-connection dedup table) and silently discards corrupt frames;
    - the sender retransmits on an RTT-derived timeout with exponential
      backoff, up to a bounded number of attempts, then gives up and runs
      the failure continuation.

    Retransmissions, duplicate suppressions and give-ups are emitted
    through the observability taxonomy ([Net_retransmit],
    [Net_dup_suppress], [Net_give_up]).

    When the network's fault plan is disabled — or for self-sends — the
    layer degrades to a plain {!Network.send} with no header, no acks and
    no timers, so fault-free runs are unchanged. *)

type t

(** [create ?obs ?max_attempts net] — [max_attempts] (default 12)
    bounds the retransmission budget of {!send} and {!send_train}. The
    timeout of attempt [n] is [base * 2 ^ min (n-1) 6], and
    {!send_train} cuts its payload into 16 KB fragments.
    @raise Invalid_argument if [max_attempts < 1]. *)
val create :
  ?obs:Pm2_obs.Collector.t ->
  ?max_attempts:int ->
  Network.t ->
  t

(** Attach a causal tracer: train assembly at the destination then closes
    a [Train] span (first fragment arrival → assembly) parented through
    the trace context carried by the fragments. *)
val set_tracer : t -> Pm2_obs.Span.t -> unit

val network : t -> Network.t

(** [send t ~src ~dst payload ~on_delivered ~on_failed] ships [payload]
    with retransmission. [on_delivered payload] runs at the destination
    the first time an intact copy arrives; [on_failed ~reason] runs at
    the sender when the attempt budget is exhausted without the message
    ever reaching [dst]. Exactly one of the two continuations runs. *)
val send :
  t ->
  src:int ->
  dst:int ->
  Bytes.t ->
  on_delivered:(Bytes.t -> unit) ->
  on_failed:(reason:string -> unit) ->
  unit

(** [send_train t ~src ~dst payload ~on_delivered ~on_failed] ships a
    large payload as one {e packet train}: the payload is cut into
    fragments (each its own checksummed frame), and the receiver
    reassembles them and acknowledges the train {e as a single unit} once
    every fragment has arrived. On timeout the whole train is resent —
    the receiver drops fragments it already holds, so a resend costs only
    suppressed duplicates. [on_delivered] runs at the destination with
    the reassembled payload exactly once; [on_failed] runs at the sender
    if the attempt budget is exhausted, and the train id is poisoned so a
    straggler can never complete it afterwards (the all-or-nothing
    delivery the group-migration rollback relies on). Fault-free
    networks and self-sends degrade to one plain {!Network.send}.

    [trace] is a [(trace id, parent span id)] context appended to each
    fragment (two trailing words; absent when omitted, keeping untraced
    fragments byte-identical) — what parents the destination-side [Train]
    span when a tracer is attached via {!set_tracer}. *)
val send_train :
  ?trace:int * int ->
  t ->
  src:int ->
  dst:int ->
  Bytes.t ->
  on_delivered:(Bytes.t -> unit) ->
  on_failed:(reason:string -> unit) ->
  unit

(** {1 Heartbeats}

    Liveness beacons for the crash detector: one unacked, checksummed
    [HBEA] frame per call, routed through the same faulty network as
    everything else — a killed, crashed or partitioned sender produces
    none, which is exactly the signal the suspicion protocol keys on. *)

(** [send_heartbeat t ~src ~dst ~gen ~on_heard] fires one beacon carrying
    the sender id and its incarnation number [gen]; [on_heard ~src ~gen]
    runs at the destination iff the beacon survives the fault plan. No
    retransmission: a lost beacon is just a missed beat. *)
val send_heartbeat :
  t -> src:int -> dst:int -> gen:int -> on_heard:(src:int -> gen:int -> unit) -> unit

(** {1 Crash teardown} *)

(** [forget_node t ~node] discards the partial train assemblies held in
    [node]'s memory (a crash destroys them) and silently cancels every
    send session [node] originated — the dead incarnation's timers and
    continuations never fire, neither as delivery nor as failure.
    Sessions {e to} the dead node are untouched: their senders are alive
    and give up on their own schedule (or succeed after a restart).
    Returns how many sessions were torn down. *)
val forget_node : t -> node:int -> int

(** {1 Statistics} *)

val retransmits : t -> int

val duplicates_suppressed : t -> int

(** [link_dup_suppressed t ~src ~dst] — duplicates suppressed on the
    directed link [src → dst] (data copies, whole-train re-deliveries and
    per-fragment duplicates alike). Summing over all links yields
    {!duplicates_suppressed}. @raise Invalid_argument on an out-of-range
    node. *)
val link_dup_suppressed : t -> src:int -> dst:int -> int

val give_ups : t -> int

val train_retransmits : t -> int
(** Whole-train resends (also counted in {!retransmits}). *)

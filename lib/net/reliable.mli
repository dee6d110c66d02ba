(** Reliable delivery over the lossy {!Network}.

    BIP/Myrinet gave the original PM2 a reliable transport for free; once
    the fault plan can drop, duplicate or corrupt messages, the protocols
    that carry thread state need it back. This layer provides
    at-most-once delivery with best-effort retransmission through one
    session machine. A session is an id, the frames each attempt
    (re)sends and the tables that id lives in: {!send} opens one over a
    single [RELD] frame keyed by its sequence number, {!send_train} one
    over N [RELT] fragments keyed by its train id. Both share the rest:

    - an FNV checksum over each frame's id and payload; a frame that does
      not {!decode} is silently dropped;
    - acks ([RELA], [RELK]) and duplicate suppression through one table
      of delivered ids per id space, for the whole layer;
    - an RTT-derived timeout with exponential backoff up to a bounded
      number of attempts, then a give-up that poisons the id and runs the
      failure continuation ([Net_retransmit] or [Train_retransmit],
      [Net_dup_suppress] and [Net_give_up] in the event stream).

    Receipt reads each frame where it lies: a message's payload is copied
    out once, and a train is assembled from fragment views into one
    buffer of its exact size. Traffic that {!Network.faulty} keeps off
    the fault plan — a disabled plan, or a self-send — is a plain
    {!Network.send}: no header, no acks, no timers. *)

type t

(** [create ?obs ?max_attempts net] — [max_attempts] (default 12)
    bounds every session's attempts; the timeout of attempt [n] is
    [base * 2 ^ min (n-1) 6]. @raise Invalid_argument if
    [max_attempts < 1]. *)
val create :
  ?obs:Pm2_obs.Collector.t ->
  ?max_attempts:int ->
  Network.t ->
  t

(** Attach a causal tracer: train assembly at the destination then closes
    a [Train] span (first fragment arrival → assembly) parented through
    the trace context carried by the fragments. *)
val set_tracer : t -> Pm2_obs.Span.t -> unit

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
    large payload as one {e packet train}: one checksummed fragment
    frame per 16 KB, acknowledged {e as a single unit} once every
    fragment has arrived. On timeout the whole train is resent; the
    receiver drops fragments it already holds. [on_delivered] runs at
    the destination with the whole payload exactly once; on [on_failed]
    the train id is poisoned, so a straggler can never complete it
    afterwards (the all-or-nothing delivery the group-migration rollback
    relies on). Bypassed traffic is one plain {!Network.send}.

    [trace] is a [(trace id, parent span id)] context appended to each
    fragment; it parents the destination-side [Train] span when a tracer
    is attached via {!set_tracer}. *)
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

(** {1 Frames}

    Exposed so tests can build, flip and cut frames. A frame is
    [[magic][checksum][length][inner]], one little-endian word each,
    the checksum being {!Packet.checksum} over the inner region. *)

(** The id space of a session and of its acknowledgement. *)
type kind =
  | Message
  | Train

type frame =
  | Data of { seq : int; payload : Bytes.t * int * int }
      (** [RELD]: one message; [payload] is a [(data, pos, len)] slice. *)
  | Frag of {
      train : int;
      idx : int;
      nfrags : int;
      payload : Bytes.t * int * int;
      trace : (int * int) option;
    }
      (** [RELT]: fragment [idx] of [nfrags], with its trace context as
          two trailing words when present. *)
  | Ack of kind * int  (** [RELA] for a message, [RELK] for a whole train. *)
  | Heartbeat of { node : int; gen : int }  (** [HBEA]: one beacon. *)

val encode : frame -> Bytes.t

(** [decode b] is the one frame [b] holds, or [None]; it never raises.
    It refuses a wrong length, a checksum mismatch, an unknown magic,
    an inner region not parsed to its last byte, and a fragment index
    outside [0, nfrags). Payloads are views into [b]. *)
val decode : Bytes.t -> frame option

(** [receive t kind ~src ~dst ~on_delivered b] is what [dst] does with
    [b] arriving from [src] on a [kind] session, and what every session
    copy goes through: ack and deliver a [Data] frame once per id, or
    store a [Frag] (a view of [b], which must not change afterwards) and
    ack and deliver the train when it is whole. Anything else is dropped
    without a reply. *)
val receive :
  t -> kind -> src:int -> dst:int -> on_delivered:(Bytes.t -> unit) -> Bytes.t -> unit

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

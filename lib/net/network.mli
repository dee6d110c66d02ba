(** A simulated cluster interconnect (Myrinet + BIP, as used in the paper's
    experiments, accessed through a Madeleine-like send interface).

    The network is modelled as full crossbar links with uniform one-way
    latency and bandwidth taken from {!Pm2_sim.Cost_model}. A message is a
    byte payload plus a delivery continuation: [send] schedules the
    continuation on the engine at [now + latency + size/bandwidth].
    Per-(src,dst) byte and message counters feed the experiment reports. *)

type t

(** [?obs] receives [Packet_send] at the emission time and
    [Packet_deliver] at the modelled arrival time for every {!send};
    {!record_virtual} traffic emits both at the recording instant.

    [?faults] threads a {!Pm2_fault.Plan} into every [send]: messages may
    then be dropped (loss, partition, dead interface), duplicated,
    delayed, reordered or corrupted, per the plan's seeded draws. With
    the default {!Pm2_fault.Plan.none} the send path is exactly the
    fault-free code. *)
val create :
  ?obs:Pm2_obs.Collector.t ->
  ?faults:Pm2_fault.Plan.t ->
  Pm2_sim.Engine.t ->
  Pm2_sim.Cost_model.t ->
  nodes:int ->
  t

val nodes : t -> int

val engine : t -> Pm2_sim.Engine.t

val cost_model : t -> Pm2_sim.Cost_model.t

(** [faulty t ~src ~dst] is true iff traffic from [src] to [dst] runs
    through the fault plan: the plan is live and [src <> dst]. Protocol
    layers use it to decide whether their hardened (framed, acknowledged,
    retransmitted) paths are active. *)
val faulty : t -> src:int -> dst:int -> bool

(** [send t ~src ~dst payload k] ships [payload] from node [src] to node
    [dst] and runs [k payload] at the modelled arrival time. Self-sends are
    allowed and modelled as a loop-back with latency 0 plus copy cost.
    @raise Invalid_argument on a bad node id. *)
val send : t -> src:int -> dst:int -> Bytes.t -> (Bytes.t -> unit) -> unit

(** [send_sized t ~src ~dst ~bytes k] is {!send} of a message whose
    contents never leave the process: only its modelled size [bytes]
    travels, through the same counters, events and delay, and [k ()]
    runs at the arrival time. Nothing is there to corrupt, so it has no
    faulty path.
    @raise Invalid_argument if a fault plan is live ({!faults}) and
    [src <> dst], or on a bad node id. *)
val send_sized : t -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit

(** [transfer_time t ~bytes] is the modelled one-way time for a message of
    [bytes] (used by protocols that account time without scheduling a
    delivery event, e.g. the synchronous-state negotiation). *)
val transfer_time : t -> bytes:int -> float

(** {1 Statistics} *)

val messages_sent : t -> int
val bytes_sent : t -> int

(** [link_stats t ~src ~dst] is [(messages, bytes)] for that direction. *)
val link_stats : t -> src:int -> dst:int -> int * int

val reset_stats : t -> unit

(** [record_virtual t ~src ~dst ~bytes] bumps the counters for traffic that
    is modelled (time-charged) but not routed through [send]. *)
val record_virtual : t -> src:int -> dst:int -> bytes:int -> unit

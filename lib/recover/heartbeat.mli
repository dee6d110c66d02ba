(** Phi-style heartbeat failure detector (virtual time, pure state).

    Surviving nodes beacon each other with HBEA frames
    ({!Pm2_net.Reliable.send_heartbeat}); the cluster feeds every beacon
    that survives the fault plan into {!heard} and polls {!verdict} on a
    monitor tick. Silence past [suspect_after] beacon intervals yields
    [Suspected]; past [dead_after] intervals, [Dead]. A suspected peer
    that proves alive doubles its personal threshold scale (capped at
    8x) — exponential backoff against flapping — so a dead peer is
    declared within [interval * dead_after * 8] of its last beacon. *)

type verdict = Alive | Suspected | Dead

type t

(** [create ~nodes ~interval ~now ()] — [interval] is the beacon period
    in virtual µs; [now] baselines every peer as just-heard.
    Defaults: [suspect_after] 3, [dead_after] 8.
    @raise Invalid_argument unless
    [1 <= suspect_after < dead_after], [nodes > 0], [interval > 0]. *)
val create :
  ?suspect_after:int -> ?dead_after:int -> nodes:int -> interval:float -> now:float ->
  unit -> t

(** A beacon from [node] arrived at [now]. Clears any standing
    suspicion, doubling the peer's backoff scale. *)
val heard : t -> node:int -> now:float -> unit

(** Re-baseline [node] as just-heard (observed restart), keeping its
    backoff scale. *)
val reset : t -> node:int -> now:float -> unit

val verdict : t -> node:int -> now:float -> verdict

(** Crash recovery for {!Cluster}: the checkpoint ticker, the heartbeat
    failure detector, crash and restart, failover and loss. A restored
    thread re-enters a run queue through [Cluster_state.t.wake]. *)

open Cluster_state

(** [arm t] schedules the plan's crashes and restarts, the heartbeat
    ticker and the checkpoint ticker; it arms nothing when the plan has
    no crash and checkpointing is off. Call once, before running. *)
val arm : t -> unit

(** [arm_checkpoint t] re-arms the checkpoint ticker if checkpointing is
    on and no tick is pending (a woken thread may need snapshots again). *)
val arm_checkpoint : t -> unit

(** See [Cluster.checkpoint_now]. *)
val checkpoint_now : t -> int

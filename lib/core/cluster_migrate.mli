(** Migration for {!Cluster}: the direct hop, host-mode migration and
    the group pipeline. Threads re-enter a run queue through
    [Cluster_state.t.wake]. *)

open Cluster_state

(** [start t node th ~dest] freezes [th], running on [node], and sends it
    to [dest]: as a group of one through the group pipeline when the
    scheme is iso and delta migration is on or a fault plan is live,
    otherwise by the direct hop. *)
val start : t -> Node.t -> Thread.t -> dest:int -> unit

(** [start_group t ~src ~dest members] runs the group pipeline on
    prepared members ([(thread, was_on_run_queue)], each off its run
    queue and [Migrating]) and returns the group id. *)
val start_group : t -> src:int -> dest:int -> (Thread.t * bool) list -> int

(** See [Cluster.host_migrate]. *)
val host_migrate : t -> Thread.t -> dest:int -> unit

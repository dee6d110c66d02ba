(** The typed control plane of a resident PM2 cluster.

    A session owns one {!Pm2_core.Cluster.t} and exposes everything the
    front ends do to it — submit guest programs, step or run the event
    engine, query thread placement / metrics / access heat, trigger
    migrations and group migrations, inject faults, force checkpoints,
    and subscribe to the live event stream — as total functions returning
    [('a, error) result]. The pm2sim batch commands are thin in-process
    clients of this module; the pm2simd daemon serves exactly this API
    over the [pm2-ctl/1] wire protocol ({!Protocol}). Nothing here is
    reachable only through the CLI.

    Determinism: a session adds observers, never schedule entries, so
    driving a cluster through a session produces byte-identical virtual
    outputs (guest prints, makespans, wire bytes) to driving the cluster
    directly. *)

module Cluster = Pm2_core.Cluster
module Thread = Pm2_core.Thread

(** The control plane's typed error channel, extending {!Pm2_core.Pm2.Error}
    (carried under [Runtime]) with the request-level failures a service
    front end needs. Every operation below reports failures here — none
    raises. *)
type error =
  | Bad_request of string  (** malformed or unsatisfiable request *)
  | Unknown_entry of string  (** no such program entry point *)
  | Unknown_thread of int  (** no such thread id *)
  | Bad_node of int  (** node id outside the cluster *)
  | Rejected of string  (** the runtime refused (e.g. ill-formed group) *)
  | Unsupported of string  (** needs a capability the session lacks *)
  | Shutting_down  (** the session was {!shutdown} *)
  | Runtime of Pm2_core.Pm2.Error.t  (** a typed runtime failure *)

val error_to_string : error -> string

(** What to run: a registered entry point of the session's program image,
    its integer argument (register [r1]) and the spawn node. *)
type submit_spec = { entry : string; arg : int; node : int }

type thread_info = {
  ti_tid : int;
  ti_node : int; (* current (or last, once exited) location *)
  ti_state : string; (* ready|running|blocked|migrating|exited|faulted|killed *)
  ti_pending_dest : int option; (* pending preemptive migration target *)
}

(** One coherent snapshot of everything the batch reports print. *)
type status = {
  st_time : float; (* current virtual time, µs *)
  st_live : int;
  st_threads : int; (* threads ever created *)
  st_migrations : int; (* completed single migrations *)
  st_groups : int; (* completed group migrations *)
  st_negotiations : int;
  st_aborted : int; (* migrations aborted and rolled back *)
  st_mean_latency : float option; (* mean one-way migration latency, µs *)
  st_faults_enabled : bool;
  st_faults_summary : string; (* plan summary; "" when disabled *)
  st_retransmits : int;
  st_duplicates : int;
  st_give_ups : int;
  st_checkpointing : bool;
  st_checkpoints : int;
  st_page_saves : int;
  st_dedup_pages : int;
  st_restored : int;
  st_stranded : int;
  st_lost : Pm2_core.Pm2.Error.t list; (* typed [Lost] records *)
}

type t

(** [create ?config ?program ()] boots a resident cluster. [config]
    defaults to {!Pm2_core.Cluster.default_config} with 2 nodes; [program]
    defaults to the paper's combined image
    ({!Pm2_programs.Figures.image}). A metrics registry is attached for
    the session's whole life (observability never changes virtual
    outputs), so {!metrics} always covers everything since boot. *)
val create : ?config:Cluster.config -> ?program:Pm2_mvm.Program.t -> unit -> t

(** The resident cluster — the escape hatch for extra sinks (Chrome
    traces, JSON-lines streams, flight-recorder dumps) and for tests.
    Everything a request/response front end needs is covered by the typed
    functions below. *)
val cluster : t -> Cluster.t

val nodes : t -> int
val entries : t -> string list
val now : t -> float
val live_threads : t -> int

(** Events waiting in the engine queue ([0] = quiescent). *)
val pending_events : t -> int

(** {1 Driving} *)

(** [submit t spec] spawns a thread; returns its id (the job id). *)
val submit : t -> submit_spec -> (int, error) result

(** [step t ~max_events] runs at most [max_events] engine events and
    returns how many actually ran (0 when quiescent or shut down). When
    the queue drains, buffered guest output is committed — a partial
    slice never withholds lines a full {!run} would have printed. *)
val step : t -> max_events:int -> int

(** [run_until t ~time] drives the engine to virtual [time] (clamped to
    be ≥ {!now}); later events stay queued. Returns the final time. *)
val run_until : t -> time:float -> (float, error) result

(** [run t] drives the engine to quiescence. Returns the final time. *)
val run : t -> (float, error) result

(** {1 Queries} *)

val query_threads : t -> thread_info list

(** The session-lifetime metrics registry
    (counters/gauges/histograms per node; see {!Pm2_obs.Metrics}). *)
val metrics : t -> Pm2_obs.Metrics.t

(** Refresh the cluster's access-heat telemetry
    ({!Pm2_core.Cluster.refresh_heat}) and return the feed's gauges,
    sorted by name ([thread.<tid>.heat], [node.<n>.heat]). *)
val query_heat : t -> (string * float) list

val status : t -> status

(** The legacy trace lines (guest [pm2_printf] output), as the batch CLI
    prints them. *)
val output : t -> timed:bool -> string list

(** {1 Control} *)

(** [migrate t ~tid ~dest] marks thread [tid] for preemptive migration;
    it happens at the thread's next quantum boundary (drive with {!step}
    or {!run}). *)
val migrate : t -> tid:int -> dest:int -> (unit, error) result

(** [migrate_group t ~tids ~dest] — one handshake, one packet train for
    the whole group ({!Pm2_core.Cluster.migrate_group}). Returns the
    group id. *)
val migrate_group : t -> tids:int list -> dest:int -> (int, error) result

(** [inject_faults t spec] swaps the live fault plan's spec — loss, dup,
    corrupt, reorder, delay, partitions and interface kills take effect
    for every message routed from now on. Requires the cluster to have
    been created with an enabled plan ([Unsupported] otherwise — the
    hardened protocols are selected at creation; pm2simd always arms
    one). Crash items are refused ([Unsupported]): full-state crashes
    are scheduled by the recovery supervisor at creation. *)
val inject_faults : t -> Pm2_fault.Plan.spec -> (unit, error) result

(** [balance t ~policy ?period ()] attaches a load balancer (period in
    virtual µs, default 400). At most one per session. *)
val balance :
  t -> policy:Pm2_loadbal.Balancer.policy -> ?period:float -> unit -> (unit, error) result

val balancer_stats : t -> Pm2_loadbal.Balancer.stats option

(** [checkpoint t] sweeps every eligible thread into the content-addressed
    image store now ({!Pm2_core.Cluster.checkpoint_now}); returns the
    number of snapshots taken. *)
val checkpoint : t -> (int, error) result

(** {1 Subscriptions} *)

(** [subscribe t f] attaches [f] to the cluster's event collector; it
    receives every subsequent event (stamped with virtual time and node)
    until {!unsubscribe}. Returns the subscription id. Fan-out to any
    number of subscribers. *)
val subscribe : t -> (time:float -> node:int -> Pm2_obs.Event.t -> unit) -> int

val unsubscribe : t -> int -> unit

(** {1 Lifecycle} *)

(** Detaches every subscription and refuses further mutating requests
    ([Shutting_down]). Queries keep answering — a front end can still
    render a final report. Idempotent. *)
val shutdown : t -> unit

val closed : t -> bool

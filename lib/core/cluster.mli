(** The simulated PM2 configuration: nodes + network + scheduler + syscall
    layer. This is where the MiniVM meets the runtime: threads execute in
    quanta on their node, and every [Sys_*] instruction lands in the
    dispatcher below, which implements the PM2 primitives ([pm2_isomalloc],
    [pm2_migrate], [pm2_printf], ...).

    Preemptive migration: any agent (another thread via the host API, the
    load balancer, a test) may set a pending migration on a thread; it is
    honoured at the next instruction-quantum boundary, with no cooperation
    from the thread — "threads are unaware of their being migrated" (§2). *)

type scheme =
  | Iso (* iso-address migration — the paper's contribution *)
  | Relocating (* legacy address-relocating scheme (§2) — baseline *)

type config = {
  nodes : int;
  slot_size : int;
  distribution : Distribution.t;
  cache_capacity : int; (* slot-cache entries per node; 0 disables *)
  scheme : scheme;
  packing : Migration.packing; (* used by the [Iso] scheme *)
  quantum : int; (* instructions per scheduling quantum *)
  fit : Iso_heap.fit; (* block placement strategy (paper: first-fit) *)
  prebuy : int; (* extra slots bought per negotiation (paper 4.4 remark) *)
  cost : Pm2_sim.Cost_model.t;
  seed : int;
  faults : Pm2_fault.Plan.t; (* fault plan; [Plan.none] = pristine network *)
  sinks : Pm2_obs.Sink.t list; (* extra event sinks attached at creation *)
  delta_cache_bytes : int;
      (* byte budget of each node's residual image cache ({!Delta_cache});
         positive enables delta migration (v3 codec, iso scheme only),
         0 disables it entirely and reproduces the plain v2 pipeline *)
  tracing : bool;
      (* causal migration tracing: every migration opens a span tree
         (negotiate/probe/pack/train/unpack/commit/rollback, plus
         delta_refetch on the v3 fallback) emitted as [Span_end] events,
         with the trace context propagated to the destination through the
         codec frame, the group probe and the train fragments. Off by
         default; untraced runs keep the historic wire bytes exactly *)
  checkpoint_interval : float;
      (* virtual-time period (µs) of the checkpoint ticker: every interval
         each dirty thread is snapshotted (non-destructive v3 pack) into
         the content-addressed {!Image_store}, and its buffered guest
         output is committed. 0 (the default) disables checkpointing
         entirely — output is emitted eagerly and crashes lose threads *)
  net_max_attempts : int;
      (* retransmission budget of the {!Pm2_net.Reliable} layer before a
         message is declared undeliverable (default 12) *)
  engine_kind : Pm2_mvm.Engine.kind;
      (* MVM execution engine: [Blocks] (basic-block closure compilation
         — the default) or [Step] (the per-instruction reference oracle
         the parity tests compare against). Both produce byte-identical
         virtual-time outputs; only host ns/instruction differs. See
         DESIGN §15 *)
}

val default_config : nodes:int -> config
(** 64 KB slots, round-robin distribution (the paper's experimental setup),
    iso scheme with blocks-only packing, slot cache of 16, quantum 200,
    first-fit local heap, no faults, no extra sinks, delta migration off.
    Prefer building configurations through {!Pm2.Config.make}. *)

type migration_record = {
  tid : int;
  src : int;
  dst : int;
  started : float; (* virtual time at freeze *)
  resumed : float; (* virtual time at which the thread is runnable again *)
  bytes : int; (* wire size *)
}

(** One completed group migration (see {!migrate_group}). *)
type group_record = {
  gid : int;
  g_src : int;
  g_dst : int;
  g_members : int list; (* member tids in wire order *)
  g_started : float;
  g_resumed : float; (* virtual time at which every member is runnable *)
  g_bytes : int; (* v2/v3 train payload size *)
  g_data_pages : int; (* pages shipped verbatim *)
  g_zero_pages : int; (* pages elided by the manifest *)
  g_cached_pages : int; (* pages shipped as content hashes only (v3) *)
}

type t

(** [create config program] boots [config.nodes] container processes, each
    with the SPMD [program] image loaded at the standard addresses. *)
val create : config -> Pm2_mvm.Program.t -> t

val config : t -> config
val engine : t -> Pm2_sim.Engine.t
val network : t -> Pm2_net.Network.t
val trace : t -> Pm2_sim.Trace.t

(** The cluster's event collector. Always enabled with the legacy trace as
    its first sink (pm2_printf flows through it); attach further sinks
    ({!Pm2_obs.Ring.sink}, {!Pm2_obs.Metrics.sink}, {!Pm2_obs.Chrome}) to
    observe slot, heap, migration, negotiation and network events. *)
val obs : t -> Pm2_obs.Collector.t
val geometry : t -> Slot.t
val negotiation : t -> Negotiation.t
val program : t -> Pm2_mvm.Program.t

val node_count : t -> int

(** Per-node accessors (tests and benches). *)
val node_space : t -> int -> Pm2_vmem.Address_space.t

val node_heap : t -> int -> Pm2_heap.Malloc.t
val node_mgr : t -> int -> Slot_manager.t
val node_load : t -> int -> int

(** {1 Threads} *)

(** [spawn t ~node ~entry ?arg ()] creates a thread on [node] starting at
    entry point [entry] (a name registered with {!Pm2_mvm.Asm.proc}) with
    [arg] in register [r1], gives it a stack slot, and queues it.
    @raise Failure if the iso-address area cannot provide a stack slot.
    @raise Not_found on an unknown entry name. *)
val spawn : t -> node:int -> entry:string -> ?arg:int -> unit -> Thread.t

val thread : t -> int -> Thread.t
(** Lookup by id. @raise Not_found. *)

val threads : t -> Thread.t list
(** Every thread created so far, exited ones included, in id order. *)

val live_threads : t -> int
(** Threads not yet exited. *)

(** [node_threads t i] is the threads placed on node [i] that have not
    exited (queued, blocked or migrating out), in id order. The sequence
    is lazy over a per-node index, so walking a prefix of it costs that
    prefix, not the size of the thread table. *)
val node_threads : t -> int -> Thread.t Seq.t

(** [movable_threads t i] is the threads on node [i] a balancer may pick,
    in id order: those [Ready] or [Running] with no migration pending.
    [Running] counts as movable, because no thread is running while a
    balancer round runs; so the scheduler's [Ready]/[Running] flips leave
    the index alone. The sequence is lazy over a second per-node index,
    kept next to {!node_threads}': a thread already picked (its migration
    pending), blocked or migrating is not in it, so a round walks only
    candidates. The index stays exact because the cluster writes a
    thread's [state] and [pending_migration] only through its own two
    setters, which re-file the thread whenever its membership changes
    (the scheduler's flips between [Ready] and [Running] are plain
    stores, since they cannot change it); nothing outside the cluster
    may write those fields. {!check_invariants} compares the index with
    a scan. *)
val movable_threads : t -> int -> Thread.t Seq.t

(** [request_migration t th ~dest] marks [th] for preemptive migration to
    [dest]; it happens at [th]'s next quantum boundary. No-op if the
    thread already exited. *)
val request_migration : t -> Thread.t -> dest:int -> unit

(** [rpc t ~src ~dest ~pc ~arg] creates a thread on [dest] by remote
    procedure call from [src] (PM2's LRPC): the request travels the
    network and the thread starts on arrival. Returns the thread
    (state [Blocked] until the request lands). *)
val rpc : t -> src:int -> dest:int -> pc:int -> arg:int -> Thread.t

(** [migrate_group t threads ~dest] moves [threads] — Ready threads all
    living on one source node — to [dest] through a single pipeline: one
    probe/verdict handshake covering every member's slot ranges, one
    {!Migration.pack_group} wire image (v2 zero-page elision; v3 delta
    when [delta_cache_bytes > 0]), one reliable packet train. Members
    leave their run queue immediately and are re-enqueued on the
    destination when the train lands. Under v3, [Cached] pages the
    destination cannot restore from its residual image are re-fetched
    through one RDLT/RFUL exchange before the group commits. Any failure
    at any stage (rejected verdict, undeliverable message, unpack
    collision, failed fallback) rolls the {e whole} group back onto the
    source atomically; there is never a partially migrated group, and
    each member resumed there counts in {!aborted_migrations} and is
    offered to the {!set_migration_abort_handler} hook. The same pipeline
    carries a lone iso thread as a group of one whenever delta migration
    is on or a fault plan is live. Returns the group id, or
    [Error reason] if the group is not well-formed (empty, mixed nodes,
    non-Ready member, duplicate, bad destination, non-iso scheme — in
    which case nothing was changed). Progress requires {!run}. *)
val migrate_group : t -> Thread.t list -> dest:int -> (int, string) result

val group_migrations : t -> group_record list
(** Completed group migrations, oldest first. *)

val aborted_groups : t -> int
(** Group-pipeline runs aborted and rolled back atomically, or abandoned
    because their source crashed mid-flight. A lone thread migrated
    through the pipeline counts as a group of one. *)

(** [create_barrier t ~participants] registers a reusable cyclic barrier
    for [participants] guest threads (released by one modelled broadcast
    hop once the last participant arrives at [Sys_barrier]). Returns the
    guest-visible handle. *)
val create_barrier : t -> participants:int -> int

(** {1 Running} *)

(** [run ?until t] drives the event engine until quiescence (all threads
    exited or blocked forever) or until the given virtual time. Returns
    the final virtual time. *)
val run : ?until:float -> t -> float

(** [step_events t ~max_events] commits at most [max_events] events (the
    service tier's bounded slice). Any slicing commits the same events
    in the same order as one {!run}. Returns 0 when the engine is
    drained. *)
val step_events : t -> max_events:int -> int

(** {1 Host-mode allocation (tests and benches)}

    These run the allocator machinery directly, without MiniVM programs:
    negotiations are charged to the node synchronously instead of blocking
    a guest thread. *)

(** An {!Iso_heap.env} for [node] with a synchronous negotiate. *)
val host_env : t -> int -> Iso_heap.env

(** [host_thread t ~node] is a thread with a stack slot but no queued
    execution — a handle for direct [Iso_heap] calls. *)
val host_thread : t -> node:int -> Thread.t

(** [host_migrate t th ~dest] migrates a host thread synchronously (state
    only; time is charged to both nodes). Works for host threads outside
    the scheduler. *)
val host_migrate : t -> Thread.t -> dest:int -> unit

(** [drain_charges t node] reads and resets the node's virtual-CPU
    accumulator — the measurement primitive of the Fig. 11 benches. *)
val drain_charges : t -> int -> float

(** {1 Statistics} *)

val migrations : t -> migration_record list
(** Completed migrations, oldest first. *)

(** {1 Delta migration}

    When [delta_cache_bytes > 0] (iso scheme), every migration rides the
    group pipeline with the v3 codec: the source consults its believed
    destination knowledge and ships unchanged pages as content hashes
    only; the destination reconstructs them from its residual image cache
    and falls back to an RDLT/RFUL full-page resend for anything it
    cannot restore. See {!Delta_cache}. *)

val delta_enabled : t -> bool

(** [delta_cache t i] — node [i]'s residual image cache (tests, benches
    and fault injection via {!Delta_cache.corrupt_page}). *)
val delta_cache : t -> int -> Delta_cache.t

val delta_fallbacks : t -> int
(** Total [Cached] pages that failed restoration and were re-fetched from
    the source via RDLT/RFUL. *)

(** [delta_affinity t th ~dest] — [true] iff migrating [th] to [dest]
    could ship hashes instead of pages (the cache holds knowledge for
    that pair); the {!Pm2_loadbal.Balancer.Cache_affinity} policy uses
    this as a placement hint. *)
val delta_affinity : t -> Thread.t -> dest:int -> bool

(** {1 Faults and failure handling}

    Active only when the configured {!Pm2_fault.Plan.t} is live. Under a
    live plan every iso migration runs the group pipeline — a lone thread
    as a group of one — so the probe/verdict handshake precedes any
    unmapping and the checksummed transfer is carried by
    {!Pm2_net.Reliable}; any rejection or undeliverable phase rolls the
    thread back onto its source node, resumes it locally, counts it in
    {!aborted_migrations} and offers it to the abort hook. *)

val faults : t -> Pm2_fault.Plan.t

(** The retransmitting delivery layer carrying migration, negotiation and
    LRPC traffic under a live plan. *)
val reliable : t -> Pm2_net.Reliable.t

(** {1 Crash recovery}

    A [crash=N\@T] entry in the fault plan destroys node [N]'s in-memory
    state at virtual time [T]: every thread living there is stranded, the
    node is rebuilt around a fresh address space (the slot-ownership
    ledger, being global knowledge, survives), peers' residual-image
    caches are invalidated and in-flight trains to the dead interface are
    dropped. Surviving nodes detect the silence through the heartbeat
    protocol ([Node_suspected], then [Node_dead]) and the supervisor
    restores each stranded thread from its latest checkpoint onto the
    least-loaded survivor through the probe/commit pipeline — or the node
    restarts first ([crash=N\@T1-T2]) and cold-starts them in place.
    Threads with no checkpoint (or no possible host) are declared lost:
    typed in {!lost_threads}, joiners woken with -1.

    With [checkpoint_interval > 0] guest output is buffered and committed
    only at snapshot boundaries (checkpoint, exit, end of run), so a
    crash-and-restore run prints exactly what the fault-free run prints —
    uncommitted lines die with the node and are reproduced by the
    restored replay. *)

(** A thread abandoned by crash recovery. *)
type lost_record = {
  l_tid : int;
  l_node : int; (* the node whose crash doomed it *)
  l_reason : string;
}

val checkpointing : t -> bool
(** [config.checkpoint_interval > 0.] *)

val image_store : t -> Pm2_recover.Image_store.t
(** The cluster-wide content-addressed checkpoint store. *)

val checkpoints : t -> int
(** Snapshots taken. *)

val checkpoint_now : t -> int
(** On-demand checkpoint sweep (the service tier's [checkpoint] request):
    snapshot into the image store every live, non-migrating thread that
    the periodic ticker would snapshot at its next tick — every live
    thread when checkpointing is off, since there is no dirty tracking to
    consult. Returns the number of snapshots taken. Works with any
    [checkpoint_interval], including 0. *)

val restored_threads : t -> int
(** Threads brought back from a checkpoint (failover or cold start). *)

val lost_threads : t -> lost_record list
(** Threads crash recovery could not save, oldest first. *)

val stranded_threads : t -> int
(** Threads currently awaiting failover or cold start. *)

val node_generation : t -> int -> int
(** Incarnation number of node [i]: 0 at boot, +1 per crash. Heartbeats
    carry it; restore commits are tagged with the generation that
    stranded the thread. *)

(** [node_crashed t i] — true while node [i] is between a [crash] instant
    and its restart (its current incarnation holds no thread state). *)
val node_crashed : t -> int -> bool

(** {1 Causal tracing, flight recorder, stats feed} *)

val tracer : t -> Pm2_obs.Span.t
(** The cluster's span tracer — disabled (every span is
    {!Pm2_obs.Span.none}) unless [config.tracing]. *)

val recorder : t -> Pm2_obs.Recorder.t
(** The always-on flight recorder: bounded per-node rings of recent
    events, trigger-marked on every migration abort, rollback and train
    give-up. Use {!Pm2_obs.Recorder.set_on_trigger} to dump
    automatically. *)

val feed : t -> Pm2_obs.Feed.t
(** Live stats feed. {!refresh_heat} publishes
    [thread.<tid>.heat] and [node.<n>.heat] gauges here. *)

val refresh_heat : t -> unit
(** Recompute per-thread access heat (pages stored to during the closing
    observation window, {!Pm2_vmem.Address_space.dirty_in_epoch} over
    each thread's slot ranges), publish it into {!feed}, and open the
    next window on every node. Call once per balancing period. *)

val aborted_migrations : t -> int
(** Threads whose migration aborted (destination rejection, unreachable
    peer, checksum failure) and that resumed on their source node: each
    member a group abort hands back counts once, for a group of one as
    for a larger group, with delta migration on or off. A migration
    whose source crashed mid-flight never resumes there: crash recovery
    owns its threads, and none counts here. *)

(** [node_alive t i] — false while node [i]'s network interface is down
    under the fault plan (local compute continues; packets to or from the
    node are dropped). *)
val node_alive : t -> int -> bool

(** [set_migration_abort_handler t f] installs a hook called once for
    every thread an aborted migration resumed on its source (each member
    of an aborted group, for any group size and delta setting), with the
    thread and the failed destination — the load balancer uses it to
    retry on the next-best node. *)
val set_migration_abort_handler : t -> (Thread.t -> failed:int -> unit) -> unit

(** Cross-node invariant sweep: bitmap disjointness, per-node slot-manager
    coherence, the per-node thread index against the thread table, the
    per-node movable index against a scan of that node's threads, and
    full [Iso_heap] checks on every live thread.
    @raise Failure on violation. *)
val check_invariants : t -> unit

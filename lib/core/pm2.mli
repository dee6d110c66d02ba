(** High-level PM2 facade.

    The full machinery lives in the sibling modules ({!Cluster},
    {!Iso_heap}, {!Migration}, {!Negotiation}, ...); this module offers the
    few-line entry points used by the examples and benches:

    {[
      let program = Pm2.build (fun b -> Pm2_mvm.Asm.proc b "main" my_main) in
      let lines = Pm2.run_to_completion ~nodes:2 program ~entry:"main" in
      List.iter print_endline lines
    ]} *)

(** Every typed failure the runtime reports, in one place. The subsystem
    modules return their own [('a, error) result]s ({!Slot_manager.error},
    {!Pm2_heap.Malloc.error}, {!Negotiation.error}); this aggregate lets
    callers carry any of them through one channel, aligned with the legacy
    {!Relocation.Error} payload. *)
module Error : sig
  type t =
    | Slots of Slot_manager.error
    | Heap of Pm2_heap.Malloc.error
    | Negotiation of Negotiation.error
    | Relocation of { tid : int; slot : int; stage : Relocation.stage; reason : string }
    | Lost of { tid : int; node : int; reason : string }
        (** the thread's node crashed and recovery could not restore it
            (no checkpoint, or no surviving host) *)

  val to_string : t -> string

  (** Typed view of the raising escapes kept for compatibility
      ({!Relocation.Error}, {!Pm2_heap.Malloc.Out_of_memory}); [None] for
      exceptions the runtime does not own. *)
  val of_exn : exn -> t option
end

(** Builder for {!Cluster.config} — the one place to set cluster,
    allocator, fault and observability knobs. Every argument is optional
    and defaults to {!Cluster.default_config} (the paper's experimental
    setup); prefer this over direct record construction, which forces an
    update on every new field. Example:

    {[
      Pm2.Config.make ~nodes:4 ~fit:Iso_heap.Best_fit
        ~fault_plan:
          (Pm2_fault.Plan.create ~seed:7
             (Result.get_ok (Pm2_fault.Plan.spec_of_string "loss=0.1")))
        ~sinks:[ Pm2_obs.Metrics.sink metrics ] ()
    ]} *)
module Config : sig
  type t = Cluster.config

  val make :
    ?nodes:int ->
    ?slot_size:int ->
    ?distribution:Distribution.t ->
    ?cache_capacity:int ->
    ?scheme:Cluster.scheme ->
    ?packing:Migration.packing ->
    ?quantum:int ->
    ?fit:Iso_heap.fit ->
    ?prebuy:int ->
    ?cost:Pm2_sim.Cost_model.t ->
    ?seed:int ->
    ?fault_plan:Pm2_fault.Plan.t ->
    ?sinks:Pm2_obs.Sink.t list ->
    ?delta_cache_bytes:int ->
    ?tracing:bool ->
    ?checkpoint_interval:float ->
    ?net_max_attempts:int ->
    unit ->
    Cluster.config
end

(** The threads crash recovery abandoned, as typed {!Error.Lost} values
    (empty on a fault-free or fully recovered run). Graceful degradation:
    a crash with checkpointing off loses threads {e loudly} — typed here,
    joiners woken with -1 — and never hangs the run. *)
val lost_threads : Cluster.t -> Error.t list

(** [build f] assembles a program: [f] receives a fresh assembler. *)
val build : (Pm2_mvm.Asm.t -> unit) -> Pm2_mvm.Program.t

(** [launch ?config program ~spawns] boots a cluster and spawns one thread
    per [(node, entry, arg)] triple. The cluster is returned un-run, so
    callers can attach balancers or monitors before {!Cluster.run}. *)
val launch :
  ?config:Cluster.config ->
  Pm2_mvm.Program.t ->
  spawns:(int * string * int) list ->
  Cluster.t

(** [run_to_completion ?config ?until program ~entry ?arg ()] spawns a
    single thread of [entry] on node 0, runs the simulation, and returns
    the [pm2_printf] output lines (paper-style ["[node0] ..."]). *)
val run_to_completion :
  ?config:Cluster.config ->
  ?until:float ->
  Pm2_mvm.Program.t ->
  entry:string ->
  ?arg:int ->
  unit ->
  string list

(** Mean migration latency over all completed migrations; [None] if none. *)
val mean_migration_latency : Cluster.t -> float option

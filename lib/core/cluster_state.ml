(* The cluster's state, shared by the scheduler ({!Cluster}), migration
   ({!Cluster_migrate}) and crash recovery ({!Cluster_recover}): the
   record types, the thread table and its index, output commit and the
   helpers more than one of them needs. The one way back into the
   scheduler is the [wake] field. *)

module As = Pm2_vmem.Address_space
module Cm = Pm2_sim.Cost_model
module Engine = Pm2_sim.Engine
module Trace = Pm2_sim.Trace
module Network = Pm2_net.Network
module Reliable = Pm2_net.Reliable
module Fault = Pm2_fault
module Interp = Pm2_mvm.Interp
module Program = Pm2_mvm.Program
module Mvm_engine = Pm2_mvm.Engine
module Vec = Pm2_util.Vec
module Obs = Pm2_obs
module Image_store = Pm2_recover.Image_store
module Heartbeat = Pm2_recover.Heartbeat
module Bitset = Pm2_util.Bitset

type scheme =
  | Iso
  | Relocating

type config = {
  nodes : int;
  slot_size : int;
  distribution : Distribution.t;
  cache_capacity : int;
  scheme : scheme;
  packing : Migration.packing;
  quantum : int;
  fit : Iso_heap.fit;
  prebuy : int;
  cost : Cm.t;
  seed : int;
  faults : Fault.Plan.t;
  sinks : Obs.Sink.t list;
  delta_cache_bytes : int;
  tracing : bool;
  checkpoint_interval : float;
  net_max_attempts : int;
  engine_kind : Pm2_mvm.Engine.kind;
}
(* The fields are documented in cluster.mli. *)

let default_config ~nodes =
  {
    nodes;
    slot_size = 64 * 1024;
    distribution = Distribution.Round_robin;
    cache_capacity = 16;
    scheme = Iso;
    packing = Migration.Blocks_only;
    quantum = 200;
    fit = Iso_heap.First_fit;
    prebuy = 0;
    cost = Cm.default;
    seed = 42;
    faults = Fault.Plan.none;
    sinks = [];
    delta_cache_bytes = 0;
    tracing = false;
    checkpoint_interval = 0.;
    net_max_attempts = 12;
    engine_kind = Pm2_mvm.Engine.Blocks;
  }

type migration_record = {
  tid : int;
  src : int;
  dst : int;
  started : float;
  resumed : float;
  bytes : int;
}

type group_record = {
  gid : int;
  g_src : int;
  g_dst : int;
  g_members : int list;
  g_started : float;
  g_resumed : float;
  g_bytes : int;
  g_data_pages : int;
  g_zero_pages : int;
  g_cached_pages : int;
}

type sema = {
  home : int; (* Marcel semaphores are process-local: P/V only at home *)
  mutable count : int;
  sem_waiters : Thread.t Queue.t;
}

type barrier = {
  participants : int;
  mutable arrived : int;
  mutable parked : Thread.t list;
}

(* A thread whose node crashed under it: its memory died with incarnation
   [s_gen] of node [s_node] and only a checkpoint (if any) can bring it
   back. Membership in the stranded table is the at-most-once guard — the
   first of failover / cold-restart / loss declaration to claim the tid
   removes it, and every other path becomes a no-op. *)
type stranded = {
  s_node : int;
  s_gen : int;
}

type lost_record = {
  l_tid : int;
  l_node : int;
  l_reason : string;
}

type t = {
  config : config;
  geometry : Slot.t;
  engine : Engine.t;
  net : Network.t;
  rel : Reliable.t;
  trace : Trace.t;
  obs : Obs.Collector.t;
  program : Program.t;
  exec : Mvm_engine.t;
      (* the MVM execution engine, shared by every node: engines hold
         no per-thread state *)
  nodes : Node.t array;
  neg : Negotiation.t;
  threads : (int, Thread.t) Hashtbl.t;
  roster : Thread.t Vec.t;
      (* every thread ever registered, exited ones included; tids are
         handed out in increasing order, so this is id order *)
  mutable live : int; (* registered threads that have not exited *)
  residents : Bitset.t array;
      (* per node, the ids of its threads that have not exited: the crash
         path and the heat feed walk one node's threads, never the table *)
  movable : Bitset.t array;
      (* per node, the ids of the residents the balancer may pick: Ready
         or Running with no migration pending (see [is_movable]). Both
         are read in ascending id order, which fixes the balancer's
         victims and the crash path's victim list. A node's bitset is
         replaced by one twice as long when an id outgrows it *)
  waiters : (int, Thread.t list) Hashtbl.t; (* Sys_join: tid -> parked threads *)
  semaphores : (int, sema) Hashtbl.t; (* Marcel-style node-local semaphores *)
  mutable next_sem : int;
  barriers : (int, barrier) Hashtbl.t;
  mutable next_barrier : int;
  mutable next_tid : int;
  migrations : migration_record Vec.t;
  mutable pending_block : float option;
      (* set by a blocking negotiation inside a syscall; consumed by the
         dispatcher, which parks the thread until that absolute time *)
  mutable aborted_migrations : int;
  mutable on_migration_abort : (Thread.t -> failed:int -> unit) option;
      (* load balancer hook: retry an aborted migration elsewhere *)
  mutable next_gid : int;
  group_migrations : group_record Vec.t;
  mutable aborted_groups : int;
  delta : Delta_cache.t array; (* one residual image cache per node *)
  mutable delta_fallbacks : int; (* Cached pages re-fetched via RDLT/RFUL *)
  tracer : Obs.Span.t; (* causal-span tracer; a no-op unless config.tracing *)
  recorder : Obs.Recorder.t; (* always-on flight recorder (bounded rings) *)
  feed : Obs.Feed.t; (* live stats feed: access heat for the balancer *)
  (* -- crash recovery -- *)
  store : Image_store.t; (* durable content-addressed checkpoint store *)
  node_gen : int array; (* per-node incarnation number (bumped per crash) *)
  stranded : (int, stranded) Hashtbl.t; (* tid -> where it was stranded *)
  ckpt_dirty : (int, unit) Hashtbl.t; (* tids that ran since last snapshot *)
  outbuf : (int, (float * int * string) list) Hashtbl.t;
      (* output commit: per-tid buffered pm2_printf lines (newest first),
         flushed at that thread's checkpoint/exit and discarded on crash *)
  mutable hb : Heartbeat.t option; (* armed iff the plan schedules crashes *)
  hb_suspected : bool array; (* Node_suspected emitted for this incarnation *)
  hb_dead : bool array; (* Node_dead emitted for this incarnation *)
  mutable hb_scheduled : bool;
  mutable ckpt_scheduled : bool;
  mutable checkpoint_count : int;
  mutable restored_count : int;
  mutable lost : lost_record list; (* newest first *)
  wake : t -> Thread.t -> unit;
      (* the scheduler's [enqueue]: migration and recovery hand a thread
         back to a run queue only through this *)
  tick : t -> Node.t -> unit;
      (* the scheduler's [tick], closed over each node once, at boot, as
         that node's [Node.tick] *)
}

(* A node booted empty around a fresh address space holding the
   program's data, and a node's empty residual image cache: at creation,
   and again when a crash rebuilds the node. *)
let boot_node obs (config : config) ~geometry program ~id ~bitmap =
  let node =
    Node.create ~obs ~id ~cost:config.cost ~geometry ~bitmap
      ~cache_capacity:config.cache_capacity ~seed:config.seed ()
  in
  Program.load_data program node.Node.space;
  node

let empty_delta_cache obs (config : config) node =
  Delta_cache.create ~budget:config.delta_cache_bytes
    ~on_evict:(fun ~tid ~bytes ->
      Obs.Collector.emit obs ~node (Obs.Event.Delta_evict { tid; bytes }))
    ()

(* Run [down] when outage [k] of the fault plan begins and [up] when it
   ends, if it names a node of the cluster. *)
let on_outage engine ~nodes (k : Fault.Plan.kill) ~down ~up =
  if k.victim >= 0 && k.victim < nodes then begin
    Engine.schedule engine ~at:k.at down;
    Option.iter (fun r -> Engine.schedule engine ~at:r up) k.restart
  end

(* A per-node thread index: one bitset of thread ids per node. Filing
   an id the node's bitset already covers is a store into an existing
   word and allocates nothing; an id past its end replaces it with a
   copy twice as long (tids are handed out in increasing order, so this
   happens a logarithmic number of times). *)
let index_create nodes = Array.init nodes (fun _ -> Bitset.create 64)

let index_add index n id =
  let s = index.(n) in
  let s =
    if id < Bitset.length s then s
    else begin
      let s = Bitset.extend s (max (2 * Bitset.length s) (id + 1)) in
      index.(n) <- s;
      s
    end
  in
  Bitset.set s id

let index_remove index n id = if id < Bitset.length index.(n) then Bitset.clear index.(n) id

(* Give [node] its one tick closure. *)
let arm_tick t (node : Node.t) = node.Node.tick <- (fun () -> t.tick t node)

let create ~wake ~tick (config : config) program =
  if config.nodes <= 0 then invalid_arg "Cluster.create: nodes <= 0";
  if config.quantum <= 0 then invalid_arg "Cluster.create: quantum <= 0";
  let geometry = Slot.make ~slot_size:config.slot_size in
  let engine = Engine.create () in
  let trace = Trace.create () in
  (* The collector is always live inside a cluster: the legacy trace is one
     of its sinks, so pm2_printf output flows through the event pipeline. *)
  let obs = Obs.Collector.create ~now:(fun () -> Engine.now engine) () in
  Obs.Collector.attach obs (Trace.sink trace);
  List.iter (Obs.Collector.attach obs) config.sinks;
  (* The flight recorder is always on: it only buffers events into
     bounded per-node rings (no output of its own), so default runs stay
     byte-identical while every abort leaves a dumpable black box. *)
  let recorder = Obs.Recorder.create () in
  Obs.Collector.attach obs (Obs.Recorder.sink recorder);
  let tracer = Obs.Span.create ~enabled:config.tracing obs in
  let net = Network.create ~obs ~faults:config.faults engine config.cost ~nodes:config.nodes in
  let bitmaps =
    Distribution.populate config.distribution ~geometry ~nodes:config.nodes
  in
  let nodes =
    Array.init config.nodes (fun id ->
        boot_node obs config ~geometry program ~id ~bitmap:bitmaps.(id))
  in
  (* Under a live plan, mark every scheduled interface death/rebirth in
     the event stream so traces and metrics show the failure timeline. *)
  if Fault.Plan.enabled config.faults then
    List.iter
      (fun (k : Fault.Plan.kill) ->
        let node = k.victim in
        on_outage engine ~nodes:config.nodes k
          ~down:(fun () -> Obs.Collector.emit obs ~node (Obs.Event.Node_kill { node }))
          ~up:(fun () -> Obs.Collector.emit obs ~node (Obs.Event.Node_restart { node })))
      (Fault.Plan.spec config.faults).kills;
  let rel = Reliable.create ~obs ~max_attempts:config.net_max_attempts net in
  Reliable.set_tracer rel tracer;
  let t = {
    config;
    geometry;
    engine;
    net;
    rel;
    trace;
    obs;
    program;
    exec = Mvm_engine.create config.engine_kind program;
    nodes;
    neg =
      Negotiation.create ~obs ~faults:config.faults ~geometry
        ~mgrs:(Array.map (fun n -> n.Node.mgr) nodes)
        ~net ();
    threads = Hashtbl.create 64;
    roster = Vec.create ();
    live = 0;
    residents = index_create config.nodes;
    movable = index_create config.nodes;
    waiters = Hashtbl.create 16;
    semaphores = Hashtbl.create 16;
    next_sem = 1;
    barriers = Hashtbl.create 4;
    next_barrier = 1;
    next_tid = 0x20; (* so the first thread prints as "eeff0020", as in Fig. 8 *)
    migrations = Vec.create ();
    pending_block = None;
    aborted_migrations = 0;
    on_migration_abort = None;
    next_gid = 1;
    group_migrations = Vec.create ();
    aborted_groups = 0;
    delta = Array.init config.nodes (empty_delta_cache obs config);
    delta_fallbacks = 0;
    tracer;
    recorder;
    feed = Obs.Feed.create ();
    store = Image_store.create ();
    node_gen = Array.make config.nodes 0;
    stranded = Hashtbl.create 16;
    ckpt_dirty = Hashtbl.create 64;
    outbuf = Hashtbl.create 16;
    hb = None;
    hb_suspected = Array.make config.nodes false;
    hb_dead = Array.make config.nodes false;
    hb_scheduled = false;
    ckpt_scheduled = false;
    checkpoint_count = 0;
    restored_count = 0;
    lost = [];
    wake;
    tick;
  } in
  Array.iter (arm_tick t) nodes;
  t

let config t = t.config
let engine t = t.engine
let network t = t.net
let trace t = t.trace
let obs t = t.obs
let geometry t = t.geometry
let negotiation t = t.neg
let program t = t.program
let node_count t = Array.length t.nodes
let node_space t i = t.nodes.(i).Node.space
let node_heap t i = t.nodes.(i).Node.heap
let node_mgr t i = t.nodes.(i).Node.mgr
let node_load t i = Node.load t.nodes.(i)
let valid_node t i = i >= 0 && i < Array.length t.nodes

let thread t id = Hashtbl.find t.threads id

let threads t = Vec.to_list t.roster

let live_threads t = t.live

(* Node [n]'s threads in [index], in ascending id order, read live: each
   step finds the next id in the node's bitset as it is then, so a
   balancer that clears the bit of the thread just returned, which lies
   behind the walk, does not disturb it. *)
let index_walk t index n =
  let rec from i () =
    match Bitset.next_set_from index.(n) i with
    | -1 -> Seq.Nil
    | id -> Seq.Cons (thread t id, from (id + 1))
  in
  from 0

let node_threads t n = index_walk t t.residents n

let movable_threads t n = index_walk t t.movable n

(* A thread the balancer may pick: runnable, with no migration pending.
   [Running] counts, because no thread is running while a balancer round
   runs: the scheduler's Ready/Running flips then never touch the index. *)
let is_movable (th : Thread.t) =
  match th.Thread.pending_migration, th.Thread.state with
  | None, (Thread.Ready | Thread.Running) -> true
  | _ -> false

(* Bring [th]'s entry in its node's [movable] index in line with
   [is_movable], given whether it was movable before the write. *)
let reindex t (th : Thread.t) ~was =
  let now = is_movable th in
  if now <> was then begin
    if now then index_add t.movable th.Thread.node th.Thread.id
    else index_remove t.movable th.Thread.node th.Thread.id
  end

(* Every write of a thread's [state] or [pending_migration] goes through
   one of these two, so the [movable] index cannot go stale. *)
let set_state t (th : Thread.t) state =
  let was = is_movable th in
  th.Thread.state <- state;
  reindex t th ~was

let set_pending t (th : Thread.t) pending =
  let was = is_movable th in
  th.Thread.pending_migration <- pending;
  reindex t th ~was

(* ...except the scheduler's own flips at a quantum's start and end
   ([Ready] to [Running] and back, the latter only for a thread still
   running), which cannot change membership: plain stores, so the
   scheduler's hot path never looks at the index. *)
let start_quantum (th : Thread.t) = th.Thread.state <- Thread.Running
let end_quantum (th : Thread.t) = th.Thread.state <- Thread.Ready

(* The table, the roster and the per-node indexes stay in step through
   these three: a thread is registered once, changes node only through
   [move_thread] and leaves the indexes only through [retire]. *)
let register t (th : Thread.t) =
  Hashtbl.replace t.threads th.Thread.id th;
  Vec.push t.roster th;
  t.live <- t.live + 1;
  let n = th.Thread.node and id = th.Thread.id in
  index_add t.residents n id;
  if is_movable th then index_add t.movable n id

let move_thread t (th : Thread.t) ~dest =
  if not (Thread.is_exited th) then begin
    let id = th.Thread.id and src = th.Thread.node in
    index_remove t.residents src id;
    index_add t.residents dest id;
    if is_movable th then begin
      index_remove t.movable src id;
      index_add t.movable dest id
    end
  end;
  th.Thread.node <- dest

let retire t (th : Thread.t) reason =
  if not (Thread.is_exited th) then begin
    t.live <- t.live - 1;
    index_remove t.residents th.Thread.node th.Thread.id
  end;
  set_state t th (Thread.Exited reason)

let drain_charges t i = Node.take_charges t.nodes.(i)

let migrations t = Vec.to_list t.migrations

let group_migrations t = Vec.to_list t.group_migrations

let aborted_groups t = t.aborted_groups

let faults t = t.config.faults
let reliable t = t.rel
let tracer t = t.tracer
let recorder t = t.recorder
let feed t = t.feed
let aborted_migrations t = t.aborted_migrations
let set_migration_abort_handler t f = t.on_migration_abort <- Some f

let node_alive t i =
  Fault.Plan.node_alive t.config.faults ~node:i ~now:(Engine.now t.engine)

(* -- delta migration state -- *)

let delta_enabled t = t.config.delta_cache_bytes > 0 && t.config.scheme = Iso
let delta_cache t i = t.delta.(i)
let delta_fallbacks t = t.delta_fallbacks

(* -- crash recovery state -- *)

let checkpointing t = t.config.checkpoint_interval > 0.
let image_store t = t.store
let node_generation t i = t.node_gen.(i)
let checkpoints t = t.checkpoint_count
let restored_threads t = t.restored_count
let lost_threads t = List.rev t.lost
let stranded_threads t = Hashtbl.length t.stranded

let node_crashed t i =
  Fault.Plan.node_crashed t.config.faults ~node:i ~now:(Engine.now t.engine)

(* -- output commit --

   While checkpointing is on, guest output is not externalized at the
   print instant: a crash would otherwise leave output in the world that
   the restored thread (replaying from its last snapshot) prints again.
   Lines are buffered per thread and flushed — with their original
   timestamps — when the thread checkpoints (the snapshot now covers the
   post-print state, so replay cannot repeat them), when it exits, or
   when the run ends; a crash discards the victims' unflushed lines. *)

let buffer_print t ~tid ~node line =
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.outbuf tid) in
  Hashtbl.replace t.outbuf tid ((Engine.now t.engine, node, line) :: prev)

let flush_outbuf t tid =
  match Hashtbl.find_opt t.outbuf tid with
  | None -> ()
  | Some lines ->
    Hashtbl.remove t.outbuf tid;
    List.iter
      (fun (time, node, text) ->
        Obs.Collector.emit_at t.obs ~time ~node (Obs.Event.Thread_printf { tid; text }))
      (List.rev lines)

let flush_all_outbufs t =
  Hashtbl.fold (fun tid _ acc -> tid :: acc) t.outbuf []
  |> List.sort compare
  |> List.iter (flush_outbuf t)

(* -- a thread's end --

   Exit and loss both drop what outlives a thread's memory — its
   checkpoint, its dirty mark, every node's residual images and
   knowledge of it — and wake its joiners with its r0 (the exit value,
   PM2's LRPC result convention, or -1 for a lost thread). *)

let forget t tid =
  Image_store.drop t.store ~tid;
  Hashtbl.remove t.ckpt_dirty tid;
  Array.iter (fun dc -> Delta_cache.drop_thread dc ~tid) t.delta

let release_joiners t (th : Thread.t) =
  match Hashtbl.find_opt t.waiters th.Thread.id with
  | None -> ()
  | Some parked ->
    Hashtbl.remove t.waiters th.Thread.id;
    List.iter
      (fun (w : Thread.t) ->
        w.Thread.ctx.Interp.regs.(0) <- th.Thread.ctx.Interp.regs.(0);
        t.wake t w)
      parked

(* Cache-affinity hint for the balancer: does the thread's current node
   hold residual knowledge about [dest], i.e. would a hop there likely
   ship mostly hashes instead of pages? *)
let delta_affinity t (th : Thread.t) ~dest =
  delta_enabled t
  && Delta_cache.has_knowledge t.delta.(th.Thread.node) ~tid:th.Thread.id ~peer:dest

(* -- environments for the block layer --

   The host and syscall environments differ only in what a negotiation
   outcome does to the requester: [settle] gets the requesting node and
   the outcome, and returns the granted start slot, if any. *)

let env t node_id settle =
  let node = t.nodes.(node_id) in
  {
    Iso_heap.space = node.Node.space;
    mgr = node.Node.mgr;
    cost = t.config.cost;
    charge = Node.charge node;
    fit = t.config.fit;
    negotiate =
      (fun ~n ->
        settle node (Negotiation.execute ~prebuy:t.config.prebuy t.neg ~requester:node_id ~n));
    obs = t.obs;
  }

(* Host mode charges the protocol time to the node synchronously. *)
let host_env t node_id =
  env t node_id (fun node -> function
    | Ok g ->
      Node.charge node g.Negotiation.duration;
      Some g.Negotiation.start
    | Error (Negotiation.Out_of_slots { duration; _ } | Negotiation.Aborted { duration; _ }) ->
      Node.charge node duration;
      None)

(* In syscall context a negotiation parks the calling thread for the
   modelled protocol time (serialised through the system-wide lock). *)
let syscall_env t node_id =
  env t node_id (fun _ r ->
      let now = Engine.now t.engine in
      t.pending_block <-
        Some
          (match r with
           | Error (Negotiation.Aborted { duration; _ }) ->
             (* The requester died holding the critical section; its lock
                lease was already pushed out by [execute]. The guest (if it
                ever resumes) just blocks out the lease window. *)
             now +. duration
           | Ok { Negotiation.duration; _ } | Error (Negotiation.Out_of_slots { duration; _ }) ->
             Negotiation.acquire_slot_lock t.neg ~now ~duration);
      match r with Ok g -> Some g.Negotiation.start | Error _ -> None)

(* Guest-visible thread handles, printed with %p as in Fig. 8. *)
let handle_of_tid id = 0xeeff0000 + id

(* Unmap whatever of [ranges] a failed unpack left mapped in [space]. *)
let scrub space ranges =
  List.iter (fun (addr, size) -> ignore (As.scrub_range space ~addr ~size)) ranges

(* [f addr] for every non-zero page of [ranges], in address order. *)
let map_nonzero_pages space ranges f =
  let page = Pm2_vmem.Layout.page_size in
  List.concat_map
    (fun (addr, size) ->
      List.filter_map
        (fun i ->
          let a = addr + (i * page) in
          if As.page_is_zero space a then None else Some (f a))
        (List.init (size / page) Fun.id))
    ranges

(* Store [page] at [addr] only if it hashes to [hash]: a stale or
   corrupted copy is reported as missing rather than silently kept. *)
let restore_page space ~addr ~hash page =
  As.page_bytes_hash page = hash
  && begin
    As.store_bytes space addr page;
    true
  end

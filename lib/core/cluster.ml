module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout
module Cm = Pm2_sim.Cost_model
module Engine = Pm2_sim.Engine
module Trace = Pm2_sim.Trace
module Network = Pm2_net.Network
module Reliable = Pm2_net.Reliable
module Fault = Pm2_fault
module Interp = Pm2_mvm.Interp
module Isa = Pm2_mvm.Isa
module Program = Pm2_mvm.Program
module Mvm_engine = Pm2_mvm.Engine
module Malloc = Pm2_heap.Malloc
module Dlist = Pm2_util.Dlist
module Vec = Pm2_util.Vec
module Prng = Pm2_util.Prng
module Obs = Pm2_obs
module Image_store = Pm2_recover.Image_store
module Heartbeat = Pm2_recover.Heartbeat
module Tid_map = Map.Make (Int)

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
      (* byte budget of each node's residual image cache; 0 disables delta
         migration entirely (v2 group codec, no retention) *)
  tracing : bool;
      (* causal migration tracing: every migration opens a span tree
         (negotiate/probe/pack/train/unpack/commit/rollback) and the trace
         context rides the codec frame and train fragments. Off by default
         — untraced runs keep the historic wire bytes exactly. *)
  checkpoint_interval : float;
      (* virtual µs between checkpoint sweeps: every dirty thread is
         snapshotted (non-destructive v3 pack) into the content-addressed
         image store, and guest output is buffered and committed only at
         checkpoint boundaries (output commit). 0 disables checkpointing
         entirely — the default, byte-identical to pre-recovery runs. *)
  net_max_attempts : int;
      (* Reliable-layer give-up threshold (send attempts per packet) *)
  engine_kind : Pm2_mvm.Engine.kind;
      (* MVM execution engine: Blocks (basic-block closure compilation,
         the default) or Step (the per-instruction reference oracle the
         parity tests compare against). Both produce byte-identical
         virtual-time outputs; only host-side ns/instruction differs. *)
}

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
  residents : Thread.t Tid_map.t array;
      (* per node, its threads that have not exited, by id: the balancer
         and the crash path walk one node's threads, never the table *)
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
}

let create (config : config) program =
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
        Node.create ~obs ~id ~cost:config.cost ~geometry ~bitmap:bitmaps.(id)
          ~cache_capacity:config.cache_capacity ~seed:config.seed ())
  in
  Array.iter (fun n -> Program.load_data program n.Node.space) nodes;
  (* Under a live plan, mark every scheduled interface death/rebirth in
     the event stream so traces and metrics show the failure timeline. *)
  if Fault.Plan.enabled config.faults then
    List.iter
      (fun (k : Fault.Plan.kill) ->
        if k.victim >= 0 && k.victim < config.nodes then begin
          Engine.schedule engine ~at:k.at (fun () ->
              Obs.Collector.emit obs ~node:k.victim
                (Obs.Event.Node_kill { node = k.victim }));
          Option.iter
            (fun r ->
              Engine.schedule engine ~at:r (fun () ->
                  Obs.Collector.emit obs ~node:k.victim
                    (Obs.Event.Node_restart { node = k.victim })))
            k.restart
        end)
      (Fault.Plan.spec config.faults).kills;
  let rel = Reliable.create ~obs ~max_attempts:config.net_max_attempts net in
  Reliable.set_tracer rel tracer;
  {
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
    residents = Array.make config.nodes Tid_map.empty;
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
    delta =
      Array.init config.nodes (fun node ->
          Delta_cache.create ~budget:config.delta_cache_bytes
            ~on_evict:(fun ~tid ~bytes ->
              Obs.Collector.emit obs ~node (Obs.Event.Delta_evict { tid; bytes }))
            ());
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
  }

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

let thread t id = Hashtbl.find t.threads id

let threads t = Vec.to_list t.roster

let live_threads t = t.live

let node_threads t i = Seq.map snd (Tid_map.to_seq t.residents.(i))

(* The table, the roster and the per-node index stay in step through
   these three: a thread is registered once, changes node only through
   [move_thread] and leaves the index only through [retire]. *)
let register t (th : Thread.t) =
  Hashtbl.replace t.threads th.Thread.id th;
  Vec.push t.roster th;
  t.live <- t.live + 1;
  let n = th.Thread.node in
  t.residents.(n) <- Tid_map.add th.Thread.id th t.residents.(n)

let move_thread t (th : Thread.t) ~dest =
  if not (Thread.is_exited th) then begin
    let id = th.Thread.id and src = th.Thread.node in
    t.residents.(src) <- Tid_map.remove id t.residents.(src);
    t.residents.(dest) <- Tid_map.add id th t.residents.(dest)
  end;
  th.Thread.node <- dest

let retire t (th : Thread.t) reason =
  if not (Thread.is_exited th) then begin
    t.live <- t.live - 1;
    let n = th.Thread.node in
    t.residents.(n) <- Tid_map.remove th.Thread.id t.residents.(n)
  end;
  th.Thread.state <- Thread.Exited reason

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

(* Beacon period of the failure detector, virtual µs. Detection of a dead
   node takes [dead_after] (8) silent periods at scale 1. *)
let hb_interval = 100.

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

(* Cache-affinity hint for the balancer: does the thread's current node
   hold residual knowledge about [dest], i.e. would a hop there likely
   ship mostly hashes instead of pages? *)
let delta_affinity t (th : Thread.t) ~dest =
  delta_enabled t
  && Delta_cache.has_knowledge t.delta.(th.Thread.node) ~tid:th.Thread.id ~peer:dest

module Codec = Pm2_net.Codec

(* -- access-heat telemetry --

   "Heat" of a thread is the number of its pages stored to during the
   last observation window ({!As.dirty_in_epoch} over its slot ranges) —
   a write-bandwidth proxy derived from the dirty/hash bookkeeping the
   migration codecs already pay for. [refresh_heat] publishes per-thread
   and per-node heat into the stats feed and opens the next window; the
   access-imbalance balancer calls it once per period and reads the
   feed. *)

let thread_heat t (th : Thread.t) =
  if
    Thread.is_exited th
    || th.Thread.state = Thread.Migrating
    || Hashtbl.mem t.stranded th.Thread.id
  then 0
  else begin
    let space = t.nodes.(th.Thread.node).Node.space in
    List.fold_left
      (fun acc (addr, size) -> acc + As.dirty_in_epoch space ~addr ~size)
      0
      (Migration.slot_ranges space th)
  end

let refresh_heat t =
  Obs.Feed.clear t.feed;
  let node_heat = Array.make (Array.length t.nodes) 0 in
  Array.iteri
    (fun n residents ->
      Tid_map.iter
        (fun tid (th : Thread.t) ->
          if th.Thread.state <> Thread.Migrating && not (Hashtbl.mem t.stranded tid) then begin
            let h = thread_heat t th in
            Obs.Feed.set t.feed (Obs.Feed.thread_heat_key tid) (float_of_int h);
            node_heat.(n) <- node_heat.(n) + h
          end)
        residents)
    t.residents;
  Array.iteri
    (fun i h -> Obs.Feed.set t.feed (Obs.Feed.node_heat_key i) (float_of_int h))
    node_heat;
  Array.iter (fun n -> As.advance_epoch n.Node.space) t.nodes

(* -- environments for the block layer -- *)

let host_env t node_id =
  let node = t.nodes.(node_id) in
  {
    Iso_heap.space = node.Node.space;
    mgr = node.Node.mgr;
    cost = t.config.cost;
    charge = Node.charge node;
    fit = t.config.fit;
    negotiate =
      (fun ~n ->
         match Negotiation.execute ~prebuy:t.config.prebuy t.neg ~requester:node_id ~n with
         | Ok g ->
           Node.charge node g.Negotiation.duration;
           Some g.Negotiation.start
         | Error (Negotiation.Out_of_slots { duration; _ })
         | Error (Negotiation.Aborted { duration; _ }) ->
           Node.charge node duration;
           None);
    obs = t.obs;
  }

(* In syscall context a negotiation parks the calling thread for the
   modelled protocol time (serialised through the system-wide lock). *)
let syscall_env t node_id =
  let node = t.nodes.(node_id) in
  {
    Iso_heap.space = node.Node.space;
    mgr = node.Node.mgr;
    cost = t.config.cost;
    charge = Node.charge node;
    fit = t.config.fit;
    negotiate =
      (fun ~n ->
         match Negotiation.execute ~prebuy:t.config.prebuy t.neg ~requester:node_id ~n with
         | Error (Negotiation.Aborted { duration; _ }) ->
           (* The requester died holding the critical section; its lock
              lease was already pushed out by [execute]. The guest (if it
              ever resumes) just blocks out the lease window. *)
           t.pending_block <- Some (Engine.now t.engine +. duration);
           None
         | (Ok _ | Error (Negotiation.Out_of_slots _)) as r ->
           let duration =
             match r with
             | Ok g -> g.Negotiation.duration
             | Error (Negotiation.Out_of_slots { duration; _ }) -> duration
             | Error (Negotiation.Aborted _) -> assert false
           in
           let finish =
             Negotiation.acquire_slot_lock t.neg ~now:(Engine.now t.engine) ~duration
           in
           t.pending_block <- Some finish;
           (match r with Ok g -> Some g.Negotiation.start | Error _ -> None));
    obs = t.obs;
  }

let take_pending_block t =
  let b = t.pending_block in
  t.pending_block <- None;
  b

(* -- pm2_printf -- *)

let format_guest space fmt args =
  let buf = Buffer.create (String.length fmt + 16) in
  let args = ref args in
  let next_arg () =
    match !args with
    | [] -> 0
    | a :: tl ->
      args := tl;
      a
  in
  let n = String.length fmt in
  let rec loop i =
    if i < n then begin
      let c = fmt.[i] in
      if c = '%' && i + 1 < n then begin
        (match fmt.[i + 1] with
         | 'd' -> Buffer.add_string buf (string_of_int (next_arg ()))
         | 'p' | 'x' -> Buffer.add_string buf (Printf.sprintf "%x" (next_arg ()))
         | 's' -> Buffer.add_string buf (As.load_cstring space (next_arg ()))
         | '%' -> Buffer.add_char buf '%'
         | other ->
           Buffer.add_char buf '%';
           Buffer.add_char buf other);
        loop (i + 2)
      end
      else begin
        Buffer.add_char buf c;
        loop (i + 1)
      end
    end
  in
  loop 0;
  Buffer.contents buf

(* Guest-visible thread handles, printed with %p as in Fig. 8. *)
let handle_of_tid id = 0xeeff0000 + id

let tid_of_handle h = h - 0xeeff0000

(* Pack [th] out of [node]'s space under the configured scheme: the
   image, its pack cost and slot count, paired with what the heap and
   slot manager charged along the way (taken back out of [node]'s
   accumulator). Raises [Relocation.Error] when the relocating scheme
   cannot pack the thread. *)
let pack_on t node th =
  Node.isolate node (fun () ->
      match t.config.scheme with
      | Iso ->
        let p =
          Migration.pack ~obs:t.obs ~node:node.Node.id ~geometry:t.geometry
            ~cost:t.config.cost ~space:node.Node.space ~packing:t.config.packing th
        in
        (p.Migration.buffer, p.Migration.pack_cost, p.Migration.slots)
      | Relocating ->
        let p =
          Relocation.pack ~geometry:t.geometry ~cost:t.config.cost
            ~space:node.Node.space ~mgr:node.Node.mgr th
        in
        (p.Relocation.buffer, p.Relocation.pack_cost, 1))

(* Unpack [th]'s image into [node]'s space under the configured scheme:
   the unpack cost, paired with what the heap and slot manager charged
   along the way (taken back out of [node]'s accumulator). *)
let unpack_on t node th buffer =
  Node.isolate node (fun () ->
      match t.config.scheme with
      | Iso ->
        Migration.unpack ~obs:t.obs ~node:node.Node.id ~geometry:t.geometry
          ~cost:t.config.cost ~space:node.Node.space th buffer
      | Relocating ->
        Relocation.unpack ~geometry:t.geometry ~cost:t.config.cost
          ~space:node.Node.space ~mgr:node.Node.mgr th buffer)

(* Restore a [Cached] page of [tid] at [addr] into [space] from
   [cache]'s residual image, validating content: a stale or corrupted
   copy fails the hash check and is reported as missing rather than
   silently kept. *)
let restore_cached cache space ~tid ~addr ~hash =
  match Delta_cache.lookup_page cache ~tid ~addr with
  | Some page when As.page_bytes_hash page = hash ->
    As.store_bytes space addr page;
    true
  | _ -> false

(* ===== the scheduler / syscall knot ===== *)

type quantum_outcome =
  | Requeue (* budget exhausted or yielded: back to the run queue *)
  | Left (* migrated away, or parked until an absolute time *)
  | Dead

let rec enqueue t (th : Thread.t) =
  (* A stale wakeup (sleep timer, semaphore V, join release, in-flight
     delivery) may target a thread stranded by a node crash — its memory
     no longer exists; only the recovery supervisor may revive it — or one
     already declared lost. Drop such wakeups on the floor. *)
  if (not (Hashtbl.mem t.stranded th.Thread.id)) && not (Thread.is_exited th) then begin
    th.state <- Thread.Ready;
    let node = t.nodes.(th.node) in
    ignore (Dlist.push_back node.Node.queue th);
    schedule_tick t node ~delay:0.;
    arm_checkpoint t
  end

and schedule_tick t node ~delay =
  if not node.Node.tick_scheduled then begin
    node.Node.tick_scheduled <- true;
    Engine.schedule_after t.engine ~delay (fun () -> tick t node)
  end

and tick t node =
  node.Node.tick_scheduled <- false;
  if not (Dlist.is_empty node.Node.queue) then begin
    let th = Dlist.pop_front node.Node.queue in
    th.Thread.state <- Thread.Running;
    if checkpointing t then Hashtbl.replace t.ckpt_dirty th.Thread.id ();
    Node.charge node t.config.cost.Cm.context_switch;
    let outcome = run_quantum t node th in
    (match outcome with
     | Requeue ->
       th.Thread.state <- Thread.Ready;
       ignore (Dlist.push_back node.Node.queue th)
     | Left | Dead -> ());
    let dt = Node.take_charges node in
    (* Re-arm even on an empty queue when time was spent: the clock must
       advance past the work just performed (makespan correctness). *)
    if (not (Dlist.is_empty node.Node.queue)) || dt > 0. then
      schedule_tick t node ~delay:dt
  end

and run_quantum t node (th : Thread.t) =
  (* Preemptive migration is honoured at quantum boundaries: the thread
     itself never cooperates. *)
  match th.Thread.pending_migration with
  | Some dest when dest <> node.Node.id ->
    th.Thread.pending_migration <- None;
    start_migration t node th ~dest;
    Left
  | _ ->
    th.Thread.pending_migration <- None;
    let cost = t.config.cost in
    (* Run-until-event: the engine executes whole slices between
       scheduler events instead of bouncing back per instruction. Fuel
       is an exact instruction budget, and [Node.charge_steps] reproduces
       the historic one-float-add-per-step accumulation sequence (NOT
       steps *. instr_cost — float addition is not associative and
       virtual time must stay byte-identical). The engine's fuel check
       precedes its wild-pc check, preserving the old
       requeue-then-fault-next-quantum ordering. Syscalls return here
       before the Sys instruction is paid for or consumed; the historic
       combined charge and 5-unit budget cost apply below. *)
    let rec loop budget =
      if budget <= 0 then Requeue
      else begin
        let outcome, steps =
          Mvm_engine.run t.exec th.Thread.ctx node.Node.space ~fuel:budget
        in
        Node.charge_steps node steps cost.Cm.instr_cost;
        match outcome with
        | Interp.Running -> Requeue
        | Interp.Halted ->
          exit_thread t node th Thread.Halted;
          Dead
        | Interp.Fault f ->
          guest_fault t node th f
        | Interp.Syscall sc ->
          Node.charge node (cost.Cm.instr_cost +. cost.Cm.syscall_base);
          (match dispatch t node th sc with
           | `Continue -> loop (budget - steps - 5)
           | `Requeue -> Requeue
           | `Left -> Left
           | `Dead -> Dead)
      end
    in
    let outcome = loop t.config.quantum in
    (* Stack-overflow guard: the stack must not run into its slot header. *)
    (match outcome with
     | Requeue
       when th.Thread.stack_slot <> 0
            && th.Thread.ctx.Interp.sp < th.Thread.stack_slot + Slot_header.size_of_header
       ->
       Trace.emit t.trace ~time:(Engine.now t.engine) ~node:node.Node.id "Stack overflow";
       exit_thread t node th (Thread.Faulted (Interp.Segv th.Thread.ctx.Interp.sp));
       Dead
     | o -> o)

and guest_fault t node th fault =
  Trace.emit t.trace ~time:(Engine.now t.engine) ~node:node.Node.id
    (Format.asprintf "%a" Interp.pp_fault fault);
  exit_thread t node th (Thread.Faulted fault);
  Dead

and exit_thread t node (th : Thread.t) reason =
  retire t th reason;
  (* Exit commits any buffered output; the checkpoint (and its page
     references) can never be restored again. *)
  flush_outbuf t th.Thread.id;
  Image_store.drop t.store ~tid:th.Thread.id;
  Hashtbl.remove t.ckpt_dirty th.Thread.id;
  (* A dead thread's residual images and knowledge are useless on every
     node; reclaim the cache space. *)
  Array.iter (fun dc -> Delta_cache.drop_thread dc ~tid:th.Thread.id) t.delta;
  (* On death a thread releases all its slots to the node it is visiting
     (paper, Fig. 6, step 4). A faulted thread may have corrupt metadata;
     leak rather than crash the simulation. *)
  if th.Thread.slots_head <> 0 then begin
    try Iso_heap.release_all (host_env t node.Node.id) th with
    | Failure _ | Invalid_argument _ | As.Segfault _ -> ()
  end;
  (* Wake every thread joined on this one, handing each the exit value
     (the dead thread's r0 — PM2's LRPC result convention). *)
  match Hashtbl.find_opt t.waiters th.Thread.id with
  | None -> ()
  | Some parked ->
    Hashtbl.remove t.waiters th.Thread.id;
    List.iter
      (fun (w : Thread.t) ->
         w.Thread.ctx.Pm2_mvm.Interp.regs.(0) <- th.Thread.ctx.Pm2_mvm.Interp.regs.(0);
         enqueue t w)
      parked

and dispatch t node (th : Thread.t) sc =
  let cost = t.config.cost in
  let ctx = th.Thread.ctx in
  let r = ctx.Interp.regs in
  try
    match sc with
    | Isa.Sys_print ->
      let fmt = As.load_cstring node.Node.space r.(1) in
      let text = format_guest node.Node.space fmt [ r.(2); r.(3) ] in
      Node.charge node (0.02 *. float_of_int (String.length text));
      (* pm2_printf flows through the event pipeline; the trace sink
         attached at creation renders it in the legacy format. Under
         checkpointing the line is held back until the next snapshot of
         this thread commits it (output commit). *)
      List.iter
        (fun line ->
           if line <> "" then
             if checkpointing t then
               buffer_print t ~tid:th.Thread.id ~node:node.Node.id line
             else
               Obs.Collector.emit t.obs ~node:node.Node.id
                 (Obs.Event.Thread_printf { tid = th.Thread.id; text = line }))
        (String.split_on_char '\n' text);
      `Continue
    | Isa.Sys_self ->
      r.(0) <- handle_of_tid th.Thread.id;
      `Continue
    | Isa.Sys_node ->
      r.(0) <- node.Node.id;
      `Continue
    | Isa.Sys_clock ->
      r.(0) <- int_of_float (Engine.now t.engine *. 1000.);
      `Continue
    | Isa.Sys_rand ->
      r.(0) <- Prng.int node.Node.prng (max 1 r.(1));
      `Continue
    | Isa.Sys_workload ->
      Node.charge node (float_of_int (max 0 r.(1)));
      `Continue
    | Isa.Sys_yield -> `Requeue
    | Isa.Sys_malloc ->
      (match Malloc.malloc node.Node.heap r.(1) with
       | Ok addr -> r.(0) <- addr
       | Error _ -> r.(0) <- 0);
      `Continue
    | Isa.Sys_free ->
      (* An invalid free is a guest bug: fault the simulation loudly. *)
      Malloc.free_exn node.Node.heap r.(1);
      `Continue
    | Isa.Sys_isomalloc ->
      (match Iso_heap.isomalloc (syscall_env t node.Node.id) th r.(1) with
       | Some addr -> r.(0) <- addr
       | None -> r.(0) <- 0);
      (match take_pending_block t with
       | None -> `Continue
       | Some finish ->
         (* The negotiation blocked the thread inside the system-wide
            critical section; park it until the protocol completes. *)
         th.Thread.state <- Thread.Blocked;
         Engine.schedule t.engine ~at:(max finish (Engine.now t.engine)) (fun () ->
             enqueue t th);
         `Left)
    | Isa.Sys_isofree ->
      Iso_heap.isofree (syscall_env t node.Node.id) th r.(1);
      (* isofree never negotiates, but consume a stale block just in case *)
      ignore (take_pending_block t);
      `Continue
    | Isa.Sys_migrate ->
      let dest = r.(1) in
      if dest = node.Node.id then `Continue
      else if dest < 0 || dest >= Array.length t.nodes then
        guest_fault_ret t node th (Interp.Wild_pc dest)
      else begin
        start_migration t node th ~dest;
        `Left
      end
    | Isa.Sys_register_ptr ->
      r.(0) <- Thread.register_ptr th r.(1);
      Node.charge node cost.Cm.pointer_update;
      `Continue
    | Isa.Sys_unregister_ptr ->
      Thread.unregister_ptr th r.(1);
      `Continue
    | Isa.Sys_spawn ->
      (* An exhausted iso-address area is reported to the guest (r0 = -1),
         not a simulator crash: the node simply cannot host more threads. *)
      (match try_spawn_pc t ~node:node.Node.id ~pc:r.(1) ~arg:r.(2) with
       | Ok child -> r.(0) <- handle_of_tid child.Thread.id
       | Error _ -> r.(0) <- -1);
      `Continue
    | Isa.Sys_migrate_thread ->
      (* "It may also be preemptively migrated by another thread running
         on the same node" (§2). *)
      let dest = r.(2) in
      (match Hashtbl.find_opt t.threads (tid_of_handle r.(1)) with
       | Some victim
         when victim.Thread.node = node.Node.id
              && (not (Thread.is_exited victim))
              && victim.Thread.state <> Thread.Migrating
              && dest >= 0
              && dest < Array.length t.nodes ->
         if victim.Thread.id = th.Thread.id then begin
           (* migrating oneself through this path behaves like Sys_migrate *)
           r.(0) <- 0;
           if dest <> node.Node.id then begin
             start_migration t node th ~dest;
             `Left
           end
           else `Continue
         end
         else begin
           victim.Thread.pending_migration <- (if dest = node.Node.id then None else Some dest);
           r.(0) <- 0;
           `Continue
         end
       | _ ->
         r.(0) <- -1;
         `Continue)
    | Isa.Sys_rpc ->
      let dest = r.(1) in
      if dest < 0 || dest >= Array.length t.nodes then begin
        r.(0) <- -1;
        `Continue
      end
      else begin
        let child = rpc t ~src:node.Node.id ~dest ~pc:r.(2) ~arg:r.(3) in
        r.(0) <- handle_of_tid child.Thread.id;
        `Continue
      end
    | Isa.Sys_join ->
      (match Hashtbl.find_opt t.threads (tid_of_handle r.(1)) with
       | Some target when not (Thread.is_exited target) ->
         th.Thread.state <- Thread.Blocked;
         let parked =
           Option.value ~default:[] (Hashtbl.find_opt t.waiters target.Thread.id)
         in
         Hashtbl.replace t.waiters target.Thread.id (th :: parked);
         `Left
       | Some target ->
         (* already exited: return its exit value immediately *)
         r.(0) <- target.Thread.ctx.Pm2_mvm.Interp.regs.(0);
         `Continue
       | None ->
         r.(0) <- -1;
         `Continue)
    | Isa.Sys_isorealloc ->
      (match Iso_heap.isorealloc (syscall_env t node.Node.id) th r.(1) r.(2) with
       | Some addr -> r.(0) <- addr
       | None -> r.(0) <- 0);
      (match take_pending_block t with
       | None -> `Continue
       | Some finish ->
         th.Thread.state <- Thread.Blocked;
         Engine.schedule t.engine ~at:(max finish (Engine.now t.engine)) (fun () ->
             enqueue t th);
         `Left)
    | Isa.Sys_sem_create ->
      let id = t.next_sem in
      t.next_sem <- id + 1;
      Hashtbl.replace t.semaphores id
        { home = node.Node.id; count = r.(1); sem_waiters = Queue.create () };
      r.(0) <- id;
      `Continue
    | Isa.Sys_sem_p ->
      (match Hashtbl.find_opt t.semaphores r.(1) with
       | Some sem when sem.home = node.Node.id ->
         sem.count <- sem.count - 1;
         r.(0) <- 0;
         if sem.count < 0 then begin
           th.Thread.state <- Thread.Blocked;
           Queue.push th sem.sem_waiters;
           `Left
         end
         else `Continue
       | _ ->
         r.(0) <- -1;
         `Continue)
    | Isa.Sys_sem_v ->
      (match Hashtbl.find_opt t.semaphores r.(1) with
       | Some sem when sem.home = node.Node.id ->
         sem.count <- sem.count + 1;
         r.(0) <- 0;
         (* wake the first waiter that is still alive *)
         let rec wake () =
           match Queue.take_opt sem.sem_waiters with
           | None -> ()
           | Some w -> if Thread.is_exited w then wake () else enqueue t w
         in
         wake ();
         `Continue
       | _ ->
         r.(0) <- -1;
         `Continue)
    | Isa.Sys_sleep ->
      let delay = float_of_int (max 0 r.(1)) in
      th.Thread.state <- Thread.Blocked;
      Engine.schedule_after t.engine ~delay (fun () -> enqueue t th);
      `Left
    | Isa.Sys_barrier ->
      (match Hashtbl.find_opt t.barriers r.(1) with
       | None ->
         r.(0) <- -1;
         `Continue
       | Some bar ->
         r.(0) <- 0;
         bar.arrived <- bar.arrived + 1;
         Network.record_virtual t.net ~src:node.Node.id ~dst:0 ~bytes:64;
         th.Thread.state <- Thread.Blocked;
         bar.parked <- th :: bar.parked;
         if bar.arrived >= bar.participants then begin
           (* every participant is in: release them after one broadcast
              hop of the modelled network *)
           let to_wake = bar.parked in
           bar.parked <- [];
           bar.arrived <- 0;
           let delay = Network.transfer_time t.net ~bytes:64 in
           Engine.schedule_after t.engine ~delay (fun () ->
               List.iter (fun w -> enqueue t w) to_wake)
         end;
         `Left)
  with
  | As.Segfault { addr; _ } -> guest_fault_ret t node th (Interp.Segv addr)
  | Invalid_argument msg ->
    Trace.emit t.trace ~time:(Engine.now t.engine) ~node:node.Node.id
      (Printf.sprintf "runtime error: %s" msg);
    exit_thread t node th (Thread.Faulted (Interp.Segv 0));
    `Dead

and guest_fault_ret t node th fault =
  ignore (guest_fault t node th fault);
  `Dead

and start_migration t node (th : Thread.t) ~dest =
  (* Two paths only. An iso migration that needs more than the paper's
     fault-free hop — the delta codec and residual cache, or failure
     hardening under a live fault plan — rides the group pipeline as a
     group of one: its probe/verdict handshake checks the destination
     can map every slot before the source unmaps anything, every message
     goes through the retransmitting layer, and any failure rolls the
     thread back home. Everything else takes the direct hop that carries
     the paper's calibrated numbers. *)
  if t.config.scheme = Iso && (delta_enabled t || Fault.Plan.enabled t.config.faults)
  then begin
    th.Thread.pending_migration <- None;
    th.Thread.state <- Thread.Migrating;
    (* was_queued = true: the thread was running, so it must re-enter a
       run queue on arrival (or on rollback). *)
    ignore (start_group t ~src:node.Node.id ~dest [ (th, true) ])
  end
  else start_migration_direct t node th ~dest

and start_migration_direct t node (th : Thread.t) ~dest =
  th.Thread.state <- Thread.Migrating;
  let started = Engine.now t.engine in
  let src = node.Node.id in
  let root = Obs.Span.root t.tracer ~at:started ~node:src Obs.Event.Migration in
  (* Fold slot-manager charges raised during packing into the latency. *)
  match pack_on t node th with
  | exception Relocation.Error { reason = msg; _ } ->
    (* The legacy scheme cannot pack this thread (e.g. it holds dynamic
       data slots): abort the migration and let the thread keep running
       where it is — precisely the limitation isomalloc removes. *)
    Trace.emit t.trace ~time:started ~node:src
      (Printf.sprintf "migration of thread %x aborted: %s" (handle_of_tid th.Thread.id)
         msg);
    Obs.Span.finish t.tracer ~at:started ~note:("abort: " ^ msg) root;
    enqueue t th
  | (buffer, pack_cost, slots), extra ->
    let pack_total = pack_cost +. extra in
    Node.charge node pack_total;
    let bytes = Bytes.length buffer in
    if Obs.Collector.enabled t.obs then
      Obs.Collector.emit_at t.obs ~time:started ~node:src
        (Obs.Event.Migration_phase
           { tid = th.Thread.id; phase = Obs.Event.Pack; bytes; slots; dur = pack_total });
    let pack_span = Obs.Span.child t.tracer ~at:started ~node:src ~parent:root Obs.Event.Pack in
    Engine.schedule_after t.engine ~delay:pack_total (fun () ->
        Obs.Span.finish t.tracer ~at:(Engine.now t.engine)
          ~note:(Printf.sprintf "bytes=%d slots=%d" bytes slots)
          pack_span;
        if Obs.Collector.enabled t.obs then
          Obs.Collector.emit t.obs ~node:src
            (Obs.Event.Migration_phase
               {
                 tid = th.Thread.id;
                 phase = Obs.Event.Send;
                 bytes;
                 slots;
                 dur = Network.transfer_time t.net ~bytes;
               });
        let train_span =
          Obs.Span.child t.tracer ~at:(Engine.now t.engine) ~node:src ~parent:root
            Obs.Event.Train
        in
        Network.send t.net ~src ~dst:dest buffer (fun buffer ->
            Obs.Span.finish t.tracer ~at:(Engine.now t.engine) train_span;
            deliver t th ~src ~dest ~started ~slots ~span:root buffer))

and deliver t (th : Thread.t) ~src ~dest ~started ~slots ~span buffer =
  if th.Thread.state <> Thread.Migrating then begin
    (* The source crashed while the image was in flight: the thread left
       the [Migrating] state (stranded, already restored elsewhere, or
       declared lost) and belongs to the recovery supervisor — at-most-once
       demands this late delivery be abandoned, not committed. *)
    t.aborted_migrations <- t.aborted_migrations + 1;
    Obs.Span.finish t.tracer ~at:(Engine.now t.engine)
      ~note:"abandoned: source crashed mid-flight" span
  end
  else deliver_commit t th ~src ~dest ~started ~slots ~span buffer

and deliver_commit t (th : Thread.t) ~src ~dest ~started ~slots ~span buffer =
  let dnode = t.nodes.(dest) in
  let arrived = Engine.now t.engine in
  let unpack_cost, extra = unpack_on t dnode th buffer in
  let resume_delay = unpack_cost +. extra in
  Node.charge dnode resume_delay;
  move_thread t th ~dest;
  let bytes = Bytes.length buffer in
  let unpack_span =
    Obs.Span.child t.tracer ~at:arrived ~node:dest ~parent:span Obs.Event.Unpack
  in
  if Obs.Collector.enabled t.obs then
    Obs.Collector.emit t.obs ~node:dest
      (Obs.Event.Migration_phase
         { tid = th.Thread.id; phase = Obs.Event.Remap; bytes; slots; dur = resume_delay });
  Engine.schedule_after t.engine ~delay:resume_delay (fun () ->
      let resumed = Engine.now t.engine in
      if Obs.Collector.enabled t.obs then
        Obs.Collector.emit t.obs ~node:dest
          (Obs.Event.Migration_phase
             { tid = th.Thread.id; phase = Obs.Event.Restart; bytes; slots; dur = 0. });
      Obs.Span.finish t.tracer ~at:resumed
        ~note:(Printf.sprintf "bytes=%d slots=%d" bytes slots)
        unpack_span;
      let commit_span =
        Obs.Span.child t.tracer ~at:resumed ~node:dest ~parent:unpack_span
          Obs.Event.Commit
      in
      Obs.Span.finish t.tracer ~at:resumed commit_span;
      Obs.Span.finish t.tracer ~at:resumed ~note:"commit" span;
      Vec.push t.migrations
        { tid = th.Thread.id; src; dst = dest; started; resumed; bytes };
      enqueue t th)

and try_spawn_pc t ~node:node_id ~pc ~arg =
  let node = t.nodes.(node_id) in
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  Node.charge node t.config.cost.Cm.thread_create;
  let th = Thread.make ~id:tid ~node:node_id ~ctx:(Interp.make_context ~entry:pc ~stack_top:0) in
  match Iso_heap.acquire_stack_slot (host_env t node_id) th with
  | Some stack_top ->
    let ctx = Interp.make_context ~entry:pc ~stack_top in
    ctx.Interp.regs.(1) <- arg;
    th.Thread.ctx <- ctx;
    register t th;
    enqueue t th;
    Ok th
  | None -> Error Slot_manager.Out_of_slots

and spawn_pc t ~node ~pc ~arg =
  match try_spawn_pc t ~node ~pc ~arg with
  | Ok th -> th
  | Error e -> failwith ("Cluster.spawn: iso-address area exhausted: "
                         ^ Slot_manager.error_to_string e)

and rpc t ~src ~dest ~pc ~arg =
  (* PM2's LRPC: a small request message creates a thread on the remote
     node when it lands. The descriptor exists immediately (so the caller
     can join on it); the stack slot is acquired on arrival, on the
     destination node — thread creation stays a purely local operation
     there (§4.1). *)
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th =
    Thread.make ~id:tid ~node:dest ~ctx:(Interp.make_context ~entry:pc ~stack_top:0)
  in
  th.Thread.state <- Thread.Blocked;
  register t th;
  let request = Bytes.create 96 (* entry + argument + protocol header *) in
  let on_arrival _ =
    let dnode = t.nodes.(dest) in
    Node.charge dnode t.config.cost.Cm.thread_create;
    match Iso_heap.acquire_stack_slot (host_env t dest) th with
    | Some stack_top ->
      let ctx = Interp.make_context ~entry:pc ~stack_top in
      ctx.Interp.regs.(1) <- arg;
      th.Thread.ctx <- ctx;
      enqueue t th
    | None -> exit_thread t t.nodes.(dest) th (Thread.Faulted (Interp.Segv 0))
  in
  if Fault.Plan.enabled t.config.faults then
    (* A lost request would strand the remote thread forever in Blocked;
       the reliable layer retransmits, and on give-up the thread faults so
       any joiner wakes. *)
    Reliable.send t.rel ~src ~dst:dest request ~on_delivered:on_arrival
      ~on_failed:(fun ~reason:_ ->
        exit_thread t t.nodes.(dest) th (Thread.Faulted (Interp.Segv 0)))
  else Network.send t.net ~src ~dst:dest request on_arrival;
  th

(* ===== group migration: one handshake, one train, N threads =====

   The pipeline always runs the two-phase protocol (one probe/verdict
   covering every member) and ships one {!Migration.pack_group} image in
   one reliable packet train — v2 normally, v3 when delta migration is
   on. Any failure at any stage rolls the WHOLE group back: either
   nothing was packed yet (pre-pack abort) or the image is remapped into
   the source space and every member resumes where it started — no
   partially migrated group can exist. A lone iso thread migrating with
   delta on or under a live fault plan is a group of one here. *)

(* Rebuild the node's run queue without [th]; true if it was queued. *)
and dequeue_from_runqueue t (th : Thread.t) =
  let q = t.nodes.(th.Thread.node).Node.queue in
  let rec drain acc = if Dlist.is_empty q then List.rev acc else drain (Dlist.pop_front q :: acc) in
  let found = ref false in
  List.iter
    (fun x -> if x == th then found := true else ignore (Dlist.push_back q x))
    (drain []);
  !found

(* [members] is [(thread, was_on_run_queue)]: threads taken off a run
   queue (or preempted mid-quantum) are re-enqueued on arrival (or on
   rollback); host-driven threads just become Ready again. *)
and group_release t members ~node =
  List.iter
    (fun ((th : Thread.t), was_queued) ->
      if th.Thread.state = Thread.Migrating then begin
        move_thread t th ~dest:node;
        if was_queued then enqueue t th else th.Thread.state <- Thread.Ready
      end)
    members

(* True iff the group's source node crashed while the group was in flight
   (members of one group always share a source, so the crash interrupts
   all of them at once). A crashed-out member leaves the [Migrating]
   state and never returns to it — stranding parks it in [Blocked], a
   checkpoint restore re-dispatches it, losing it exits it — so "some
   member is no longer [Migrating]" is exactly "this group's pipeline
   lost ownership". The rollback/commit continuations abandon such
   groups: the recovery supervisor owns the members now. *)
and group_interrupted _t members =
  List.exists
    (fun ((th : Thread.t), _) -> th.Thread.state <> Thread.Migrating)
    members

and group_abort t ~gid ~src ~dest ~span members ~reason =
  t.aborted_groups <- t.aborted_groups + 1;
  Trace.emit t.trace ~time:(Engine.now t.engine) ~node:src
    (Printf.sprintf "group migration %d to node %d aborted: %s" gid dest reason);
  if Obs.Collector.enabled t.obs then
    Obs.Collector.emit t.obs ~node:src
      (Obs.Event.Group_migration_abort { gid; src; dst = dest; reason });
  Obs.Span.finish t.tracer ~at:(Engine.now t.engine) ~note:("abort: " ^ reason) span;
  (* Only members still [Migrating] resume here; any other belongs to the
     recovery supervisor. Each resumed member counts as one aborted
     migration and is offered to the abort hook, whatever the group size. *)
  let resumed =
    List.filter (fun ((th : Thread.t), _) -> th.Thread.state = Thread.Migrating) members
  in
  group_release t resumed ~node:src;
  List.iter
    (fun ((th : Thread.t), _) ->
      t.aborted_migrations <- t.aborted_migrations + 1;
      match t.on_migration_abort with
      | Some retry -> retry th ~failed:dest
      | None -> ())
    resumed

and group_rollback t ~gid ~src ~dest ~buffer ~slots ~span members ~reason =
  if group_interrupted t members then
    (* No node to roll back onto: the source's space was rebuilt empty by
       the crash. Abort without touching memory; [group_release] inside
       skips every member the pipeline no longer owns. *)
    group_abort t ~gid ~src ~dest ~span members ~reason:(reason ^ " (source crashed)")
  else group_rollback_apply t ~gid ~src ~dest ~buffer ~slots ~span members ~reason

and group_rollback_apply t ~gid ~src ~dest ~buffer ~slots ~span members ~reason =
  let rb_span =
    Obs.Span.child t.tracer ~at:(Engine.now t.engine) ~node:src ~parent:span
      Obs.Event.Rollback
  in
  (* The group's memory exists only in [buffer]; remap every member into
     the source's own space — iso-addressing guarantees the addresses are
     still free there — then abort. One atomic step: unpack_group either
     applies every member or raises before any queue state changed.
     A v3 buffer's [Cached] pages restore from the source's own pinned
     residual image, whose hashes were computed from these very pages at
     pack time — a restore failure here is a simulation bug, not a
     recoverable condition. *)
  let node = t.nodes.(src) in
  let scache = t.delta.(src) in
  let u, extra =
    Node.isolate node (fun () ->
        Migration.unpack_group ~obs:t.obs ~node:src ~cost:t.config.cost
          ~space:node.Node.space
          ~restore:(restore_cached scache node.Node.space)
          ~lookup:(fun tid -> Hashtbl.find t.threads tid)
          buffer)
  in
  if u.Migration.u_missing <> [] then
    failwith "Cluster.group_rollback: pinned residual image cannot restore its own pages";
  (* The members' memory is live on the source again; their pinned images
     are now redundant. *)
  List.iter
    (fun ((th : Thread.t), _) -> Delta_cache.drop_image scache ~tid:th.Thread.id)
    members;
  Node.charge node (u.Migration.u_cost +. extra);
  if Obs.Collector.enabled t.obs then
    List.iter
      (fun ((th : Thread.t), _) ->
        Obs.Collector.emit t.obs ~node:src
          (Obs.Event.Migration_rollback { tid = th.Thread.id; node = src; slots }))
      members;
  Obs.Span.finish t.tracer ~at:(Engine.now t.engine) ~note:reason rb_span;
  group_abort t ~gid ~src ~dest ~span members ~reason

and group_deliver t ~gid ~src ~dest ~started ~ranges ~slots ~pages ~span members buffer =
  if group_interrupted t members then begin
    (* Crash mid-migration: the source died while the train was in
       flight. Committing the late image would race the checkpoint
       supervisor's restore (violating at-most-once), so the delivery is
       abandoned — the members resume from their last checkpoint
       instead. *)
    t.aborted_groups <- t.aborted_groups + 1;
    if Obs.Collector.enabled t.obs then
      Obs.Collector.emit t.obs ~node:dest
        (Obs.Event.Group_migration_abort
           { gid; src; dst = dest; reason = "source crashed mid-flight" });
    Obs.Span.finish t.tracer ~at:(Engine.now t.engine)
      ~note:"abandoned: source crashed mid-flight" span
  end
  else group_deliver_commit t ~gid ~src ~dest ~started ~ranges ~slots ~pages ~span members buffer

and group_deliver_commit t ~gid ~src ~dest ~started ~ranges ~slots ~pages ~span members buffer =
  let dnode = t.nodes.(dest) in
  let arrived = Engine.now t.engine in
  let dcache = t.delta.(dest) in
  match
    Node.isolate dnode (fun () ->
        Migration.unpack_group ~obs:t.obs ~node:dest
          ~restore:(restore_cached dcache dnode.Node.space) ~cost:t.config.cost
          ~space:dnode.Node.space
          ~lookup:(fun tid -> Hashtbl.find t.threads tid)
          buffer)
  with
  | exception (Invalid_argument _ | Failure _ | Not_found | As.Segfault _) ->
    (* The destination could not apply the image (a collision appeared
       after the probe, or the image is inconsistent): scrub whatever was
       partially mapped and hand the whole group back. *)
    List.iter (fun (addr, size) -> ignore (As.scrub_range dnode.Node.space ~addr ~size)) ranges;
    group_rollback t ~gid ~src ~dest ~buffer ~slots ~span members
      ~reason:"destination failed to unpack the group image"
  | u, extra ->
    (* The frame's trace context (stamped by [pack_group]) parents this
       destination-side span under the source's root span — the cross-node
       edge the Chrome exporter renders as a flow arrow. *)
    let unpack_span =
      Obs.Span.remote t.tracer ~at:arrived ~node:dest ~ctx:u.Migration.u_trace
        Obs.Event.Unpack
    in
    let rec commit () =
      if group_interrupted t members then begin
        (* The source crashed during the fallback round-trips; the
           checkpoint supervisor owns the members now. *)
        t.aborted_groups <- t.aborted_groups + 1;
        Obs.Span.finish t.tracer ~at:(Engine.now t.engine)
          ~note:"abandoned: source crashed before commit" span
      end
      else commit_apply ()
    and commit_apply () =
      (* Reconstruction is complete: settle the caches on both ends. The
         destination's own residual for each member is superseded by
         fresh knowledge of what the source now retains; the source's
         pinned images become evictable migrate-out residuals. *)
      if delta_enabled t then begin
        List.iter
          (fun (tid, slot_ranges) ->
            Delta_cache.drop_image dcache ~tid;
            let hashes =
              List.concat_map
                (fun (addr, size) ->
                  List.filter_map
                    (fun i ->
                      let a = addr + (i * Layout.page_size) in
                      if As.page_is_zero dnode.Node.space a then None
                      else Some (a, As.page_hash dnode.Node.space a))
                    (List.init (size / Layout.page_size) Fun.id))
                slot_ranges
            in
            Delta_cache.record_knowledge dcache ~tid ~peer:src hashes)
          u.Migration.u_ranges;
        List.iter
          (fun ((th : Thread.t), _) -> Delta_cache.unpin t.delta.(src) ~tid:th.Thread.id)
          members
      end;
      let resume_delay = u.Migration.u_cost +. extra in
      Node.charge dnode resume_delay;
      let bytes = Bytes.length buffer in
      let n = List.length members in
      let data_pages, zero_pages, cached_pages = pages in
      if Obs.Collector.enabled t.obs then
        Obs.Collector.emit t.obs ~node:dest
          (Obs.Event.Group_migration_phase
             { gid; phase = Obs.Event.Remap; members = n; bytes; slots; dur = resume_delay });
      Engine.schedule_after t.engine ~delay:resume_delay (fun () ->
          let resumed = Engine.now t.engine in
          if Obs.Collector.enabled t.obs then begin
            Obs.Collector.emit t.obs ~node:dest
              (Obs.Event.Group_migration_phase
                 { gid; phase = Obs.Event.Restart; members = n; bytes; slots; dur = 0. });
            Obs.Collector.emit t.obs ~node:dest
              (Obs.Event.Group_migration_commit { gid; dst = dest; members = n; bytes })
          end;
          Obs.Span.finish t.tracer ~at:resumed
            ~note:(Printf.sprintf "members=%d bytes=%d" n bytes)
            unpack_span;
          let commit_span =
            Obs.Span.child t.tracer ~at:resumed ~node:dest ~parent:unpack_span
              Obs.Event.Commit
          in
          Obs.Span.finish t.tracer ~at:resumed commit_span;
          Obs.Span.finish t.tracer ~at:resumed ~note:"commit" span;
          (* Per-member records carry an even share of the train so the
             per-thread latency helpers keep working; the group record holds
             the exact totals. *)
          let share = bytes / max 1 n in
          List.iter
            (fun ((th : Thread.t), _) ->
              Vec.push t.migrations
                { tid = th.Thread.id; src; dst = dest; started; resumed; bytes = share })
            members;
          Vec.push t.group_migrations
            {
              gid;
              g_src = src;
              g_dst = dest;
              g_members = List.map (fun ((th : Thread.t), _) -> th.Thread.id) members;
              g_started = started;
              g_resumed = resumed;
              g_bytes = bytes;
              g_data_pages = data_pages;
              g_zero_pages = zero_pages;
              g_cached_pages = cached_pages;
            };
          group_release t members ~node:dest)
    in
    (match u.Migration.u_missing with
     | [] -> commit ()
     | missing ->
       (* Some [Cached] pages could not be restored (evicted or corrupted
          residual): fetch their raw bytes from the source's pinned image.
          Correctness never depends on the cache — a fallback that cannot
          complete scrubs the destination and rolls the whole group back. *)
       t.delta_fallbacks <- t.delta_fallbacks + List.length missing;
       let refetch_span =
         Obs.Span.child t.tracer ~at:(Engine.now t.engine) ~node:dest
           ~parent:unpack_span Obs.Event.Delta_refetch
       in
       let fail reason =
         Obs.Span.finish t.tracer ~at:(Engine.now t.engine) ~note:reason refetch_span;
         Obs.Span.finish t.tracer ~at:(Engine.now t.engine) ~note:"rolled back"
           unpack_span;
         List.iter
           (fun (addr, size) -> ignore (As.scrub_range dnode.Node.space ~addr ~size))
           ranges;
         group_rollback t ~gid ~src ~dest ~buffer ~slots ~span members ~reason
       in
       let expected = Hashtbl.create (List.length missing) in
       List.iter (fun (tid, addr, hash) -> Hashtbl.replace expected (tid, addr) hash) missing;
       Reliable.send t.rel ~src:dest ~dst:src
         (Migration.delta_request_message ~gid ~pages:missing)
         ~on_delivered:(fun req ->
           match Migration.parse_delta_request req with
           | None -> fail "malformed delta request"
           | Some (_, pages) ->
             let scache = t.delta.(src) in
             let served =
               List.filter_map
                 (fun (tid, addr, _hash) ->
                   Option.map
                     (fun page -> (tid, addr, Bytes.copy page))
                     (Delta_cache.lookup_page scache ~tid ~addr))
                 pages
             in
             if List.length served <> List.length pages then
               fail "source lost its pinned residual image"
             else
               Reliable.send t.rel ~src ~dst:dest
                 (Migration.delta_full_message ~gid ~pages:served)
                 ~on_delivered:(fun full ->
                   match Migration.parse_delta_full full with
                   | Error reason -> fail reason
                   | Ok (_, pages) ->
                     let ok =
                       List.for_all
                         (fun (tid, addr, page) ->
                           match Hashtbl.find_opt expected (tid, addr) with
                           | Some h when As.page_bytes_hash page = h ->
                             As.store_bytes dnode.Node.space addr page;
                             true
                           | _ -> false)
                         pages
                     in
                     if ok then begin
                       Obs.Span.finish t.tracer ~at:(Engine.now t.engine)
                         ~note:(Printf.sprintf "pages=%d" (List.length pages))
                         refetch_span;
                       commit ()
                     end
                     else fail "delta fallback page failed its hash check")
                 ~on_failed:(fun ~reason -> fail ("delta full undeliverable: " ^ reason)))
         ~on_failed:(fun ~reason -> fail ("delta request undeliverable: " ^ reason)))

and group_transfer t ~gid ~src ~dest ~started ~ranges ~span members =
  let node = t.nodes.(src) in
  let version = if delta_enabled t then Codec.V3 else Codec.V2 in
  let scache = t.delta.(src) in
  let pack_span =
    Obs.Span.child t.tracer ~at:(Engine.now t.engine) ~node:src ~parent:span
      Obs.Event.Pack
  in
  let p, extra =
    (* The root span's context rides the codec frame: the destination
       unpack span parents to it even though the image crossed the wire. *)
    Node.isolate node (fun () ->
        Migration.pack_group ~obs:t.obs ~node:src ~version
          ~known:(fun ~tid -> Delta_cache.known scache ~tid ~peer:dest)
          ?trace:(Obs.Span.ctx span) ~cost:t.config.cost ~space:node.Node.space ~gid
          (List.map fst members))
  in
  (* Pin a copy of every member's non-zero pages: rollback and the
     full-resend fallback serve from these until the transfer settles. *)
  List.iter (fun (tid, pages) -> Delta_cache.retain scache ~tid pages) p.Migration.g_retained;
  let pack_total = p.Migration.g_pack_cost +. extra in
  Node.charge node pack_total;
  let buffer = p.Migration.g_buffer in
  let bytes = Bytes.length buffer in
  let slots = p.Migration.g_slots in
  let pages = (p.Migration.g_data_pages, p.Migration.g_zero_pages, p.Migration.g_cached_pages) in
  let n = List.length members in
  if Obs.Collector.enabled t.obs then
    Obs.Collector.emit t.obs ~node:src
      (Obs.Event.Group_migration_phase
         { gid; phase = Obs.Event.Pack; members = n; bytes; slots; dur = pack_total });
  Engine.schedule_after t.engine ~delay:pack_total (fun () ->
      Obs.Span.finish t.tracer ~at:(Engine.now t.engine)
        ~note:(Printf.sprintf "bytes=%d slots=%d" bytes slots)
        pack_span;
      if Obs.Collector.enabled t.obs then
        Obs.Collector.emit t.obs ~node:src
          (Obs.Event.Group_migration_phase
             {
               gid;
               phase = Obs.Event.Send;
               members = n;
               bytes;
               slots;
               dur = Network.transfer_time t.net ~bytes;
             });
      let train_span =
        Obs.Span.child t.tracer ~at:(Engine.now t.engine) ~node:src ~parent:span
          Obs.Event.Train
      in
      (* The train context rides every fragment: {!Reliable} closes a
         destination-side [Train] span at assembly, parented here. *)
      Reliable.send_train ?trace:(Obs.Span.ctx train_span) t.rel ~src ~dst:dest
        (Migration.group_transfer_message ~gid ~ranges ~buffer)
        ~on_delivered:(fun msg ->
          Obs.Span.finish t.tracer ~at:(Engine.now t.engine) train_span;
          match Migration.parse_group_transfer msg with
          | Error reason ->
            group_rollback t ~gid ~src ~dest ~buffer ~slots ~span members ~reason
          | Ok (_, ranges, buffer) ->
            group_deliver t ~gid ~src ~dest ~started ~ranges ~slots ~pages ~span members
              buffer)
        ~on_failed:(fun ~reason ->
          Obs.Span.finish t.tracer ~at:(Engine.now t.engine) ~note:reason train_span;
          group_rollback t ~gid ~src ~dest ~buffer ~slots ~span members ~reason))

(* Members are already prepared (off their run queues, state Migrating);
   run the pipeline: probe the destination with every member's ranges,
   transfer only on an accepting verdict. *)
and start_group t ~src ~dest members =
  let gid = t.next_gid in
  t.next_gid <- gid + 1;
  let started = Engine.now t.engine in
  let n = List.length members in
  if Obs.Collector.enabled t.obs then
    Obs.Collector.emit t.obs ~node:src
      (Obs.Event.Group_migration_start { gid; src; dst = dest; members = n });
  let root = Obs.Span.root t.tracer ~at:started ~node:src Obs.Event.Migration in
  let neg =
    Obs.Span.child t.tracer ~at:started ~node:src ~parent:root Obs.Event.Negotiate
  in
  let ranges = Migration.group_ranges t.nodes.(src).Node.space (List.map fst members) in
  (* The probe carries the negotiate span's context as trailing words, so
     the destination-side probe span parents across the wire. *)
  Reliable.send t.rel ~src ~dst:dest
    (Migration.group_probe_message ?trace:(Obs.Span.ctx neg) ~gid ~ranges ())
    ~on_delivered:(fun probe ->
      match Migration.parse_group_probe probe with
      | None ->
        Obs.Span.finish t.tracer ~at:(Engine.now t.engine) neg;
        group_abort t ~gid ~src ~dest ~span:root members ~reason:"malformed probe"
      | Some (_, ranges, p_trace) ->
        let probe_span =
          Obs.Span.remote t.tracer ~at:(Engine.now t.engine) ~node:dest ~ctx:p_trace
            Obs.Event.Probe
        in
        let dspace = t.nodes.(dest).Node.space in
        let ok =
          List.for_all
            (fun (addr, size) -> As.range_unmapped dspace ~addr ~size)
            ranges
        in
        let reason = if ok then "" else "destination cannot map the group's slots" in
        Obs.Span.finish t.tracer ~at:(Engine.now t.engine)
          ~note:(if ok then "accept" else "reject")
          probe_span;
        Reliable.send t.rel ~src:dest ~dst:src
          (Migration.group_verdict_message ~gid ~ok ~reason)
          ~on_delivered:(fun verdict ->
            Obs.Span.finish t.tracer ~at:(Engine.now t.engine) neg;
            match Migration.parse_group_verdict verdict with
            | Some (_, true, _) ->
              group_transfer t ~gid ~src ~dest ~started ~ranges ~span:root members
            | Some (_, false, reason) ->
              group_abort t ~gid ~src ~dest ~span:root members
                ~reason:("rejected: " ^ reason)
            | None ->
              group_abort t ~gid ~src ~dest ~span:root members
                ~reason:"malformed verdict")
          ~on_failed:(fun ~reason ->
            Obs.Span.finish t.tracer ~at:(Engine.now t.engine) neg;
            group_abort t ~gid ~src ~dest ~span:root members
              ~reason:("verdict undeliverable: " ^ reason)))
    ~on_failed:(fun ~reason ->
      Obs.Span.finish t.tracer ~at:(Engine.now t.engine) neg;
      group_abort t ~gid ~src ~dest ~span:root members
        ~reason:("probe undeliverable: " ^ reason));
  gid

(* ===== crash recovery: checkpoints, failure detection, failover =====

   Three layers (all inert unless configured):

   - checkpoints: a virtual-time ticker snapshots every dirty thread with
     a non-destructive v3 pack into the content-addressed {!Image_store};
     pages the pool already holds ship as hashes, so steady-state frames
     are deltas. Guest output is committed at snapshot boundaries.
   - failure detection: surviving nodes beacon HBEA frames every
     {!hb_interval}; the phi-style {!Heartbeat} detector turns silence
     into [Node_suspected] then [Node_dead].
   - failover: on [Node_dead], every thread stranded by that node's crash
     is restored from its latest checkpoint onto the least-loaded
     survivor through the probe/commit pipeline — or cold-started in
     place when the node restarts first. A thread with no checkpoint (or
     no host) is declared lost, typed, with joiners woken. *)

and arm_checkpoint t =
  if checkpointing t && not t.ckpt_scheduled then begin
    t.ckpt_scheduled <- true;
    let iv = t.config.checkpoint_interval in
    (* next strictly-future multiple of the interval *)
    let next = iv *. (Float.of_int (int_of_float (Engine.now t.engine /. iv)) +. 1.) in
    Engine.schedule t.engine ~at:next (fun () -> ckpt_tick t)
  end

and ckpt_tick t =
  t.ckpt_scheduled <- false;
  List.iter
    (fun (th : Thread.t) ->
      if
        (not (Thread.is_exited th))
        && th.Thread.state <> Thread.Migrating
        && (not (Hashtbl.mem t.stranded th.Thread.id))
        && (Hashtbl.mem t.ckpt_dirty th.Thread.id
            || Option.is_none (Image_store.latest t.store ~tid:th.Thread.id))
      then checkpoint_thread t th)
    (threads t);
  (* Re-arm only while some thread can still make progress on its own —
     otherwise the ticker would keep the engine alive forever. A later
     wakeup re-arms through [enqueue]. *)
  let runnable =
    Hashtbl.fold
      (fun _ (th : Thread.t) acc ->
        acc
        ||
        match th.Thread.state with
        | Thread.Ready | Thread.Running -> not (Hashtbl.mem t.stranded th.Thread.id)
        | _ -> false)
      t.threads false
  in
  if runnable then arm_checkpoint t

and checkpoint_thread t (th : Thread.t) =
  let n = th.Thread.node in
  let node = t.nodes.(n) in
  let space = node.Node.space in
  (* Pages whose content the pool already holds (from any thread's
     earlier snapshot) ship as [Cached] hashes: the store and the wire
     share the v3 codec, so steady-state checkpoint frames are deltas for
     free. *)
  let known ~tid:_ addr =
    let h = As.page_hash space addr in
    if Image_store.has_page t.store ~hash:h then Some h else None
  in
  match
    Node.isolate node (fun () ->
        Migration.pack_group ~version:Codec.V3 ~known ~unmap:false ~cost:t.config.cost
          ~space ~gid:0 [ th ])
  with
  | exception (Invalid_argument _ | Failure _ | As.Segfault _) ->
    (* A thread the codec cannot snapshot right now stays dirty and is
       retried at the next sweep. *)
    ()
  | p, extra ->
    Node.charge node (p.Migration.g_pack_cost +. extra);
    let frame = p.Migration.g_buffer in
    let pages =
      match p.Migration.g_retained with
      | [ (_, pages) ] ->
        List.map (fun (_, page) -> (As.page_bytes_hash page, page)) pages
      | _ -> []
    in
    let new_pages =
      Image_store.save t.store ~tid:th.Thread.id ~node:n ~gen:t.node_gen.(n)
        ~at:(Engine.now t.engine) ~frame
        ~ranges:(Migration.slot_ranges space th)
        ~pages
    in
    t.checkpoint_count <- t.checkpoint_count + 1;
    Hashtbl.remove t.ckpt_dirty th.Thread.id;
    let bytes = Bytes.length frame in
    let full_bytes = bytes + (p.Migration.g_cached_pages * Layout.page_size) in
    Obs.Collector.emit t.obs ~node:n
      (Obs.Event.Checkpoint
         { tid = th.Thread.id; node = n; bytes; full_bytes; new_pages });
    (* The snapshot covers everything printed so far: commit it. *)
    flush_outbuf t th.Thread.id

(* -- heartbeats and the failure detector -- *)

and arm_hb t =
  if not t.hb_scheduled then begin
    t.hb_scheduled <- true;
    Engine.schedule_after t.engine ~delay:hb_interval (fun () -> hb_tick t)
  end

and hb_tick t =
  t.hb_scheduled <- false;
  match t.hb with
  | None -> ()
  | Some hb ->
    let n = Array.length t.nodes in
    (* Full mesh: every node the fault plan says is up beacons everyone
       else. A killed, crashed or partitioned sender produces nothing —
       the silence the detector keys on. *)
    for src = 0 to n - 1 do
      if node_alive t src then
        for dst = 0 to n - 1 do
          if dst <> src then
            Reliable.send_heartbeat t.rel ~src ~dst ~gen:t.node_gen.(src)
              ~on_heard:(fun ~src ~gen ->
                Heartbeat.heard hb ~node:src ~gen ~now:(Engine.now t.engine))
        done
    done;
    monitor t hb;
    (* Beacon while detection is still pending: a crash ahead of us, a
       currently-dead incarnation not yet declared, or stranded threads
       awaiting failover / cold start. Once all three are quiet the
       ticker lapses and the engine can quiesce. *)
    let now = Engine.now t.engine in
    let pending =
      Hashtbl.length t.stranded > 0
      || List.exists
           (fun (k : Fault.Plan.kill) ->
             now < k.at
             || (node_crashed t k.victim && not t.hb_dead.(k.victim))
             || match k.restart with Some r -> now < r | None -> false)
           (Fault.Plan.spec t.config.faults).Fault.Plan.crashes
    in
    if pending then arm_hb t

and monitor t hb =
  let now = Engine.now t.engine in
  let n = Array.length t.nodes in
  (* The observer reporting suspicion and death: the lowest-id live
     node — the supervisor role rotates implicitly if it dies itself. *)
  let observer =
    let rec first i = if i >= n then 0 else if node_alive t i then i else first (i + 1) in
    first 0
  in
  for node = 0 to n - 1 do
    if node <> observer then begin
      match Heartbeat.verdict hb ~node ~now with
      | Heartbeat.Alive -> if t.hb_suspected.(node) then t.hb_suspected.(node) <- false
      | Heartbeat.Suspected ->
        if not t.hb_suspected.(node) then begin
          t.hb_suspected.(node) <- true;
          Obs.Collector.emit t.obs ~node:observer
            (Obs.Event.Node_suspected { node; by = observer })
        end
      | Heartbeat.Dead ->
        if not t.hb_dead.(node) then begin
          t.hb_dead.(node) <- true;
          Obs.Collector.emit t.obs ~node:observer
            (Obs.Event.Node_dead { node; by = observer });
          failover_node t ~node
        end
    end
  done

(* -- crash execution -- *)

and crash_node t ~node:n =
  let old = t.nodes.(n) in
  (* Strand every live thread whose memory lived in the dying space. *)
  let victims =
    Tid_map.fold
      (fun tid th acc -> if Hashtbl.mem t.stranded tid then acc else th :: acc)
      t.residents.(n) []
    |> List.rev
  in
  Obs.Collector.emit t.obs ~node:n
    (Obs.Event.Node_crash { node = n; threads = List.length victims });
  let gen = t.node_gen.(n) + 1 in
  t.node_gen.(n) <- gen;
  List.iter
    (fun (th : Thread.t) ->
      Hashtbl.replace t.stranded th.Thread.id { s_node = n; s_gen = gen };
      th.Thread.state <- Thread.Blocked;
      th.Thread.pending_migration <- None;
      (* Unexternalized output dies with the node: the restored replay
         will produce it again, exactly once. *)
      Hashtbl.remove t.outbuf th.Thread.id;
      Hashtbl.remove t.ckpt_dirty th.Thread.id)
    victims;
  (* Drain the dead run queue so a stale [tick] capture finds nothing. *)
  while not (Dlist.is_empty old.Node.queue) do
    ignore (Dlist.pop_front old.Node.queue)
  done;
  (* Rebuild the node around a fresh address space. The slot-ownership
     bitmap is global knowledge and survives the crash verbatim (slots
     held by stranded threads stay out of every bitmap until a restored
     thread eventually releases them); everything in-memory — heap, slot
     cache, partial train assemblies, residual images — is gone. *)
  let fresh =
    Node.create ~obs:t.obs ~id:n ~cost:t.config.cost ~geometry:t.geometry
      ~bitmap:(Slot_manager.bitmap old.Node.mgr)
      ~cache_capacity:t.config.cache_capacity ~seed:t.config.seed ()
  in
  Program.load_data t.program fresh.Node.space;
  t.nodes.(n) <- fresh;
  Negotiation.set_mgr t.neg ~node:n fresh.Node.mgr;
  t.delta.(n) <-
    Delta_cache.create ~budget:t.config.delta_cache_bytes
      ~on_evict:(fun ~tid ~bytes ->
        Obs.Collector.emit t.obs ~node:n (Obs.Event.Delta_evict { tid; bytes }))
      ();
  (* Peers' beliefs about what [n] retains are now false; invalidate. *)
  Array.iteri
    (fun i dc ->
      if i <> n then begin
        let entries = Delta_cache.drop_peer dc ~peer:n in
        if entries > 0 then
          Obs.Collector.emit t.obs ~node:i
            (Obs.Event.Delta_invalidate { node = i; peer = n; entries })
      end)
    t.delta;
  ignore (Reliable.forget_node t.rel ~node:n)

and restart_node t ~node:n =
  let now = Engine.now t.engine in
  Obs.Collector.emit t.obs ~node:n (Obs.Event.Node_restart { node = n });
  t.hb_suspected.(n) <- false;
  t.hb_dead.(n) <- false;
  (match t.hb with Some hb -> Heartbeat.reset hb ~node:n ~now | None -> ());
  (* Cold start: any thread of this node not already failed over restores
     from its checkpoint right here — the rebuilt space is empty, so its
     iso addresses are free by construction. *)
  let still =
    Hashtbl.fold
      (fun tid (s : stranded) acc -> if s.s_node = n then (tid, s) :: acc else acc)
      t.stranded []
    |> List.sort compare
  in
  List.iter
    (fun (tid, (s : stranded)) ->
      match Image_store.latest t.store ~tid with
      | None -> declare_lost t ~tid ~node:n ~reason:"no checkpoint to cold-start from"
      | Some e ->
        if not (restore_thread t ~tid ~gen:s.s_gen ~from_node:n ~dest:n ~via:n e) then
          declare_lost t ~tid ~node:n ~reason:"cold start failed to apply the image")
    still

(* -- failover -- *)

and failover_node t ~node:n =
  let victims =
    Hashtbl.fold
      (fun tid (s : stranded) acc -> if s.s_node = n then (tid, s) :: acc else acc)
      t.stranded []
    |> List.sort compare
  in
  List.iter
    (fun (tid, (s : stranded)) -> failover_thread t ~tid ~gen:s.s_gen ~from_node:n)
    victims

and failover_thread t ~tid ~gen ~from_node =
  if Hashtbl.mem t.stranded tid then begin
    match Image_store.latest t.store ~tid with
    | None ->
      declare_lost t ~tid ~node:from_node
        ~reason:"node crashed with no checkpoint of the thread"
    | Some e ->
      (* Balancer-scored survivors: alive nodes, least loaded first. *)
      let n = Array.length t.nodes in
      let candidates =
        List.init n Fun.id
        |> List.filter (fun i -> i <> from_node && node_alive t i && not t.hb_dead.(i))
        |> List.sort (fun a b ->
               compare (Node.load t.nodes.(a), a) (Node.load t.nodes.(b), b))
      in
      match candidates with
      | [] ->
        declare_lost t ~tid ~node:from_node
          ~reason:"no surviving node can host the restored image"
      | first :: _ ->
        let supervisor = List.fold_left min first candidates in
        try_failover t ~tid ~gen ~from_node e ~supervisor candidates
  end

and try_failover t ~tid ~gen ~from_node e ~supervisor = function
  | [] ->
    declare_lost t ~tid ~node:from_node
      ~reason:"no surviving node can host the restored image"
  | dest :: rest ->
    (* Two-phase: probe the candidate with the checkpointed slot ranges
       over the reliable layer. Verdict and commit coincide at the
       destination because the image is served from the durable store,
       not from a crashable peer. *)
    Reliable.send t.rel ~src:supervisor ~dst:dest
      (Migration.group_probe_message ~gid:0 ~ranges:e.Image_store.e_ranges ())
      ~on_delivered:(fun probe ->
        if Hashtbl.mem t.stranded tid then begin
          let ok =
            match Migration.parse_group_probe probe with
            | None -> false
            | Some (_, ranges, _) ->
              List.for_all
                (fun (addr, size) ->
                  As.range_unmapped t.nodes.(dest).Node.space ~addr ~size)
                ranges
          in
          if
            not
              (ok && restore_thread t ~tid ~gen ~from_node ~dest ~via:supervisor e)
          then try_failover t ~tid ~gen ~from_node e ~supervisor rest
        end)
      ~on_failed:(fun ~reason:_ ->
        if Hashtbl.mem t.stranded tid then
          try_failover t ~tid ~gen ~from_node e ~supervisor rest)

(* Apply checkpoint [e] to [dest]'s space and resume the thread there.
   [via] is the node serving the store image (the transfer is accounted
   as one virtual message unless the restore is local). False on an
   unappliable image, with [dest]'s space scrubbed clean. *)
and restore_thread t ~tid ~gen ~from_node ~dest ~via e =
  let dnode = t.nodes.(dest) in
  let frame = e.Image_store.e_frame in
  let scrub () =
    List.iter
      (fun (addr, size) -> ignore (As.scrub_range dnode.Node.space ~addr ~size))
      e.Image_store.e_ranges
  in
  match
    Node.isolate dnode (fun () ->
        Migration.unpack_group ~obs:t.obs ~node:dest ~cost:t.config.cost
          ~space:dnode.Node.space
          ~restore:(fun ~tid:_ ~addr ~hash ->
            match Image_store.find_page t.store ~hash with
            | Some page ->
              As.store_bytes dnode.Node.space addr page;
              true
            | None -> false)
          ~lookup:(fun id -> Hashtbl.find t.threads id)
          frame)
  with
  | exception (Invalid_argument _ | Failure _ | Not_found | As.Segfault _) ->
    scrub ();
    false
  | u, _ when u.Migration.u_missing <> [] ->
    (* Every [Cached] hash of a stored frame is pool-backed by
       construction; a miss here means corruption — scrub and let the
       caller try elsewhere. *)
    scrub ();
    false
  | u, extra ->
    let th = Hashtbl.find t.threads tid in
    Node.charge dnode (u.Migration.u_cost +. extra);
    let bytes = Bytes.length frame in
    let delay =
      if via <> dest then begin
        Network.record_virtual t.net ~src:via ~dst:dest ~bytes;
        Network.transfer_time t.net ~bytes +. u.Migration.u_cost +. extra
      end
      else u.Migration.u_cost +. extra
    in
    Hashtbl.remove t.stranded tid;
    t.restored_count <- t.restored_count + 1;
    move_thread t th ~dest;
    th.Thread.pending_migration <- None;
    Obs.Collector.emit t.obs ~node:dest
      (Obs.Event.Thread_restore { tid; node = dest; from_node; gen });
    Engine.schedule_after t.engine ~delay (fun () -> enqueue t th);
    true

and declare_lost t ~tid ~node ~reason =
  if Hashtbl.mem t.stranded tid then begin
    Hashtbl.remove t.stranded tid;
    let th = Hashtbl.find t.threads tid in
    (* The thread's memory is unrecoverable. Its slots leak (they sit in
       no bitmap and no live space — the documented cost of running
       without checkpoints), but the descriptor dies cleanly: joiners
       wake with the loss sentinel in r0. *)
    th.Thread.ctx.Interp.regs.(0) <- -1;
    retire t th Thread.Killed;
    Array.iter (fun dc -> Delta_cache.drop_thread dc ~tid) t.delta;
    Image_store.drop t.store ~tid;
    Hashtbl.remove t.outbuf tid;
    Hashtbl.remove t.ckpt_dirty tid;
    t.lost <- { l_tid = tid; l_node = node; l_reason = reason } :: t.lost;
    Obs.Collector.emit t.obs ~node (Obs.Event.Thread_lost { tid; node; reason });
    match Hashtbl.find_opt t.waiters tid with
    | None -> ()
    | Some parked ->
      Hashtbl.remove t.waiters tid;
      List.iter
        (fun (w : Thread.t) ->
          w.Thread.ctx.Interp.regs.(0) <- -1;
          enqueue t w)
        parked
  end

(* Crash events and the failure detector call into the scheduler knot, so
   [create] builds the quiescent cluster and this arms recovery before
   anything runs. With no crashes in the plan and checkpointing off, this
   schedules nothing and arms nothing: byte-identical default. *)
let arm_recovery t =
  let crashes = (Fault.Plan.spec t.config.faults).Fault.Plan.crashes in
  if Fault.Plan.enabled t.config.faults && crashes <> [] then begin
    let hb =
      Heartbeat.create ~nodes:(Array.length t.nodes) ~interval:hb_interval
        ~now:(Engine.now t.engine) ()
    in
    t.hb <- Some hb;
    List.iter
      (fun (k : Fault.Plan.kill) ->
        if k.victim >= 0 && k.victim < Array.length t.nodes then begin
          Engine.schedule t.engine ~at:k.at (fun () -> crash_node t ~node:k.victim);
          Option.iter
            (fun r -> Engine.schedule t.engine ~at:r (fun () -> restart_node t ~node:k.victim))
            k.restart
        end)
      crashes;
    arm_hb t
  end;
  if checkpointing t then arm_checkpoint t

let create config program =
  let t = create config program in
  arm_recovery t;
  t

let spawn t ~node ~entry ?(arg = 0) () =
  spawn_pc t ~node ~pc:(Program.entry t.program entry) ~arg

let request_migration t (th : Thread.t) ~dest =
  if dest < 0 || dest >= Array.length t.nodes then
    invalid_arg "Cluster.request_migration: bad destination";
  if not (Thread.is_exited th) then begin
    th.Thread.pending_migration <- Some dest;
    (* Make sure the node wakes up to honour it even if idle. *)
    schedule_tick t t.nodes.(th.Thread.node) ~delay:0.
  end

(* The group pipeline itself lives inside the scheduler knot (it is also
   the path of every single iso thread when delta is on or a fault plan
   is live); this entry point only validates the group and prepares the
   members. *)
let migrate_group t ths ~dest =
  if ths = [] then Error "empty group"
  else if dest < 0 || dest >= Array.length t.nodes then Error "bad destination"
  else if t.config.scheme <> Iso then Error "group migration requires the iso scheme"
  else begin
    let src = (List.hd ths).Thread.node in
    let bad =
      List.find_opt
        (fun (th : Thread.t) ->
          th.Thread.node <> src || Thread.is_exited th || th.Thread.state <> Thread.Ready)
        ths
    in
    let rec has_dup = function
      | [] -> false
      | (th : Thread.t) :: tl -> List.memq th tl || has_dup tl
    in
    match bad with
    | Some th ->
      Error
        (Printf.sprintf "thread %d is not a Ready thread on node %d" th.Thread.id src)
    | None ->
      if src = dest then Error "group already on the destination node"
      else if has_dup ths then Error "duplicate thread in group"
      else begin
        let members =
          List.map
            (fun (th : Thread.t) ->
              let was_queued = dequeue_from_runqueue t th in
              th.Thread.pending_migration <- None;
              th.Thread.state <- Thread.Migrating;
              (th, was_queued))
            ths
        in
        Ok (start_group t ~src ~dest members)
      end
  end

let create_barrier t ~participants =
  if participants <= 0 then invalid_arg "Cluster.create_barrier: participants <= 0";
  let id = t.next_barrier in
  t.next_barrier <- id + 1;
  Hashtbl.replace t.barriers id { participants; arrived = 0; parked = [] };
  id

(* On-demand checkpoint sweep (the service tier's [checkpoint] request).
   With the periodic ticker armed this snapshots exactly what the next
   tick would (dirty or never-checkpointed threads); with checkpointing
   off there is no dirty tracking, so every live thread is snapshotted —
   the content-addressed store dedups unchanged pages either way. *)
let checkpoint_now t =
  let before = t.checkpoint_count in
  List.iter
    (fun (th : Thread.t) ->
      if
        (not (Thread.is_exited th))
        && th.Thread.state <> Thread.Migrating
        && (not (Hashtbl.mem t.stranded th.Thread.id))
        && ((not (checkpointing t))
            || Hashtbl.mem t.ckpt_dirty th.Thread.id
            || Option.is_none (Image_store.latest t.store ~tid:th.Thread.id))
      then checkpoint_thread t th)
    (threads t);
  t.checkpoint_count - before

let run ?until t =
  let r = Engine.run ?until t.engine in
  (* End of run externalizes whatever buffered output survived. *)
  flush_all_outbufs t;
  r

(* Bounded stepping for the service tier. *)
let step_events t ~max_events =
  let ran = ref 0 in
  while !ran < max_events && Engine.step t.engine do
    incr ran
  done;
  !ran

(* -- host-mode helpers -- *)

let host_thread t ~node =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th = Thread.make ~id:tid ~node ~ctx:(Interp.make_context ~entry:0 ~stack_top:0) in
  (match Iso_heap.acquire_stack_slot (host_env t node) th with
   | Some stack_top -> th.Thread.ctx <- Interp.make_context ~entry:0 ~stack_top
   | None -> failwith "Cluster.host_thread: iso-address area exhausted");
  register t th;
  th

let host_migrate t (th : Thread.t) ~dest =
  if dest < 0 || dest >= Array.length t.nodes then
    invalid_arg "Cluster.host_migrate: bad destination";
  let src = th.Thread.node in
  if src <> dest then begin
    let snode = t.nodes.(src) and dnode = t.nodes.(dest) in
    let started = Engine.now t.engine in
    let (buffer, pack_cost, slots), extra = pack_on t snode th in
    let pack_total = pack_cost +. extra in
    Node.charge snode pack_total;
    let bytes = Bytes.length buffer in
    Network.record_virtual t.net ~src ~dst:dest ~bytes;
    let unpack_cost, extra = unpack_on t dnode th buffer in
    let unpack_total = unpack_cost +. extra in
    Node.charge dnode unpack_total;
    move_thread t th ~dest;
    let transfer = Network.transfer_time t.net ~bytes in
    let latency = pack_total +. transfer +. unpack_total in
    (* Host-mode migration is synchronous against the simulator; the four
       phases are stamped at the virtual instants they model. *)
    if Obs.Collector.enabled t.obs then begin
      let tid = th.Thread.id in
      let ph phase ~time ~node ~dur =
        Obs.Collector.emit_at t.obs ~time ~node
          (Obs.Event.Migration_phase { tid; phase; bytes; slots; dur })
      in
      ph Obs.Event.Pack ~time:started ~node:src ~dur:pack_total;
      ph Obs.Event.Send ~time:(started +. pack_total) ~node:src ~dur:transfer;
      ph Obs.Event.Remap ~time:(started +. pack_total +. transfer) ~node:dest
        ~dur:unpack_total;
      ph Obs.Event.Restart ~time:(started +. latency) ~node:dest ~dur:0.
    end;
    (* Same instants, as spans. *)
    let root = Obs.Span.root t.tracer ~at:started ~node:src Obs.Event.Migration in
    let pack_span =
      Obs.Span.child t.tracer ~at:started ~node:src ~parent:root Obs.Event.Pack
    in
    Obs.Span.finish t.tracer ~at:(started +. pack_total)
      ~note:(Printf.sprintf "bytes=%d slots=%d" bytes slots)
      pack_span;
    let unpack_span =
      Obs.Span.child t.tracer ~at:(started +. pack_total +. transfer) ~node:dest
        ~parent:root Obs.Event.Unpack
    in
    Obs.Span.finish t.tracer ~at:(started +. latency) unpack_span;
    Obs.Span.finish t.tracer ~at:(started +. latency) ~note:"commit" root;
    Vec.push t.migrations
      { tid = th.Thread.id; src; dst = dest; started; resumed = started +. latency; bytes }
  end

let check_invariants t =
  (* The per-node index holds exactly the threads that have not exited,
     each under its own node, and the roster is in id order. *)
  let live, _ =
    Vec.fold_left
      (fun (live, prev) (th : Thread.t) ->
        if th.Thread.id <= prev then failwith "Cluster: thread roster out of id order";
        if Thread.is_exited th then (live, th.Thread.id)
        else begin
          (match Tid_map.find_opt th.Thread.id t.residents.(th.Thread.node) with
           | Some th' when th' == th -> ()
           | _ ->
             failwith
               (Printf.sprintf "Cluster: thread %d missing from node %d's index" th.Thread.id
                  th.Thread.node));
          (live + 1, th.Thread.id)
        end)
      (0, -1) t.roster
  in
  let indexed = Array.fold_left (fun n m -> n + Tid_map.cardinal m) 0 t.residents in
  if live <> t.live || indexed <> live then
    failwith
      (Printf.sprintf "Cluster: %d live threads, counter says %d, index holds %d" live t.live
         indexed);
  Negotiation.check_global_invariant t.neg;
  Array.iter (fun n -> Slot_manager.check_invariants n.Node.mgr) t.nodes;
  Array.iter Delta_cache.check t.delta;
  Hashtbl.iter
    (fun _ (th : Thread.t) ->
       match th.Thread.state with
       | Thread.Migrating | Thread.Exited _ -> ()
       | _ ->
         (* A stranded thread's slot chain points into memory its node's
            crash wiped; it is checkable again only once restored. *)
         if th.Thread.slots_head <> 0 && not (Hashtbl.mem t.stranded th.Thread.id)
         then Iso_heap.check_invariants (host_env t th.Thread.node) th)
    t.threads

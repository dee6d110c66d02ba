(* The scheduler and syscall layer: per-node run queues, quanta, the
   [Sys_*] dispatcher, thread birth and exit, and the public API.
   Migration ({!Cluster_migrate}) and crash recovery ({!Cluster_recover})
   hand threads back through the [wake] field, which [create] fills with
   [enqueue]. *)

include Cluster_state
module Isa = Pm2_mvm.Isa
module Malloc = Pm2_heap.Malloc
module Dlist = Pm2_util.Dlist
module Prng = Pm2_util.Prng

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

let tid_of_handle h = h - 0xeeff0000

let take_pending_block t =
  let b = t.pending_block in
  t.pending_block <- None;
  b

(* A thread is born in two steps: [new_thread] hands out its id with a
   placeholder context, and [give_stack] takes a stack slot on the
   thread's node and points a fresh context at [pc] with [arg] in r1 —
   false if the iso-address area is exhausted. *)
let new_thread t ~node ~pc =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  Thread.make ~id:tid ~node ~ctx:(Interp.make_context ~entry:pc ~stack_top:0)

let give_stack t (th : Thread.t) ~pc ~arg =
  match Iso_heap.acquire_stack_slot (host_env t th.Thread.node) th with
  | Some stack_top ->
    let ctx = Interp.make_context ~entry:pc ~stack_top in
    ctx.Interp.regs.(1) <- arg;
    th.Thread.ctx <- ctx;
    true
  | None -> false

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
    set_state t th Thread.Ready;
    let node = t.nodes.(th.node) in
    ignore (Dlist.push_back node.Node.queue th);
    schedule_tick t node ~delay:0.;
    Cluster_recover.arm_checkpoint t
  end

and schedule_tick t node ~delay =
  if not node.Node.tick_scheduled then begin
    node.Node.tick_scheduled <- true;
    Engine.schedule_after t.engine ~delay node.Node.tick
  end

and tick t node =
  node.Node.tick_scheduled <- false;
  if not (Dlist.is_empty node.Node.queue) then begin
    let th = Dlist.pop_front node.Node.queue in
    start_quantum th;
    if checkpointing t then Hashtbl.replace t.ckpt_dirty th.Thread.id ();
    Node.charge node t.config.cost.Cm.context_switch;
    let outcome = run_quantum t node th in
    (match outcome with
     | Requeue ->
       end_quantum th;
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
    set_pending t th None;
    Cluster_migrate.start t node th ~dest;
    Left
  | pending ->
    (match pending with Some _ -> set_pending t th None | None -> ());
    let cost = t.config.cost in
    (* Run-until-event: the engine executes whole slices between
       scheduler events instead of bouncing back per instruction. Fuel
       is an exact instruction budget. Virtual time must keep the bits of
       one [+. instr_cost] per retired step (NOT steps *. instr_cost —
       float addition is not associative); [Node.charge_steps] computes
       that fold a binade at a time, since within one binade every add
       rounds [instr_cost] to the same multiple of the spacing, and takes
       a single add at each crossing. The engine's fuel check
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
          guest_fault t node th f;
          Dead
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
       guest_fault ~text:"Stack overflow" t node th (Interp.Segv th.Thread.ctx.Interp.sp);
       Dead
     | o -> o)

(* Trace the fault ([text], or the fault itself) and kill the thread. *)
and guest_fault ?text t node th fault =
  Trace.emit t.trace ~time:(Engine.now t.engine) ~node:node.Node.id
    (match text with Some s -> s | None -> Format.asprintf "%a" Interp.pp_fault fault);
  exit_thread t node th (Thread.Faulted fault)

and exit_thread t node (th : Thread.t) reason =
  retire t th reason;
  (* Exit commits any buffered output; the checkpoint (and its page
     references) can never be restored again, and the residual images
     are useless on every node. *)
  flush_outbuf t th.Thread.id;
  forget t th.Thread.id;
  (* On death a thread releases all its slots to the node it is visiting
     (paper, Fig. 6, step 4). A faulted thread may have corrupt metadata;
     leak rather than crash the simulation. *)
  if th.Thread.slots_head <> 0 then begin
    try Iso_heap.release_all (host_env t node.Node.id) th with
    | Failure _ | Invalid_argument _ | As.Segfault _ -> ()
  end;
  release_joiners t th

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
      r.(0) <- Result.value ~default:0 (Malloc.malloc node.Node.heap r.(1));
      `Continue
    | Isa.Sys_free ->
      (* An invalid free is a guest bug: fault the simulation loudly. *)
      Malloc.free_exn node.Node.heap r.(1);
      `Continue
    | Isa.Sys_isomalloc ->
      r.(0) <- Option.value ~default:0 (Iso_heap.isomalloc (syscall_env t node.Node.id) th r.(1));
      after_negotiation t th
    | Isa.Sys_isofree ->
      Iso_heap.isofree (syscall_env t node.Node.id) th r.(1);
      (* isofree never negotiates, but consume a stale block just in case *)
      ignore (take_pending_block t);
      `Continue
    | Isa.Sys_migrate ->
      let dest = r.(1) in
      if dest = node.Node.id then `Continue
      else if not (valid_node t dest) then begin
        guest_fault t node th (Interp.Wild_pc dest);
        `Dead
      end
      else begin
        Cluster_migrate.start t node th ~dest;
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
      r.(0) <-
        (match spawn_at t ~node:node.Node.id ~pc:r.(1) ~arg:r.(2) with
         | Some child -> handle_of_tid child.Thread.id
         | None -> -1);
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
              && valid_node t dest ->
         if victim.Thread.id = th.Thread.id then begin
           (* migrating oneself through this path behaves like Sys_migrate *)
           r.(0) <- 0;
           if dest <> node.Node.id then begin
             Cluster_migrate.start t node th ~dest;
             `Left
           end
           else `Continue
         end
         else begin
           set_pending t victim (if dest = node.Node.id then None else Some dest);
           r.(0) <- 0;
           `Continue
         end
       | _ ->
         r.(0) <- -1;
         `Continue)
    | Isa.Sys_rpc ->
      let dest = r.(1) in
      if not (valid_node t dest) then begin
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
         set_state t th Thread.Blocked;
         let parked =
           Option.value ~default:[] (Hashtbl.find_opt t.waiters target.Thread.id)
         in
         Hashtbl.replace t.waiters target.Thread.id (th :: parked);
         `Left
       | Some target ->
         (* already exited: return its exit value immediately *)
         r.(0) <- target.Thread.ctx.Interp.regs.(0);
         `Continue
       | None ->
         r.(0) <- -1;
         `Continue)
    | Isa.Sys_isorealloc ->
      r.(0) <-
        Option.value ~default:0
          (Iso_heap.isorealloc (syscall_env t node.Node.id) th r.(1) r.(2));
      after_negotiation t th
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
           set_state t th Thread.Blocked;
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
      set_state t th Thread.Blocked;
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
         set_state t th Thread.Blocked;
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
  | As.Segfault { addr; _ } ->
    guest_fault t node th (Interp.Segv addr);
    `Dead
  | Invalid_argument msg ->
    guest_fault ~text:("runtime error: " ^ msg) t node th (Interp.Segv 0);
    `Dead

(* A negotiation that blocked the thread inside the system-wide critical
   section parks it until the protocol completes. *)
and after_negotiation t th =
  match take_pending_block t with
  | None -> `Continue
  | Some finish ->
    set_state t th Thread.Blocked;
    Engine.schedule t.engine ~at:(max finish (Engine.now t.engine)) (fun () -> enqueue t th);
    `Left

(* A queued thread on [node] at [pc]; [None] if the iso-address area
   cannot give it a stack. *)
and spawn_at t ~node ~pc ~arg =
  Node.charge t.nodes.(node) t.config.cost.Cm.thread_create;
  let th = new_thread t ~node ~pc in
  if give_stack t th ~pc ~arg then begin
    register t th;
    enqueue t th;
    Some th
  end
  else None

and rpc t ~src ~dest ~pc ~arg =
  (* PM2's LRPC: a small request message creates a thread on the remote
     node when it lands. The descriptor exists immediately (so the caller
     can join on it); the stack slot is acquired on arrival, on the
     destination node — thread creation stays a purely local operation
     there (§4.1). *)
  let th = new_thread t ~node:dest ~pc in
  set_state t th Thread.Blocked;
  register t th;
  let request = Bytes.create 96 (* entry + argument + protocol header *) in
  let on_arrival _ =
    Node.charge t.nodes.(dest) t.config.cost.Cm.thread_create;
    if give_stack t th ~pc ~arg then enqueue t th
    else exit_thread t t.nodes.(dest) th (Thread.Faulted (Interp.Segv 0))
  in
  (* A lost request would strand the remote thread forever in Blocked;
     the reliable layer retransmits, and on give-up the thread faults so
     any joiner wakes. *)
  Reliable.send t.rel ~src ~dst:dest request ~on_delivered:on_arrival
    ~on_failed:(fun ~reason:_ ->
      exit_thread t t.nodes.(dest) th (Thread.Faulted (Interp.Segv 0)));
  th

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
      Bitset.iter_set
        (fun tid ->
          let th = thread t tid in
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

(* The scheduler's [enqueue] is the one way migration and recovery hand
   a thread back; recovery is armed before anything runs. *)
let create config program =
  let t = Cluster_state.create ~wake:enqueue ~tick config program in
  Cluster_recover.arm t;
  t

let spawn t ~node ~entry ?(arg = 0) () =
  match spawn_at t ~node ~pc:(Program.entry t.program entry) ~arg with
  | Some th -> th
  | None ->
    failwith
      ("Cluster.spawn: iso-address area exhausted: "
      ^ Slot_manager.error_to_string Slot_manager.Out_of_slots)

let request_migration t (th : Thread.t) ~dest =
  if not (valid_node t dest) then invalid_arg "Cluster.request_migration: bad destination";
  if not (Thread.is_exited th) then begin
    set_pending t th (Some dest);
    (* Make sure the node wakes up to honour it even if idle. *)
    schedule_tick t t.nodes.(th.Thread.node) ~delay:0.
  end

(* Take [ths] off [src]'s run queue in one pass, the others keeping their
   order; each comes back paired with whether it was queued. *)
let dequeue_members t ths ~src =
  let queued = Hashtbl.create 8 in
  List.iter (fun (th : Thread.t) -> Hashtbl.replace queued th.Thread.id false) ths;
  Dlist.remove_if
    (fun (x : Thread.t) ->
      Hashtbl.mem queued x.Thread.id
      && begin
        Hashtbl.replace queued x.Thread.id true;
        true
      end)
    t.nodes.(src).Node.queue;
  List.map (fun (th : Thread.t) -> (th, Hashtbl.find queued th.Thread.id)) ths

(* Validate the group and prepare its members; {!Cluster_migrate} runs
   the pipeline. *)
let migrate_group t ths ~dest =
  if ths = [] then Error "empty group"
  else if not (valid_node t dest) then Error "bad destination"
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
        let members = dequeue_members t ths ~src in
        List.iter
          (fun ((th : Thread.t), _) ->
            set_pending t th None;
            set_state t th Thread.Migrating)
          members;
        Ok (Cluster_migrate.start_group t ~src ~dest members)
      end
  end

let create_barrier t ~participants =
  if participants <= 0 then invalid_arg "Cluster.create_barrier: participants <= 0";
  let id = t.next_barrier in
  t.next_barrier <- id + 1;
  Hashtbl.replace t.barriers id { participants; arrived = 0; parked = [] };
  id

let checkpoint_now = Cluster_recover.checkpoint_now

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
  let th = new_thread t ~node ~pc:0 in
  if not (give_stack t th ~pc:0 ~arg:0) then
    failwith "Cluster.host_thread: iso-address area exhausted";
  register t th;
  th

let host_migrate = Cluster_migrate.host_migrate

let check_invariants t =
  (* Rebuild both per-node indexes from a roster scan: the residents are
     exactly the threads that have not exited, each under its own node,
     and the movable ones exactly the residents [is_movable] accepts.
     The indexes name threads by id, so the table must map each id back
     to its roster entry; and the roster is in id order. *)
  let blank = Array.map (fun s -> Bitset.create (Bitset.length s)) in
  let residents = blank t.residents and movable = blank t.movable in
  let live, _ =
    Vec.fold_left
      (fun (live, prev) (th : Thread.t) ->
        let id = th.Thread.id in
        if id <= prev then failwith "Cluster: thread roster out of id order";
        (match Hashtbl.find_opt t.threads id with
         | Some th' when th' == th -> ()
         | _ -> failwith (Printf.sprintf "Cluster: thread %d is not in the thread table" id));
        if Thread.is_exited th then (live, id)
        else begin
          index_add residents th.Thread.node id;
          if is_movable th then index_add movable th.Thread.node id;
          (live + 1, id)
        end)
      (0, -1) t.roster
  in
  if live <> t.live then
    failwith (Printf.sprintf "Cluster: %d live threads, counter says %d" live t.live);
  let compare_index what expected actual =
    Array.iteri
      (fun n scan ->
        if not (Bitset.equal scan actual.(n)) then
          failwith
            (Printf.sprintf "Cluster: node %d's %s index holds %d threads, a scan finds %d" n
               what (Bitset.count actual.(n)) (Bitset.count scan)))
      expected
  in
  compare_index "resident" residents t.residents;
  compare_index "movable" movable t.movable;
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

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
     no host) is declared lost, typed, with joiners woken.

   A restored thread re-enters a run queue through [t.wake]. *)

open Cluster_state
module Layout = Pm2_vmem.Layout
module Codec = Pm2_net.Codec
module Dlist = Pm2_util.Dlist

(* Beacon period of the failure detector, virtual µs. Detection of a dead
   node takes [dead_after] (8) silent periods at scale 1. *)
let hb_interval = 100.

(* -- checkpoints -- *)

(* Whether a sweep snapshots [th]: it is live, not in flight, not
   stranded, and it ran since its last snapshot or has none ([all]
   drops that last condition). *)
let checkpoint_due t ~all (th : Thread.t) =
  (not (Thread.is_exited th))
  && th.Thread.state <> Thread.Migrating
  && (not (Hashtbl.mem t.stranded th.Thread.id))
  && (all
      || Hashtbl.mem t.ckpt_dirty th.Thread.id
      || Option.is_none (Image_store.latest t.store ~tid:th.Thread.id))

let checkpoint_thread t (th : Thread.t) =
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
    let ranges = Migration.slot_ranges space th in
    (* Every non-zero page, by the hash [known] has just memoised; the
       store reads only the pages its pool lacks. *)
    let pages =
      map_nonzero_pages space ranges (fun a ->
          (As.page_hash space a, fun () -> As.load_bytes space a Layout.page_size))
    in
    let new_pages =
      Image_store.save t.store ~tid:th.Thread.id ~node:n ~gen:t.node_gen.(n)
        ~at:(Engine.now t.engine) ~frame ~ranges ~pages
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

let rec arm_checkpoint t =
  if checkpointing t && not t.ckpt_scheduled then begin
    t.ckpt_scheduled <- true;
    let iv = t.config.checkpoint_interval in
    (* next strictly-future multiple of the interval *)
    let next = iv *. (Float.of_int (int_of_float (Engine.now t.engine /. iv)) +. 1.) in
    Engine.schedule t.engine ~at:next (fun () -> ckpt_tick t)
  end

and ckpt_tick t =
  t.ckpt_scheduled <- false;
  Vec.iter (fun th -> if checkpoint_due t ~all:false th then checkpoint_thread t th) t.roster;
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

(* On-demand checkpoint sweep (the service tier's [checkpoint] request).
   With the periodic ticker armed this snapshots exactly what the next
   tick would (dirty or never-checkpointed threads); with checkpointing
   off there is no dirty tracking, so every live thread is snapshotted —
   the content-addressed store dedups unchanged pages either way. *)
let checkpoint_now t =
  let before = t.checkpoint_count in
  let all = not (checkpointing t) in
  Vec.iter (fun th -> if checkpoint_due t ~all th then checkpoint_thread t th) t.roster;
  t.checkpoint_count - before

(* -- restore and loss -- *)

let declare_lost t ~tid ~node ~reason =
  if Hashtbl.mem t.stranded tid then begin
    Hashtbl.remove t.stranded tid;
    let th = Hashtbl.find t.threads tid in
    (* The thread's memory is unrecoverable. Its slots leak (they sit in
       no bitmap and no live space — the documented cost of running
       without checkpoints), but the descriptor dies cleanly: joiners
       wake with the loss sentinel in r0. *)
    th.Thread.ctx.Interp.regs.(0) <- -1;
    retire t th Thread.Killed;
    forget t tid;
    Hashtbl.remove t.outbuf tid;
    t.lost <- { l_tid = tid; l_node = node; l_reason = reason } :: t.lost;
    Obs.Collector.emit t.obs ~node (Obs.Event.Thread_lost { tid; node; reason });
    release_joiners t th
  end

(* Apply checkpoint [e] to [dest]'s space and resume the thread there.
   [via] is the node serving the store image (the transfer is accounted
   as one virtual message unless the restore is local). False on an
   unappliable image, with [dest]'s space scrubbed clean. *)
let restore_thread t ~tid ~gen ~from_node ~dest ~via e =
  let dnode = t.nodes.(dest) in
  let frame = e.Image_store.e_frame in
  let scrub () = scrub dnode.Node.space e.Image_store.e_ranges in
  match
    Node.isolate dnode (fun () ->
        Migration.unpack_group ~obs:t.obs ~node:dest ~cost:t.config.cost
          ~space:dnode.Node.space
          ~restore:(fun ~tid:_ ~addr ~hash ->
            match Image_store.find_page t.store ~hash with
            | Some page -> restore_page dnode.Node.space ~addr ~hash page
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
    set_pending t th None;
    Obs.Collector.emit t.obs ~node:dest
      (Obs.Event.Thread_restore { tid; node = dest; from_node; gen });
    Engine.schedule_after t.engine ~delay (fun () -> t.wake t th);
    true

(* The threads node [n]'s crash stranded and nothing has claimed yet, as
   [(tid, generation)] in id order. *)
let stranded_on t n =
  Hashtbl.fold
    (fun tid (s : stranded) acc -> if s.s_node = n then (tid, s.s_gen) :: acc else acc)
    t.stranded []
  |> List.sort compare

(* -- failover -- *)

let rec try_failover t ~tid ~gen ~from_node e ~supervisor = function
  | [] ->
    declare_lost t ~tid ~node:from_node
      ~reason:"no surviving node can host the restored image"
  | dest :: rest ->
    (* Two-phase: probe the candidate with the checkpointed slot ranges
       over the reliable layer. Verdict and commit coincide at the
       destination because the image is served from the durable store,
       not from a crashable peer. *)
    Reliable.send t.rel ~src:supervisor ~dst:dest
      (Migration.encode
         (Migration.Probe { gid = 0; ranges = e.Image_store.e_ranges; trace = None }))
      ~on_delivered:(fun probe ->
        if Hashtbl.mem t.stranded tid then begin
          let ok =
            match Migration.decode probe with
            | Ok (Migration.Probe { ranges; _ }) ->
              List.for_all
                (fun (addr, size) ->
                  As.range_unmapped t.nodes.(dest).Node.space ~addr ~size)
                ranges
            | Ok _ | Error _ -> false
          in
          if
            not
              (ok && restore_thread t ~tid ~gen ~from_node ~dest ~via:supervisor e)
          then try_failover t ~tid ~gen ~from_node e ~supervisor rest
        end)
      ~on_failed:(fun ~reason:_ ->
        if Hashtbl.mem t.stranded tid then
          try_failover t ~tid ~gen ~from_node e ~supervisor rest)

let failover_thread t ~tid ~gen ~from_node =
  if Hashtbl.mem t.stranded tid then begin
    match Image_store.latest t.store ~tid with
    | None ->
      declare_lost t ~tid ~node:from_node
        ~reason:"node crashed with no checkpoint of the thread"
    | Some e ->
      (* Balancer-scored survivors: alive nodes, least loaded first; the
         lowest-id one supervises. *)
      let candidates =
        List.init (Array.length t.nodes) Fun.id
        |> List.filter (fun i -> i <> from_node && node_alive t i && not t.hb_dead.(i))
        |> List.sort (fun a b ->
               compare (Node.load t.nodes.(a), a) (Node.load t.nodes.(b), b))
      in
      let supervisor = List.fold_left min max_int candidates in
      try_failover t ~tid ~gen ~from_node e ~supervisor candidates
  end

(* -- heartbeats and the failure detector -- *)

let monitor t hb =
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
          List.iter
            (fun (tid, gen) -> failover_thread t ~tid ~gen ~from_node:node)
            (stranded_on t node)
        end
    end
  done

let rec arm_hb t =
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
              ~on_heard:(fun ~src ~gen:_ ->
                Heartbeat.heard hb ~node:src ~now:(Engine.now t.engine))
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

(* -- crash execution -- *)

let crash_node t ~node:n =
  let old = t.nodes.(n) in
  (* Strand every live thread whose memory lived in the dying space. *)
  let victims =
    node_threads t n
    |> Seq.filter (fun (th : Thread.t) -> not (Hashtbl.mem t.stranded th.Thread.id))
    |> List.of_seq
  in
  Obs.Collector.emit t.obs ~node:n
    (Obs.Event.Node_crash { node = n; threads = List.length victims });
  let gen = t.node_gen.(n) + 1 in
  t.node_gen.(n) <- gen;
  List.iter
    (fun (th : Thread.t) ->
      Hashtbl.replace t.stranded th.Thread.id { s_node = n; s_gen = gen };
      set_state t th Thread.Blocked;
      set_pending t th None;
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
    boot_node t.obs t.config ~geometry:t.geometry t.program ~id:n
      ~bitmap:(Slot_manager.bitmap old.Node.mgr)
  in
  arm_tick t fresh;
  t.nodes.(n) <- fresh;
  Negotiation.set_mgr t.neg ~node:n fresh.Node.mgr;
  t.delta.(n) <- empty_delta_cache t.obs t.config n;
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

let restart_node t ~node:n =
  let now = Engine.now t.engine in
  Obs.Collector.emit t.obs ~node:n (Obs.Event.Node_restart { node = n });
  t.hb_suspected.(n) <- false;
  t.hb_dead.(n) <- false;
  (match t.hb with Some hb -> Heartbeat.reset hb ~node:n ~now | None -> ());
  (* Cold start: any thread of this node not already failed over restores
     from its checkpoint right here — the rebuilt space is empty, so its
     iso addresses are free by construction. *)
  List.iter
    (fun (tid, gen) ->
      match Image_store.latest t.store ~tid with
      | None -> declare_lost t ~tid ~node:n ~reason:"no checkpoint to cold-start from"
      | Some e ->
        if not (restore_thread t ~tid ~gen ~from_node:n ~dest:n ~via:n e) then
          declare_lost t ~tid ~node:n ~reason:"cold start failed to apply the image")
    (stranded_on t n)

(* Crash events and the failure detector reach the scheduler, so the
   quiescent cluster is built first and this arms recovery before
   anything runs. With no crashes in the plan and checkpointing off, this
   schedules nothing and arms nothing: byte-identical default. *)
let arm t =
  let crashes = (Fault.Plan.spec t.config.faults).Fault.Plan.crashes in
  if Fault.Plan.enabled t.config.faults && crashes <> [] then begin
    let hb =
      Heartbeat.create ~nodes:(Array.length t.nodes) ~interval:hb_interval
        ~now:(Engine.now t.engine) ()
    in
    t.hb <- Some hb;
    List.iter
      (fun (k : Fault.Plan.kill) ->
        on_outage t.engine ~nodes:(Array.length t.nodes) k
          ~down:(fun () -> crash_node t ~node:k.victim)
          ~up:(fun () -> restart_node t ~node:k.victim))
      crashes;
    arm_hb t
  end;
  if checkpointing t then arm_checkpoint t

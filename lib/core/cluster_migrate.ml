(* Migration: the paper's direct hop, its synchronous host-mode twin, and
   the group pipeline with its RDLT/RFUL delta fallback. A thread handed
   back to a run queue goes through [t.wake]. *)

open Cluster_state
module Codec = Pm2_net.Codec

(* What the direct hop carries: an iso thread's pages, which change
   owner without a copy, or a relocating thread's wire image. *)
type cargo =
  | Pages of Migration.moved
  | Image of Bytes.t

(* Wire bytes of [cargo]: the image [Migration.pack] would build, for
   moved pages. *)
let cargo_bytes = function
  | Pages m -> m.Migration.m_bytes
  | Image b -> Bytes.length b

(* Take [th] out of [node]'s space under the configured scheme: the
   cargo, its pack cost and slot count, paired with what the heap and
   slot manager charged along the way (taken back out of [node]'s
   accumulator). Raises [Relocation.Error] when the relocating scheme
   cannot pack the thread. *)
let pack_on t node th =
  Node.isolate node (fun () ->
      match t.config.scheme with
      | Iso ->
        let m =
          Migration.move_out ~obs:t.obs ~node:node.Node.id ~cost:t.config.cost
            ~space:node.Node.space ~packing:t.config.packing th
        in
        (Pages m, m.Migration.m_pack_cost, m.Migration.m_slots)
      | Relocating ->
        let p =
          Relocation.pack ~geometry:t.geometry ~cost:t.config.cost
            ~space:node.Node.space ~mgr:node.Node.mgr th
        in
        (Image p.Relocation.buffer, p.Relocation.pack_cost, 1))

(* Install [th]'s cargo in [node]'s space: the unpack cost, paired with
   what the heap and slot manager charged along the way (taken back out
   of [node]'s accumulator). *)
let unpack_on t node th cargo =
  Node.isolate node (fun () ->
      match cargo with
      | Pages m ->
        Migration.move_in ~obs:t.obs ~node:node.Node.id ~cost:t.config.cost
          ~space:node.Node.space th m
      | Image b ->
        Relocation.unpack ~geometry:t.geometry ~cost:t.config.cost
          ~space:node.Node.space ~mgr:node.Node.mgr th b)

(* Restore a [Cached] page of [tid] at [addr] into [space] from
   [cache]'s residual image. *)
let restore_cached cache space ~tid ~addr ~hash =
  match Delta_cache.lookup_page cache ~tid ~addr with
  | Some page -> restore_page space ~addr ~hash page
  | None -> false

(* Close [span] now. *)
let finish t ?note span = Obs.Span.finish t.tracer ~at:(Engine.now t.engine) ?note span

(* A span note is formatted only if its span is live: [Obs.Span.finish]
   drops the note of {!Obs.Span.none}. *)
let size_note span ~bytes ~slots =
  if Obs.Span.is_none span then "" else Printf.sprintf "bytes=%d slots=%d" bytes slots

(* A landed migration resumes at [at]: close its unpack span with
   [note], a zero-length commit span under it, and the root [span]. *)
let finish_commit t ~at ~node ~note unpack_span span =
  Obs.Span.finish t.tracer ~at ~note unpack_span;
  Obs.Span.finish t.tracer ~at
    (Obs.Span.child t.tracer ~at ~node ~parent:unpack_span Obs.Event.Commit);
  Obs.Span.finish t.tracer ~at ~note:"commit" span

let migration_phase t ~tid ~bytes ~slots ~time ~node phase dur =
  if Obs.Collector.enabled t.obs then
    Obs.Collector.emit_at t.obs ~time ~node
      (Obs.Event.Migration_phase { tid; phase; bytes; slots; dur })

let group_phase t ~gid ~members ~bytes ~slots ~node phase dur =
  if Obs.Collector.enabled t.obs then
    Obs.Collector.emit t.obs ~node
      (Obs.Event.Group_migration_phase { gid; phase; members; bytes; slots; dur })

(* The source crashed while the image was in flight: the threads left
   the [Migrating] state (stranded, already restored elsewhere, or
   declared lost) and belong to the recovery supervisor, so at-most-once
   demands the late delivery be abandoned, not committed. Nothing
   resumes here, so no thread counts in [aborted_migrations] or reaches
   the abort hook; a [group] [(gid, src, dst)] counts once in
   [aborted_groups]. *)
let abandon t ?group ~span note =
  Option.iter
    (fun (gid, src, dst) ->
      t.aborted_groups <- t.aborted_groups + 1;
      if Obs.Collector.enabled t.obs then
        Obs.Collector.emit t.obs ~node:dst
          (Obs.Event.Group_migration_abort { gid; src; dst; reason = note }))
    group;
  finish t ~note:("abandoned: " ^ note) span

(* ===== the direct hop ===== *)

let deliver t (th : Thread.t) ~src ~dest ~started ~slots ~span cargo =
  if th.Thread.state <> Thread.Migrating then abandon t ~span "source crashed mid-flight"
  else begin
    let dnode = t.nodes.(dest) in
    let arrived = Engine.now t.engine in
    let unpack_cost, extra = unpack_on t dnode th cargo in
    let resume_delay = unpack_cost +. extra in
    Node.charge dnode resume_delay;
    move_thread t th ~dest;
    let bytes = cargo_bytes cargo in
    let phase = migration_phase t ~tid:th.Thread.id ~bytes ~slots ~node:dest in
    let unpack_span =
      Obs.Span.child t.tracer ~at:arrived ~node:dest ~parent:span Obs.Event.Unpack
    in
    phase ~time:arrived Obs.Event.Remap resume_delay;
    Engine.schedule_after t.engine ~delay:resume_delay (fun () ->
        let resumed = Engine.now t.engine in
        phase ~time:resumed Obs.Event.Restart 0.;
        finish_commit t ~at:resumed ~node:dest
          ~note:(size_note unpack_span ~bytes ~slots)
          unpack_span span;
        Vec.push t.migrations
          { tid = th.Thread.id; src; dst = dest; started; resumed; bytes };
        t.wake t th)
  end

(* [th]'s direct hop failed for [reason]: say so, close its root [span]
   and let it run on where it is. *)
let stay_home t (th : Thread.t) ~span ~reason =
  Trace.emit t.trace ~time:(Engine.now t.engine) ~node:th.Thread.node
    (Printf.sprintf "migration of thread %x aborted: %s" (handle_of_tid th.Thread.id) reason);
  finish t ~note:("abort: " ^ reason) span;
  t.wake t th

(* The image never reached [dest]: the source unpacks it back into its
   own space and resumes the thread there, one aborted migration offered
   to the abort hook. A thread that left [Migrating] meanwhile belongs to
   the recovery supervisor and is abandoned instead. *)
let take_back t (th : Thread.t) ~dest ~span cargo ~reason =
  if th.Thread.state <> Thread.Migrating then abandon t ~span "source crashed mid-flight"
  else begin
    let node = t.nodes.(th.Thread.node) in
    let unpack_cost, extra = unpack_on t node th cargo in
    Node.charge node (unpack_cost +. extra);
    stay_home t th ~span ~reason;
    t.aborted_migrations <- t.aborted_migrations + 1;
    Option.iter (fun retry -> retry th ~failed:dest) t.on_migration_abort
  end

let start_direct t node (th : Thread.t) ~dest =
  set_state t th Thread.Migrating;
  let started = Engine.now t.engine in
  let src = node.Node.id in
  let root = Obs.Span.root t.tracer ~at:started ~node:src Obs.Event.Migration in
  (* Fold slot-manager charges raised during packing into the latency. *)
  match pack_on t node th with
  | exception Relocation.Error { reason = msg; _ } ->
    (* The legacy scheme cannot pack this thread (e.g. it holds dynamic
       data slots): abort the migration and let the thread keep running
       where it is — precisely the limitation isomalloc removes. *)
    stay_home t th ~span:root ~reason:msg
  | (cargo, pack_cost, slots), extra ->
    let pack_total = pack_cost +. extra in
    Node.charge node pack_total;
    let bytes = cargo_bytes cargo in
    let phase = migration_phase t ~tid:th.Thread.id ~bytes ~slots ~node:src in
    phase ~time:started Obs.Event.Pack pack_total;
    let pack_span = Obs.Span.child t.tracer ~at:started ~node:src ~parent:root Obs.Event.Pack in
    Engine.schedule_after t.engine ~delay:pack_total (fun () ->
        let now = Engine.now t.engine in
        Obs.Span.finish t.tracer ~at:now
          ~note:(size_note pack_span ~bytes ~slots)
          pack_span;
        phase ~time:now Obs.Event.Send (Network.transfer_time t.net ~bytes);
        let train_span =
          Obs.Span.child t.tracer ~at:now ~node:src ~parent:root Obs.Event.Train
        in
        let landed cargo =
          finish t train_span;
          deliver t th ~src ~dest ~started ~slots ~span:root cargo
        in
        (* Moved pages carry only their modelled size through the network;
           the direct hop never runs them under a live fault plan ([start]
           sends those through the group pipeline). A relocating image
           rides {!Reliable}, a plain send when the plan is off. *)
        match cargo with
        | Pages m ->
          Network.send_sized t.net ~src ~dst:dest ~bytes:m.Migration.m_bytes (fun () ->
              landed cargo)
        | Image b ->
          Reliable.send t.rel ~src ~dst:dest b
            ~on_delivered:(fun b -> landed (Image b))
            ~on_failed:(fun ~reason ->
              finish t ~note:reason train_span;
              take_back t th ~dest ~span:root cargo ~reason))

let host_migrate t (th : Thread.t) ~dest =
  if not (valid_node t dest) then invalid_arg "Cluster.host_migrate: bad destination";
  let src = th.Thread.node in
  if src <> dest then begin
    let snode = t.nodes.(src) and dnode = t.nodes.(dest) in
    let started = Engine.now t.engine in
    let (cargo, pack_cost, slots), extra = pack_on t snode th in
    let pack_total = pack_cost +. extra in
    Node.charge snode pack_total;
    let bytes = cargo_bytes cargo in
    Network.record_virtual t.net ~src ~dst:dest ~bytes;
    let unpack_cost, extra = unpack_on t dnode th cargo in
    let unpack_total = unpack_cost +. extra in
    Node.charge dnode unpack_total;
    move_thread t th ~dest;
    let transfer = Network.transfer_time t.net ~bytes in
    let latency = pack_total +. transfer +. unpack_total in
    (* Host-mode migration is synchronous against the simulator; the four
       phases are stamped at the virtual instants they model. *)
    let phase = migration_phase t ~tid:th.Thread.id ~bytes ~slots in
    phase ~time:started ~node:src Obs.Event.Pack pack_total;
    phase ~time:(started +. pack_total) ~node:src Obs.Event.Send transfer;
    phase ~time:(started +. pack_total +. transfer) ~node:dest Obs.Event.Remap unpack_total;
    phase ~time:(started +. latency) ~node:dest Obs.Event.Restart 0.;
    (* Same instants, as spans. *)
    let root = Obs.Span.root t.tracer ~at:started ~node:src Obs.Event.Migration in
    let pack_span =
      Obs.Span.child t.tracer ~at:started ~node:src ~parent:root Obs.Event.Pack
    in
    Obs.Span.finish t.tracer ~at:(started +. pack_total)
      ~note:(size_note pack_span ~bytes ~slots)
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

(* ===== group migration: one handshake, one train, N threads =====

   The pipeline always runs the two-phase protocol (one probe/verdict
   covering every member) and ships one {!Migration.pack_group} image in
   one reliable packet train — v2 normally, v3 when delta migration is
   on. Any failure at any stage rolls the WHOLE group back: either
   nothing was packed yet (pre-pack abort) or the image is remapped into
   the source space and every member resumes where it started — no
   partially migrated group can exist. A lone iso thread migrating with
   delta on or under a live fault plan is a group of one here. *)

(* [members] is [(thread, was_on_run_queue)]: threads taken off a run
   queue (or preempted mid-quantum) are re-enqueued on arrival (or on
   rollback); host-driven threads just become Ready again. Each resumes
   on the node it is filed at: the source until the group commits, the
   destination from the moment it unpacks there. *)
let group_release t members =
  List.iter
    (fun ((th : Thread.t), was_queued) ->
      if th.Thread.state = Thread.Migrating then
        if was_queued then t.wake t th else set_state t th Thread.Ready)
    members

(* True iff the group's source node crashed while the group was in flight
   (members of one group always share a source, so the crash interrupts
   all of them at once). A crashed-out member leaves the [Migrating]
   state and never returns to it — stranding parks it in [Blocked], a
   checkpoint restore re-dispatches it, losing it exits it — so "some
   member is no longer [Migrating]" is exactly "this group's pipeline
   lost ownership". The rollback/commit continuations abandon such
   groups: the recovery supervisor owns the members now. *)
let group_interrupted members =
  List.exists
    (fun ((th : Thread.t), _) -> th.Thread.state <> Thread.Migrating)
    members

let group_abort t ~gid ~src ~dest ~span members ~reason =
  t.aborted_groups <- t.aborted_groups + 1;
  Trace.emit t.trace ~time:(Engine.now t.engine) ~node:src
    (Printf.sprintf "group migration %d to node %d aborted: %s" gid dest reason);
  if Obs.Collector.enabled t.obs then
    Obs.Collector.emit t.obs ~node:src
      (Obs.Event.Group_migration_abort { gid; src; dst = dest; reason });
  finish t ~note:("abort: " ^ reason) span;
  (* Only members still [Migrating] resume here; any other belongs to the
     recovery supervisor. Each resumed member counts as one aborted
     migration and is offered to the abort hook, whatever the group size. *)
  let resumed =
    List.filter (fun ((th : Thread.t), _) -> th.Thread.state = Thread.Migrating) members
  in
  group_release t resumed;
  List.iter
    (fun ((th : Thread.t), _) ->
      t.aborted_migrations <- t.aborted_migrations + 1;
      match t.on_migration_abort with
      | Some retry -> retry th ~failed:dest
      | None -> ())
    resumed

let group_rollback t ~gid ~src ~dest ~image ~slots ~span members ~reason =
  if group_interrupted members then
    (* No node to roll back onto: the source's space was rebuilt empty by
       the crash. Abort without touching memory; [group_release] inside
       skips every member the pipeline no longer owns. *)
    group_abort t ~gid ~src ~dest ~span members ~reason:(reason ^ " (source crashed)")
  else begin
    let rb_span =
      Obs.Span.child t.tracer ~at:(Engine.now t.engine) ~node:src ~parent:span
        Obs.Event.Rollback
    in
    (* The group's memory exists only in [image]; remap every member into
       the source's own space — iso-addressing guarantees the addresses are
       still free there — then abort. One atomic step: unpack_group either
       applies every member or raises before any queue state changed.
       A v3 image's [Cached] pages restore from the source's own pinned
       residual image, whose hashes were computed from these very pages at
       pack time — a restore failure here is a simulation bug, not a
       recoverable condition. *)
    let node = t.nodes.(src) in
    let scache = t.delta.(src) in
    let buffer, pos, len = image in
    let u, extra =
      Node.isolate node (fun () ->
          Migration.unpack_group ~obs:t.obs ~node:src ~cost:t.config.cost
            ~space:node.Node.space
            ~restore:(restore_cached scache node.Node.space)
            ~lookup:(fun tid -> Hashtbl.find t.threads tid)
            ~pos ~len buffer)
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
    finish t ~note:reason rb_span;
    group_abort t ~gid ~src ~dest ~span members ~reason
  end

(* [image] is the group's codec frame as a [(data, pos, len)] view into
   the train message it arrived in. *)
let group_deliver t ~gid ~src ~dest ~started ~ranges ~slots ~pages ~span members image =
  (* A crash mid-migration hands the members to the checkpoint supervisor:
     committing the late image would race its restore. *)
  let group = (gid, src, dest) in
  if group_interrupted members then abandon t ~group ~span "source crashed mid-flight"
  else
    let dnode = t.nodes.(dest) in
    let arrived = Engine.now t.engine in
    let dcache = t.delta.(dest) in
    let buffer, pos, len = image in
    match
      Node.isolate dnode (fun () ->
          Migration.unpack_group ~obs:t.obs ~node:dest
            ~restore:(restore_cached dcache dnode.Node.space) ~cost:t.config.cost
            ~space:dnode.Node.space
            ~lookup:(fun tid -> Hashtbl.find t.threads tid)
            ~pos ~len buffer)
    with
    | exception (Invalid_argument _ | Failure _ | Not_found | As.Segfault _) ->
      (* The destination could not apply the image (a collision appeared
         after the probe, or the image is inconsistent): scrub whatever was
         partially mapped and hand the whole group back. *)
      scrub dnode.Node.space ranges;
      group_rollback t ~gid ~src ~dest ~image ~slots ~span members
        ~reason:"destination failed to unpack the group image"
    | u, extra ->
      (* The frame's trace context (stamped by [pack_group]) parents this
         destination-side span under the source's root span — the cross-node
         edge the Chrome exporter renders as a flow arrow. *)
      let unpack_span =
        Obs.Span.remote t.tracer ~at:arrived ~node:dest ~ctx:u.Migration.u_trace
          Obs.Event.Unpack
      in
      let commit () =
        (* The source may have crashed during the fallback round-trips. *)
        if group_interrupted members then abandon t ~group ~span "source crashed before commit"
        else begin
          (* Reconstruction is complete: settle the caches on both ends. The
             destination's own residual for each member is superseded by
             fresh knowledge of what the source now retains; the source's
             pinned images become evictable migrate-out residuals. *)
          if delta_enabled t then begin
            List.iter
              (fun (tid, slot_ranges) ->
                Delta_cache.drop_image dcache ~tid;
                let dspace = dnode.Node.space in
                Delta_cache.record_knowledge dcache ~tid ~peer:src
                  (map_nonzero_pages dspace slot_ranges (fun a -> (a, As.page_hash dspace a))))
              u.Migration.u_ranges;
            List.iter
              (fun ((th : Thread.t), _) -> Delta_cache.unpin t.delta.(src) ~tid:th.Thread.id)
              members
          end;
          let resume_delay = u.Migration.u_cost +. extra in
          Node.charge dnode resume_delay;
          (* The members' memory now lives at [dest]: file them there
             before the resume delay, as the direct hop does, so a crash
             of [dest] meanwhile strands them with it. *)
          List.iter (fun ((th : Thread.t), _) -> move_thread t th ~dest) members;
          let bytes = len in
          let n = List.length members in
          let data_pages, zero_pages, cached_pages = pages in
          let phase = group_phase t ~gid ~members:n ~bytes ~slots ~node:dest in
          phase Obs.Event.Remap resume_delay;
          Engine.schedule_after t.engine ~delay:resume_delay (fun () ->
              let resumed = Engine.now t.engine in
              phase Obs.Event.Restart 0.;
              if Obs.Collector.enabled t.obs then
                Obs.Collector.emit t.obs ~node:dest
                  (Obs.Event.Group_migration_commit { gid; dst = dest; members = n; bytes });
              finish_commit t ~at:resumed ~node:dest
                ~note:
                  (if Obs.Span.is_none unpack_span then ""
                   else Printf.sprintf "members=%d bytes=%d" n bytes)
                unpack_span span;
              (* Per-member records carry an even share of the train so the
                 per-thread latency helpers keep working; the group record
                 holds the exact totals. *)
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
              group_release t members)
        end
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
           finish t ~note:reason refetch_span;
           finish t ~note:"rolled back" unpack_span;
           scrub dnode.Node.space ranges;
           group_rollback t ~gid ~src ~dest ~image ~slots ~span members ~reason
         in
         let expected = Hashtbl.create (List.length missing) in
         List.iter (fun (tid, addr, hash) -> Hashtbl.replace expected (tid, addr) hash) missing;
         Reliable.send t.rel ~src:dest ~dst:src
           (Migration.encode (Migration.Delta_request { gid; pages = missing }))
           ~on_delivered:(fun req ->
             match Migration.decode req with
             | Ok (Migration.Delta_request { pages; _ }) ->
               let scache = t.delta.(src) in
               (* The pinned pages themselves: [encode] copies them. *)
               let served =
                 List.filter_map
                   (fun (tid, addr, _hash) ->
                     Option.map
                       (fun page -> (tid, addr, page))
                       (Delta_cache.lookup_page scache ~tid ~addr))
                   pages
               in
               if List.length served <> List.length pages then
                 fail "source lost its pinned residual image"
               else
                 Reliable.send t.rel ~src ~dst:dest
                   (Migration.encode (Migration.Delta_full { gid; pages = served }))
                   ~on_delivered:(fun full ->
                     match Migration.decode full with
                     | Ok (Migration.Delta_full { pages; _ }) ->
                       let ok =
                         List.for_all
                           (fun (tid, addr, page) ->
                             match Hashtbl.find_opt expected (tid, addr) with
                             | Some hash -> restore_page dnode.Node.space ~addr ~hash page
                             | None -> false)
                           pages
                       in
                       if ok then begin
                         if not (Obs.Span.is_none refetch_span) then
                           finish t
                             ~note:(Printf.sprintf "pages=%d" (List.length pages))
                             refetch_span;
                         commit ()
                       end
                       else fail "delta fallback page failed its hash check"
                     | Ok _ -> fail "malformed delta full message"
                     | Error reason -> fail reason)
                   ~on_failed:(fun ~reason -> fail ("delta full undeliverable: " ^ reason))
             | Ok _ | Error _ -> fail "malformed delta request")
           ~on_failed:(fun ~reason -> fail ("delta request undeliverable: " ^ reason)))

let group_transfer t ~gid ~src ~dest ~started ~ranges ~span members =
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
  let sent = (buffer, 0, bytes) in
  let slots = p.Migration.g_slots in
  let pages = (p.Migration.g_data_pages, p.Migration.g_zero_pages, p.Migration.g_cached_pages) in
  let phase = group_phase t ~gid ~members:(List.length members) ~bytes ~slots ~node:src in
  phase Obs.Event.Pack pack_total;
  Engine.schedule_after t.engine ~delay:pack_total (fun () ->
      finish t ~note:(size_note pack_span ~bytes ~slots) pack_span;
      phase Obs.Event.Send (Network.transfer_time t.net ~bytes);
      let train_span =
        Obs.Span.child t.tracer ~at:(Engine.now t.engine) ~node:src ~parent:span
          Obs.Event.Train
      in
      (* The train context rides every fragment: {!Reliable} closes a
         destination-side [Train] span at assembly, parented here. *)
      Reliable.send_train ?trace:(Obs.Span.ctx train_span) t.rel ~src ~dst:dest
        (Migration.encode (Migration.Transfer { gid; ranges; image = sent }))
        ~on_delivered:(fun msg ->
          finish t train_span;
          match Migration.decode msg with
          | Ok (Migration.Transfer { ranges; image; _ }) ->
            group_deliver t ~gid ~src ~dest ~started ~ranges ~slots ~pages ~span members
              image
          | Ok _ ->
            group_rollback t ~gid ~src ~dest ~image:sent ~slots ~span members
              ~reason:"malformed group transfer message"
          | Error reason ->
            group_rollback t ~gid ~src ~dest ~image:sent ~slots ~span members ~reason)
        ~on_failed:(fun ~reason ->
          finish t ~note:reason train_span;
          group_rollback t ~gid ~src ~dest ~image:sent ~slots ~span members ~reason))

let start_group t ~src ~dest members =
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
    (Migration.encode (Migration.Probe { gid; ranges; trace = Obs.Span.ctx neg }))
    ~on_delivered:(fun probe ->
      match Migration.decode probe with
      | Ok (Migration.Probe { ranges; trace = p_trace; _ }) ->
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
        finish t ~note:(if ok then "accept" else "reject") probe_span;
        Reliable.send t.rel ~src:dest ~dst:src
          (Migration.encode (Migration.Verdict { gid; ok; reason }))
          ~on_delivered:(fun verdict ->
            finish t neg;
            match Migration.decode verdict with
            | Ok (Migration.Verdict { ok = true; _ }) ->
              group_transfer t ~gid ~src ~dest ~started ~ranges ~span:root members
            | Ok (Migration.Verdict { reason; _ }) ->
              group_abort t ~gid ~src ~dest ~span:root members
                ~reason:("rejected: " ^ reason)
            | Ok _ | Error _ ->
              group_abort t ~gid ~src ~dest ~span:root members
                ~reason:"malformed verdict")
          ~on_failed:(fun ~reason ->
            finish t neg;
            group_abort t ~gid ~src ~dest ~span:root members
              ~reason:("verdict undeliverable: " ^ reason))
      | Ok _ | Error _ ->
        finish t neg;
        group_abort t ~gid ~src ~dest ~span:root members ~reason:"malformed probe")
    ~on_failed:(fun ~reason ->
      finish t neg;
      group_abort t ~gid ~src ~dest ~span:root members
        ~reason:("probe undeliverable: " ^ reason));
  gid

(* Two paths only. An iso migration that needs more than the paper's
   fault-free hop — the delta codec and residual cache, or failure
   hardening under a live fault plan — rides the group pipeline as a
   group of one: its probe/verdict handshake checks the destination can
   map every slot before the source unmaps anything, every message goes
   through the retransmitting layer, and any failure rolls the thread
   back home. Everything else takes the direct hop that carries the
   paper's calibrated numbers. *)
let start t node (th : Thread.t) ~dest =
  if t.config.scheme = Iso && (delta_enabled t || Fault.Plan.enabled t.config.faults)
  then begin
    set_pending t th None;
    set_state t th Thread.Migrating;
    (* was_queued = true: the thread was running, so it must re-enter a
       run queue on arrival (or on rollback). *)
    ignore (start_group t ~src:node.Node.id ~dest [ (th, true) ])
  end
  else start_direct t node th ~dest

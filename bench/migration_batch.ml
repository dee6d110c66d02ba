(* Group migration vs one-at-a-time: the batched pipeline's headline
   numbers. Eight host threads on node 0 each carry a sparsely written
   32 KB isomalloc'd block (one word per four pages), the shape of a
   deep-but-mostly-untouched stack. Moving them individually ships one
   v1 image per thread; [Cluster.migrate_group] ships one v2 train whose
   per-slot manifest elides every all-zero page. We record total wire
   bytes and the virtual time until every member is runnable on the
   destination, then sever the link while the train is in flight to show
   the whole group rolls back atomically. *)

open Pm2_core
module Table = Pm2_support.Table
module As = Pm2_vmem.Address_space
module Plan = Pm2_fault.Plan

let group_size = 8
let payload = 32 * 1024
let page = Pm2_vmem.Layout.page_size

(* Deterministic sparse fill: the word at the head of every fourth page. *)
let fill_word i p = 0x5eed + (i * 1000) + p

let populated ?fault_plan () =
  let c = Harness.cluster ~nodes:2 ?fault_plan () in
  let env = Cluster.host_env c 0 in
  let space = Cluster.node_space c 0 in
  let ths =
    List.init group_size (fun i ->
        let th = Cluster.host_thread c ~node:0 in
        match Iso_heap.isomalloc env th payload with
        | None -> failwith "migration_batch: iso-address area exhausted"
        | Some addr ->
          for p = 0 to (payload / page) - 1 do
            if p mod 4 = 0 then As.store_word space (addr + (p * page)) (fill_word i p)
          done;
          (th, addr))
  in
  ignore (Cluster.drain_charges c 0);
  (c, ths)

(* Baseline: the same eight threads, eight v1 images, eight transfers.
   [host_migrate] is synchronous, so total virtual time is the sum of
   the per-thread latencies — exactly what a sequential driver pays. *)
let sequential () =
  let c, ths = populated () in
  let wire0 = Pm2_net.Network.bytes_sent (Cluster.network c) in
  List.iter (fun (th, _) -> Cluster.host_migrate c th ~dest:1) ths;
  let wire = Pm2_net.Network.bytes_sent (Cluster.network c) - wire0 in
  let vtime =
    List.fold_left
      (fun acc m -> acc +. (m.Cluster.resumed -. m.Cluster.started))
      0. (Cluster.migrations c)
  in
  Cluster.check_invariants c;
  (wire, vtime)

(* One group: one handshake, one v2 train. Returns the wire bytes, the
   group record, and the virtual instant the train went on the wire (the
   rollback run severs the link just before that point). *)
let grouped () =
  let c, ths = populated () in
  let send_at = ref nan in
  Pm2_obs.Collector.attach (Cluster.obs c)
    (Pm2_obs.Sink.make ~name:"batch-send-probe" (fun ~time ~node:_ ev ->
         match ev with
         | Pm2_obs.Event.Group_migration_phase { phase = Pm2_obs.Event.Send; _ } ->
           if Float.is_nan !send_at then send_at := time
         | _ -> ()));
  let wire0 = Pm2_net.Network.bytes_sent (Cluster.network c) in
  (match Cluster.migrate_group c (List.map fst ths) ~dest:1 with
   | Ok _ -> ()
   | Error e -> failwith ("migration_batch: " ^ e));
  ignore (Cluster.run c);
  let wire = Pm2_net.Network.bytes_sent (Cluster.network c) - wire0 in
  let g =
    match Cluster.group_migrations c with
    | [ g ] -> g
    | l -> failwith (Printf.sprintf "migration_batch: %d group records" (List.length l))
  in
  List.iter
    (fun ((th : Thread.t), _) ->
       if th.Thread.node <> 1 then failwith "migration_batch: member left behind")
    ths;
  Cluster.check_invariants c;
  (wire, g, !send_at)

(* The atomicity proof: cut the 0<->1 link just before the train frames
   leave (the probe/verdict handshake is already done by then), so every
   frame and every retransmit is dropped. The reliable layer gives up
   and the whole group must be back on node 0 — same node, Ready state,
   payload words intact — with nothing partially migrated. *)
let rollback ~send_at =
  let spec_s = Printf.sprintf "part=0-1@%.1f-1e12" (send_at -. 0.1) in
  let spec =
    match Plan.spec_of_string spec_s with
    | Ok s -> s
    | Error e -> failwith ("migration_batch: bad spec: " ^ e)
  in
  let c, ths = populated ~fault_plan:(Plan.create ~seed:7 spec) () in
  (match Cluster.migrate_group c (List.map fst ths) ~dest:1 with
   | Ok _ -> ()
   | Error e -> failwith ("migration_batch: " ^ e));
  ignore (Cluster.run c);
  let space = Cluster.node_space c 0 in
  let intact = ref true in
  List.iteri
    (fun i ((th : Thread.t), addr) ->
       if th.Thread.node <> 0 || th.Thread.state <> Thread.Ready then intact := false;
       for p = 0 to (payload / page) - 1 do
         if p mod 4 = 0 && As.load_word space (addr + (p * page)) <> fill_word i p then
           intact := false
       done)
    ths;
  Cluster.check_invariants c;
  let aborted = Cluster.aborted_groups c in
  let completed = List.length (Cluster.group_migrations c) in
  let partial = List.length (Cluster.migrations c) in
  (spec_s, aborted, completed, partial, !intact)

let run () =
  Harness.section
    (Printf.sprintf "T3: group migration (one train) vs %d sequential v1 images"
       group_size);
  let seq_wire, seq_vt = sequential () in
  let grp_wire, g, send_at = grouped () in
  let grp_vt = g.Cluster.g_resumed -. g.Cluster.g_started in
  let reduction = 1. -. (float_of_int grp_wire /. float_of_int seq_wire) in
  let speedup = seq_vt /. grp_vt in
  let t = Table.create [ "pipeline"; "wire bytes"; "virtual time (us)" ] in
  Table.add_rowf t "%d x sequential (v1)|%d|%.1f" group_size seq_wire seq_vt;
  Table.add_rowf t "1 group train (v2)|%d|%.1f" grp_wire grp_vt;
  Table.add_rowf t "reduction / speedup|%.0f%%|%.2fx" (reduction *. 100.) speedup;
  Table.print t;
  Harness.note "v2 manifest: %d data pages shipped, %d zero pages elided"
    g.Cluster.g_data_pages g.Cluster.g_zero_pages;
  Harness.note "one negotiation and one probe/verdict handshake cover all %d members"
    group_size;
  if reduction < 0.30 then
    Harness.note "WARNING: wire-byte reduction below the 30%% acceptance bar!";
  if speedup <= 1.0 then Harness.note "WARNING: group migration slower than sequential!";
  Report.record ~suite:"migration-batch" ~name:"group-vs-sequential"
    ~params:
      [
        ("threads", string_of_int group_size);
        ("payload", string_of_int payload);
        ("nodes", "2");
      ]
    [
      ("wire_bytes_sequential", float_of_int seq_wire);
      ("wire_bytes_group", float_of_int grp_wire);
      ("byte_reduction", reduction);
      ("vtime_sequential_us", seq_vt);
      ("vtime_group_us", grp_vt);
      ("speedup", speedup);
      ("data_pages", float_of_int g.Cluster.g_data_pages);
      ("zero_pages", float_of_int g.Cluster.g_zero_pages);
    ];
  let spec_s, aborted, completed, partial, intact = rollback ~send_at in
  let t = Table.create [ "train-drop sweep"; "value" ] in
  Table.add_rowf t "fault spec|%s" spec_s;
  Table.add_rowf t "groups aborted|%d" aborted;
  Table.add_rowf t "groups completed|%d" completed;
  Table.add_rowf t "partially migrated threads|%d" partial;
  Table.add_rowf t "members back on node 0, payload intact|%s"
    (if intact then "yes" else "NO");
  Table.print t;
  Report.record ~suite:"migration-batch" ~name:"train-drop-rollback"
    ~params:[ ("fault", spec_s); ("threads", string_of_int group_size) ]
    [
      ("groups_aborted", float_of_int aborted);
      ("groups_completed", float_of_int completed);
      ("partial_migrations", float_of_int partial);
      ("payload_intact", if intact then 1. else 0.);
    ];
  if aborted <> 1 || completed <> 0 || partial <> 0 || not intact then
    failwith "migration_batch: dropped train did not roll back atomically";
  Harness.note "the dropped train rolled the whole group back; no thread moved"

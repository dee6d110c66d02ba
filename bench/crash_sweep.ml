(* Crash-recovery sweep: the checkpoint/failover machinery driven through
   the failure modes that matter — a crash between checkpoints, a crash
   while the victim's thread is in migration flight, a double crash on a
   balanced three-node run, and a crash with checkpointing off (graceful
   degradation to typed losses). Each recovered scenario must reproduce
   the fault-free guest output exactly once; the dedup scenario holds the
   steady-state checkpoint bytes to the 25% bar. The retransmission
   budget is lowered via the config knob so sessions addressed to a dead
   node give up in bounded time instead of dominating the makespan. *)

open Pm2_core
module Plan = Pm2_fault.Plan
module Table = Pm2_support.Table
module Image_store = Pm2_recover.Image_store

let seed = 1

(* 6 attempts with the default backoff still rides out transient loss,
   but a session whose peer crashed resolves ~20x sooner than the
   historic 12-attempt budget. *)
let attempts = 6

let spec s =
  match Plan.spec_of_string s with
  | Ok sp -> sp
  | Error e -> failwith ("crash_sweep: bad spec: " ^ e)

(* "[node0] Element 3 = 7" -> "Element 3 = 7": a restored thread
   genuinely lives on another node afterwards. *)
let strip line =
  match String.index_opt line ']' with
  | Some i when String.length line > i + 2 && line.[0] = '[' ->
    String.sub line (i + 2) (String.length line - i - 2)
  | _ -> line

(* Drop the lines that legitimately observe placement or the migration
   protocol (Sys_node prints, abort notices — a lone thread's abort is
   reported as a group of one's): everything else must be reproduced
   exactly once. *)
let node_free l =
  not
    (List.exists
       (fun p ->
         String.length l >= String.length p && String.sub l 0 (String.length p) = p)
       [ "Initializing"; "Arrived"; "migration"; "group migration" ])

let guest_lines c =
  List.filter node_free (List.map strip (Pm2_sim.Trace.lines (Cluster.trace c)))

let run_case ?(nodes = 2) ?(interval = 0.) ?faults ?(spawns = [ (0, "fig7", 80) ])
    ?(balance = false) ?sinks () =
  let fault_plan = Option.map (fun s -> Plan.create ~seed (spec s)) faults in
  let config =
    Pm2.Config.make ~nodes ~checkpoint_interval:interval ?fault_plan ?sinks
      ~net_max_attempts:attempts ()
  in
  let c = Pm2.launch ~config (Lazy.force Harness.program) ~spawns in
  if balance then
    ignore
      (Pm2_loadbal.Balancer.attach c ~policy:Pm2_loadbal.Balancer.Least_loaded
         ~period:400.);
  let makespan = Cluster.run c in
  Cluster.check_invariants c;
  (c, makespan)

let summarize t name (c, makespan) ~identical =
  Table.add_rowf t "%s|%.0f|%d|%d|%d|%d|%s" name makespan (Cluster.checkpoints c)
    (Cluster.restored_threads c)
    (List.length (Cluster.lost_threads c))
    (Cluster.live_threads c)
    (match identical with None -> "-" | Some true -> "yes" | Some false -> "NO")

(* [output_identical] is recorded only for scenarios that compared
   their output against a fault-free run ([~identical:(Some _)]); [extra]
   carries a scenario's own metrics. *)
let record_scenario ?(extra = []) ~name ~params (c, makespan) ~identical =
  Report.record ~suite:"crash-recovery" ~name ~params
    ([
       ("makespan_us", makespan);
       ("checkpoints", float_of_int (Cluster.checkpoints c));
       ("restored", float_of_int (Cluster.restored_threads c));
       ("lost", float_of_int (List.length (Cluster.lost_threads c)));
       ("stranded", float_of_int (Cluster.stranded_threads c));
       ("live_at_end", float_of_int (Cluster.live_threads c));
     ]
     @
     (match identical with
      | Some b -> [ ("output_identical", if b then 1. else 0.) ]
      | None -> [])
     @ extra)

(* A guest with the access pattern checkpointing is built for: a block of
   iso pages written once up front, then a long compute phase dirtying
   one stack word per iteration — the steady-state dedup measurement. *)
let steady_program =
  lazy
    (Pm2.build (fun b ->
         let open Pm2_mvm.Asm in
         let fmt = cstring b "looped %d" in
         proc b "steady" (fun b ->
             mov b r8 r1;
             enter b 32;
             imm b r1 (8 * 4096);
             sys b Pm2_mvm.Isa.Sys_isomalloc;
             mov b r7 r0;
             imm b r9 0;
             label b "steady.fill";
             imm b r4 8;
             bge b r9 r4 "steady.filled";
             imm b r4 4096;
             mul b r5 r9 r4;
             add b r5 r7 r5;
             store b r9 r5 0;
             addi b r9 r9 1;
             jmp b "steady.fill";
             label b "steady.filled";
             imm b r9 0;
             label b "steady.spin";
             bge b r9 r8 "steady.done";
             fp b r4;
             store b r9 r4 (-8);
             addi b r9 r9 1;
             jmp b "steady.spin";
             label b "steady.done";
             mov b r2 r9;
             imm b r1 fmt;
             sys b Pm2_mvm.Isa.Sys_print;
             leave b;
             halt b)))

let dedup_ratio () =
  let first = Hashtbl.create 4 in
  let steady_bytes = ref 0 and steady_full = ref 0 and snapshots = ref 0 in
  let sink =
    Pm2_obs.Sink.make ~name:"ckpt-ratio" (fun ~time:_ ~node:_ ev ->
        match ev with
        | Pm2_obs.Event.Checkpoint { tid; bytes; full_bytes; _ } ->
          incr snapshots;
          if Hashtbl.mem first tid then begin
            steady_bytes := !steady_bytes + bytes;
            steady_full := !steady_full + full_bytes
          end
          else Hashtbl.replace first tid ()
        | _ -> ())
  in
  let config =
    Pm2.Config.make ~checkpoint_interval:200. ~sinks:[ sink ] ()
  in
  let c = Cluster.create config (Lazy.force steady_program) in
  ignore (Cluster.spawn c ~node:0 ~entry:"steady" ~arg:150_000 ());
  ignore (Cluster.run c);
  Cluster.check_invariants c;
  let ratio = float_of_int !steady_bytes /. float_of_int (max 1 !steady_full) in
  (c, !snapshots, ratio)

let run () =
  Harness.section
    (Printf.sprintf
       "T5: crash recovery: checkpointed failover under crash faults (seed %d, %d \
        net attempts)"
       seed attempts);
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right ]
      [ "scenario"; "makespan us"; "ckpts"; "restored"; "lost"; "live"; "output =" ]
  in
  (* -- crash between checkpoints, failover onto the survivor -- *)
  let base = run_case ~interval:150. () in
  let failover = run_case ~interval:150. ~faults:"crash=0@1000" () in
  let failover_ok = guest_lines (fst base) = guest_lines (fst failover) in
  summarize t "baseline (ckpt on)" base ~identical:None;
  summarize t "crash between ckpts" failover ~identical:(Some failover_ok);
  record_scenario ~name:"failover"
    ~params:[ ("guest", "fig7/80"); ("interval", "150"); ("crash", "0@1000") ]
    failover ~identical:(Some failover_ok);
  (* -- crash while the victim's thread is in migration flight --
     Under the fault plan the migration runs the group pipeline as a
     group of one; the crash lands after the pack and before the train
     leaves, so the pipeline must abandon or abort that group. *)
  let mid_spawns = [ (0, "fig7", 105) ] in
  let mid_base = run_case ~interval:150. ~faults:"" ~spawns:mid_spawns () in
  let mid = run_case ~interval:150. ~faults:"crash=0@2900" ~spawns:mid_spawns () in
  let mid_ok = guest_lines (fst mid_base) = guest_lines (fst mid) in
  summarize t "crash mid-migration" mid ~identical:(Some mid_ok);
  record_scenario ~name:"crash-mid-migration"
    ~params:[ ("guest", "fig7/105"); ("interval", "150"); ("crash", "0@2900") ]
    ~extra:[ ("aborted_groups", float_of_int (Cluster.aborted_groups (fst mid))) ]
    mid ~identical:(Some mid_ok);
  (* -- double crash on a balanced three-node run (one victim restarts) -- *)
  let double =
    run_case ~nodes:3 ~interval:200. ~faults:"crash=1@1500,crash=2@2600-4000"
      ~spawns:[ (0, "spawner", 8) ] ~balance:true ()
  in
  summarize t "double crash (3 nodes)" double ~identical:None;
  record_scenario ~name:"double-crash"
    ~params:
      [ ("guest", "spawner/8"); ("nodes", "3"); ("interval", "200");
        ("crashes", "1@1500,2@2600-4000") ]
    double ~identical:None;
  (* -- checkpointing off: the crash loses the thread loudly, not a hang -- *)
  let degraded = run_case ~faults:"crash=0@1000" () in
  summarize t "no ckpt (degraded)" degraded ~identical:(Some false);
  record_scenario ~name:"degradation"
    ~params:[ ("guest", "fig7/80"); ("interval", "0"); ("crash", "0@1000") ]
    degraded ~identical:None;
  Table.print t;
  List.iter
    (fun (l : Cluster.lost_record) ->
      Harness.note "degraded run lost tid %d on node %d: %s" l.Cluster.l_tid
        l.Cluster.l_node l.Cluster.l_reason)
    (Cluster.lost_threads (fst degraded));
  (* -- steady-state checkpoint cost under content-hash dedup -- *)
  let dedup_c, snapshots, ratio = dedup_ratio () in
  Harness.note
    "steady-state checkpoints (8-page working set, 1 dirty word/iter): %d \
     snapshots, %.0f%% of the full image stored"
    snapshots (100. *. ratio);
  Report.record ~suite:"crash-recovery" ~name:"checkpoint-dedup"
    ~params:[ ("guest", "steady/150000"); ("interval", "200") ]
    [
      ("snapshots", float_of_int snapshots);
      ("ckpt_ratio_steady", ratio);
      ("dedup_pages", float_of_int (Image_store.dedup_pages (Cluster.image_store dedup_c)));
    ];
  (* The acceptance bars, enforced here and again by bin/check_bench. *)
  if not failover_ok then
    failwith "crash_sweep: failover run diverged from the fault-free output";
  if Cluster.restored_threads (fst failover) <> 1 then
    failwith "crash_sweep: failover did not restore the crashed thread";
  if not mid_ok then
    failwith "crash_sweep: mid-migration crash diverged from the fault-free output";
  if Cluster.aborted_groups (fst mid) < 1 then
    failwith "crash_sweep: the mid-migration crash missed the migration in flight";
  if Cluster.restored_threads (fst double) < 2 then
    failwith "crash_sweep: double crash restored fewer than 2 threads";
  if Cluster.live_threads (fst double) <> 0 || Cluster.stranded_threads (fst double) <> 0
  then failwith "crash_sweep: double crash left threads behind";
  if List.length (Cluster.lost_threads (fst degraded)) < 1 then
    failwith "crash_sweep: degraded run reported no typed loss";
  if ratio > 0.25 then
    failwith
      (Printf.sprintf "crash_sweep: steady-state checkpoint ratio %.2f above the 0.25 bar"
         ratio);
  Harness.note "every recovered scenario reproduced the guest output exactly once"

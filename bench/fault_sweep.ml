(* Fault-injection sweep: a tier-1 migrating program driven through
   increasing seeded fault loads — loss, duplication, jitter, and a
   mid-run interface kill — with the failure-hardened paths engaged: each
   lone migration runs the group pipeline as a group of one (probe,
   verdict, checksummed train, rollback on failure). Every row must
   complete with invariants intact; the table shows what the recovery
   machinery paid for it. The machine-readable
   `; metrics fault-sweep {...}` line is the hook for the @faults smoke. *)

open Pm2_core
module Plan = Pm2_fault.Plan
module Reliable = Pm2_net.Reliable
module Table = Pm2_support.Table

let seed = 11

let specs =
  [
    "";
    "loss=0.05";
    "loss=0.1,dup=0.02";
    "loss=0.2,delay=40";
    "loss=0.15,kill=1@600-1400";
  ]

let run () =
  Harness.section
    (Printf.sprintf "fault sweep: pingpong under seeded faults (seed %d)" seed);
  Harness.note
    "hardened group pipeline on for every row; empty spec = zero fault rates";
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
                Table.Right; Table.Right ]
      [ "faults"; "makespan us"; "migrations"; "dropped"; "retransmits";
        "dup-suppressed"; "aborted" ]
  in
  let metrics = Pm2_obs.Metrics.create () in
  List.iter
    (fun spec_s ->
       let spec =
         match Plan.spec_of_string spec_s with
         | Ok s -> s
         | Error e -> failwith ("fault_sweep: bad spec: " ^ e)
       in
       let config = Pm2.Config.make ~fault_plan:(Plan.create ~seed spec) () in
       let c = Cluster.create config (Lazy.force Harness.program) in
       Pm2_obs.Collector.attach (Cluster.obs c) (Pm2_obs.Metrics.sink metrics);
       ignore (Cluster.spawn c ~node:0 ~entry:"pingpong" ~arg:6 ());
       let makespan = Cluster.run c in
       Cluster.check_invariants c;
       if Cluster.live_threads c <> 0 then
         failwith ("fault_sweep: threads stranded under " ^ spec_s);
       let rel = Cluster.reliable c in
       let st = Plan.stats (Cluster.faults c) in
       Table.add_rowf t "%s|%.0f|%d|%d|%d|%d|%d"
         (if spec_s = "" then "(none)" else spec_s)
         makespan
         (List.length (Cluster.migrations c))
         st.Plan.dropped (Reliable.retransmits rel)
         (Reliable.duplicates_suppressed rel)
         (Cluster.aborted_migrations c))
    specs;
  Table.print t;
  Harness.note "every row completed with cross-node invariants intact";
  Harness.metrics_json ~experiment:"fault-sweep" metrics

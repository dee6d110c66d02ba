(* The motivating application (paper §1, §6): data-parallel virtual
   processors load-balanced by transparent migration. Reproduces the
   qualitative claims: (a) migrating VPs with their isomalloc'd chunks
   recovers imbalance with zero marshalling, and (b) under the legacy
   relocating scheme such migrations are simply impossible (every attempt
   aborts because the data cannot move). *)

module Vp = Pm2_hpf.Virtual_processor
module Balancer = Pm2_loadbal.Balancer
module Cluster = Pm2_core.Cluster
module Table = Pm2_support.Table

let run () =
  Harness.section "HPF: virtual-processor load balancing (motivating application)";
  let base = { Vp.default_config with Vp.vps = 16; nodes = 4 } in
  let t =
    Table.create
      [
        "scenario";
        "makespan (us)";
        "VP migrations";
        "chunks";
        "final imbalance";
      ]
  in
  let row name (r : Vp.result) =
    Table.add_rowf t "%s|%.0f|%d|%s|%d" name r.Vp.makespan r.Vp.migrations
      (if r.Vp.checksums_ok then "intact" else "CORRUPTED")
      r.Vp.final_imbalance
  in
  row "all on node 0, no balancing" (Vp.run base);
  row "all on node 0, least-loaded"
    (Vp.run { base with Vp.policy = Some Balancer.Least_loaded });
  row "all on node 0, threshold(2,16)"
    (Vp.run { base with Vp.policy = Some (Balancer.Threshold { high = 2; low = 16 }) });
  row "block placement, no balancing" (Vp.run { base with Vp.placement = Vp.Block });
  (* The legacy scheme: the balancer tries, every migration aborts. *)
  let legacy =
    Vp.run
      {
        base with
        Vp.policy = Some Balancer.Least_loaded;
        scheme = Cluster.Relocating;
      }
  in
  row "all on node 0, legacy scheme + balancer" legacy;
  Table.print t;
  let aborted =
    List.length
      (List.filter
         (fun l ->
            String.length l > 30
            && String.sub l 8 9 = "migration")
         (Pm2_sim.Trace.lines (Cluster.trace legacy.Vp.cluster)))
  in
  Harness.note "legacy scheme: %d migration attempts aborted (VP chunks cannot move" aborted;
  Harness.note "at a different address), so the imbalance is never recovered --";
  Harness.note "the capability gap isomalloc closes (paper, 1-2)"

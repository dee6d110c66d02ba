(* Crash recovery: the --faults crash= grammar and the zero-length
   kill-window pin, the content-addressed image store's serialization,
   and the checkpoint/failover machinery end to end — output-commit
   determinism, failover onto a survivor, cold restart, graceful
   degradation to typed losses, and the checkpoint dedup ratio. *)

module Engine = Pm2_sim.Engine
module As = Pm2_vmem.Address_space
module Plan = Pm2_fault.Plan
module Reliable = Pm2_net.Reliable
module Image_store = Pm2_recover.Image_store
open Pm2_core

let program = Pm2_programs.Figures.image ()

let spec_of s =
  match Plan.spec_of_string s with
  | Ok sp -> sp
  | Error e -> Alcotest.failf "spec %S rejected: %s" s e

(* -- the crash= grammar -- *)

let test_crash_spec_parse () =
  (match (spec_of "crash=2@5000").Plan.crashes with
   | [ { Plan.victim = 2; at = 5000.; restart = None } ] -> ()
   | _ -> Alcotest.fail "crash=2@5000 parsed wrong");
  (match (spec_of "crash=0@1000-1400").Plan.crashes with
   | [ { Plan.victim = 0; at = 1000.; restart = Some 1400. } ] -> ()
   | _ -> Alcotest.fail "crash with restart parsed wrong");
  (* kill= and crash= are distinct lists: an interface kill must never
     destroy memory, a crash must. *)
  let sp = spec_of "kill=0@100,crash=1@500" in
  Alcotest.(check int) "kills" 1 (List.length sp.Plan.kills);
  Alcotest.(check int) "crashes" 1 (List.length sp.Plan.crashes);
  let rejected s =
    match Plan.spec_of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "restart before crash" true (rejected "crash=1@200-100");
  Alcotest.(check bool) "victim not a number" true (rejected "crash=x@100")

let test_crash_spec_roundtrip () =
  let s = "loss=0.2,kill=1@500-900,crash=0@1000-1400,crash=2@2000" in
  let sp = spec_of s in
  let sp' = spec_of (Plan.spec_to_string sp) in
  Alcotest.(check bool) "canonical form parses back to itself" true (sp = sp')

let test_zero_length_windows () =
  (* kill=1@700-700 is a degenerate window: it must parse (sweep scripts
     generate them) but never count as an outage — neither for liveness
     nor for [killed_during], whose half-open scan would otherwise report
     an instant with no extent. A degenerate crash window, by contrast,
     is rejected outright: a crash destroys state, so "crashed for zero
     time" has no meaning. *)
  (match Plan.spec_of_string "crash=2@900-900" with
   | Ok _ -> Alcotest.fail "degenerate crash window must be rejected"
   | Error _ -> ());
  let plan = Plan.create ~seed:1 (spec_of "kill=1@700-700") in
  Alcotest.(check bool) "alive at the empty kill instant" true
    (Plan.node_alive plan ~node:1 ~now:700.);
  Alcotest.(check bool) "killed_during skips the empty window" true
    (Plan.killed_during plan ~node:1 ~from_:600. ~until:800. = None);
  (* A real window through the same scan still reports its start. *)
  let real = Plan.create ~seed:1 (spec_of "kill=1@700-800") in
  Alcotest.(check bool) "non-empty window still detected" true
    (Plan.killed_during real ~node:1 ~from_:600. ~until:800. = Some 700.)

(* -- the content-addressed image store -- *)

let page_of_byte b =
  Bytes.make Image_store.page_size (Char.chr (b land 0xff))

let test_store_reads_only_new_pages () =
  (* A save hands each page as its hash and a reader: the store reads a
     page only when its pool lacks the hash, and keeps the frame it is
     handed. *)
  let t = Image_store.create () in
  let reads = ref [] in
  let pages fills =
    List.map
      (fun b ->
        let p = page_of_byte b in
        (As.page_bytes_hash p, fun () -> reads := b :: !reads; Bytes.copy p))
      fills
  in
  let save ~tid ~frame fills =
    Image_store.save t ~tid ~node:0 ~gen:0 ~at:0. ~frame ~ranges:[] ~pages:(pages fills)
  in
  let frame = Bytes.of_string "frame" in
  Alcotest.(check int) "first save: two new pages" 2 (save ~tid:1 ~frame [ 1; 2; 1 ]);
  Alcotest.(check (list int)) "each new page read once" [ 2; 1 ] !reads;
  Alcotest.(check int) "a repeated page is a dedup" 1 (Image_store.dedup_pages t);
  Alcotest.(check bool) "the frame is kept, not copied" true
    ((Option.get (Image_store.latest t ~tid:1)).Image_store.e_frame == frame);
  reads := [];
  Alcotest.(check int) "second thread: one new page" 1 (save ~tid:2 ~frame:frame [ 2; 3 ]);
  Alcotest.(check (list int)) "only the page the pool lacked is read" [ 3 ] !reads;
  Alcotest.(check int) "pool" 3 (Image_store.pool_pages t);
  Alcotest.(check bool) "pooled content" true
    (Image_store.find_page t ~hash:(As.page_bytes_hash (page_of_byte 3))
     = Some (page_of_byte 3));
  (* Superseding releases the pages only the old snapshot held. *)
  ignore (save ~tid:1 ~frame [ 2 ]);
  Alcotest.(check int) "page 1 evicted" 2 (Image_store.pool_pages t)

(* -- checkpointing and failover, end to end -- *)

let run_timed ?(nodes = 2) ?(seed = 7) ?faults ?(interval = 0.) ?sinks ?scheme
    ?net_max_attempts ~entry ~arg () =
  let fault_plan = Option.map (fun s -> Plan.create ~seed (spec_of s)) faults in
  let config =
    Pm2.Config.make ~nodes ?scheme ?fault_plan ~checkpoint_interval:interval ?sinks
      ?net_max_attempts ()
  in
  let c = Cluster.create config program in
  ignore (Cluster.spawn c ~node:0 ~entry ~arg ());
  let makespan = Cluster.run c in
  Cluster.check_invariants c;
  (c, makespan)

let run_cluster ?nodes ?faults ?interval ?sinks ~entry ~arg () =
  fst (run_timed ?nodes ?faults ?interval ?sinks ~entry ~arg ())

let lines c = Pm2_sim.Trace.lines (Cluster.trace c)

(* "[node0] Element 3 = 7" -> "Element 3 = 7". A restored thread
   genuinely lives on another node afterwards, so the node prefix is the
   one legitimate difference between a crashed run and its baseline. *)
let strip_node line =
  if String.length line > 0 && line.[0] = '[' then
    match String.index_opt line ' ' with
    | Some i -> String.sub line (i + 1) (String.length line - i - 1)
    | None -> line
  else line

let test_checkpoint_output_commit () =
  (* Checkpointing buffers guest prints and commits them at snapshot
     boundaries; with no crash the committed lines must be exactly the
     eager baseline's, in the same order. (Virtual timestamps shift — a
     snapshot charges pack cost to the node — so only the content is
     compared.) *)
  let eager = run_cluster ~entry:"fig7" ~arg:80 () in
  let ckpt = run_cluster ~interval:150. ~entry:"fig7" ~arg:80 () in
  Alcotest.(check (list string)) "buffered output identical to eager"
    (lines eager) (lines ckpt);
  Alcotest.(check bool) "snapshots were actually taken" true
    (Cluster.checkpoints ckpt > 0)

let test_failover_restores_on_survivor () =
  (* Node 0 crashes mid-computation; the heartbeat detector convicts it,
     and the supervisor restores its thread from the latest checkpoint
     onto node 1. The replayed thread re-executes from the snapshot and
     must reproduce exactly the guest lines the crash destroyed. *)
  let baseline = run_cluster ~interval:150. ~entry:"fig7" ~arg:80 () in
  let crashed =
    run_cluster ~faults:"crash=0@1000" ~interval:150. ~entry:"fig7" ~arg:80 ()
  in
  Alcotest.(check int) "one thread restored" 1 (Cluster.restored_threads crashed);
  Alcotest.(check int) "nothing lost" 0 (List.length (Cluster.lost_threads crashed));
  Alcotest.(check int) "nothing left stranded" 0 (Cluster.stranded_threads crashed);
  Alcotest.(check int) "run drained" 0 (Cluster.live_threads crashed);
  Alcotest.(check int) "crash bumped the incarnation" 1 (Cluster.node_generation crashed 0);
  let th = List.hd (Cluster.threads crashed) in
  Alcotest.(check bool) "thread completed on the survivor" true
    (th.Thread.state = Thread.Exited Thread.Halted && th.Thread.node = 1);
  Alcotest.(check (list string)) "guest output reproduced exactly once"
    (List.map strip_node (lines baseline))
    (List.map strip_node (lines crashed))

let test_cold_start_after_restart () =
  (* The node restarts (empty) before the failure detector convicts it:
     no failover happens, and the restarted node cold-starts its own
     stranded thread from the store. Same node, so even the node
     prefixes must match the baseline. *)
  let baseline = run_cluster ~interval:150. ~entry:"fig7" ~arg:80 () in
  let c =
    run_cluster ~faults:"crash=0@1000-1400" ~interval:150. ~entry:"fig7" ~arg:80 ()
  in
  Alcotest.(check int) "restored by the cold start" 1 (Cluster.restored_threads c);
  Alcotest.(check int) "nothing lost" 0 (List.length (Cluster.lost_threads c));
  let th = List.hd (Cluster.threads c) in
  Alcotest.(check bool) "completed at home" true
    (th.Thread.state = Thread.Exited Thread.Halted && th.Thread.node = 0);
  Alcotest.(check (list string)) "guest output identical, prefixes included"
    (lines baseline) (lines c)

let test_graceful_degradation_without_checkpoints () =
  (* Checkpointing off: the crash loses the thread loudly — a typed
     [Pm2.Error.Lost], state [Exited Killed] — and the run terminates
     instead of hanging. *)
  let c = run_cluster ~faults:"crash=0@1000" ~entry:"fig7" ~arg:80 () in
  Alcotest.(check int) "nothing restored" 0 (Cluster.restored_threads c);
  Alcotest.(check int) "run drained" 0 (Cluster.live_threads c);
  (match Pm2.lost_threads c with
   | [ Pm2.Error.Lost { node = 0; reason; _ } ] ->
     Alcotest.(check bool) "reason names the missing checkpoint" true
       (reason = "node crashed with no checkpoint of the thread")
   | _ -> Alcotest.fail "expected exactly one typed Lost error");
  let th = List.hd (Cluster.threads c) in
  Alcotest.(check bool) "thread exited killed" true
    (th.Thread.state = Thread.Exited Thread.Killed)

(* The crash lands while the thread's migration is in flight: the
   pipeline that froze it must hand it to recovery without counting it
   as an aborted migration (it never resumes on its source) and without
   committing the late image. Seed 1 and 6 attempts, as in the bench's
   crash sweep. *)
let crash_in_flight ?scheme ~faults ~entry ~arg () =
  run_timed ~seed:1 ?scheme ~faults ~interval:150. ~net_max_attempts:6 ~entry ~arg ()

let test_direct_hop_abandoned_on_crash () =
  (* The relocating scheme always takes the direct hop; node 0 crashes
     between the freeze and the image's arrival on node 1. *)
  let c, _ =
    crash_in_flight ~scheme:Cluster.Relocating ~faults:"crash=0@5" ~entry:"pingpong"
      ~arg:1 ()
  in
  Alcotest.(check int) "not an aborted migration" 0 (Cluster.aborted_migrations c);
  Alcotest.(check int) "never committed" 0 (List.length (Cluster.migrations c));
  (match Pm2.lost_threads c with
   | [ Pm2.Error.Lost { node = 0; _ } ] -> ()
   | _ -> Alcotest.fail "expected exactly one typed Lost error");
  let th = List.hd (Cluster.threads c) in
  Alcotest.(check bool) "thread exited killed" true
    (th.Thread.state = Thread.Exited Thread.Killed)

let test_group_of_one_crash_mid_migration () =
  (* Under a fault plan the lone thread rides the group pipeline as a
     group of one; node 0 crashes while its group is in flight. The group
     is abandoned, the thread restored from its checkpoint, and the guest
     output matches the fault-free run's once the lines that observe
     placement or the protocol are set aside. *)
  let guest_lines c =
    List.filter
      (fun l ->
        not
          (List.exists
             (fun p -> String.starts_with ~prefix:p l)
             [ "Initializing"; "Arrived"; "migration"; "group migration" ]))
      (List.map strip_node (lines c))
  in
  let base, _ = crash_in_flight ~faults:"" ~entry:"fig7" ~arg:105 () in
  let c, makespan = crash_in_flight ~faults:"crash=0@2900" ~entry:"fig7" ~arg:105 () in
  Alcotest.(check int) "group abandoned" 1 (Cluster.aborted_groups c);
  Alcotest.(check int) "restored from its checkpoint" 1 (Cluster.restored_threads c);
  Alcotest.(check int) "not an aborted migration" 0 (Cluster.aborted_migrations c);
  Alcotest.(check int) "never committed" 0 (List.length (Cluster.migrations c));
  Alcotest.(check string) "makespan" "22953.4" (Printf.sprintf "%.1f" makespan);
  Alcotest.(check (list string)) "guest output of the fault-free run" (guest_lines base)
    (guest_lines c)

(* A guest with the access pattern checkpointing is built for: a block of
   iso pages written once up front, then a long compute phase that
   dirties only one stack word per iteration. *)
let steady_program =
  Pm2.build (fun b ->
      let open Pm2_mvm.Asm in
      let fmt = cstring b "looped %d" in
      proc b "steady" (fun b ->
          mov b r8 r1; (* n spin iterations *)
          enter b 32;
          imm b r1 (8 * 4096);
          sys b Pm2_mvm.Isa.Sys_isomalloc;
          mov b r7 r0; (* base of the working set *)
          imm b r9 0;
          label b "steady.fill";
          imm b r4 8;
          bge b r9 r4 "steady.filled";
          imm b r4 4096;
          mul b r5 r9 r4;
          add b r5 r7 r5;
          store b r9 r5 0; (* touch page j once *)
          addi b r9 r9 1;
          jmp b "steady.fill";
          label b "steady.filled";
          imm b r9 0;
          label b "steady.spin";
          bge b r9 r8 "steady.done";
          fp b r4;
          store b r9 r4 (-8); (* the whole dirty frontier: one stack word *)
          addi b r9 r9 1;
          jmp b "steady.spin";
          label b "steady.done";
          mov b r2 r9;
          imm b r1 fmt;
          sys b Pm2_mvm.Isa.Sys_print;
          leave b;
          halt b))

let test_steady_state_checkpoint_dedup () =
  (* After the first snapshot pins the working set in the pool, a
     checkpoint's frame carries hash references for every stable page;
     only the dirty frontier ships as content. Summed over the
     steady-state snapshots (everything after each thread's first), the
     stored bytes must be at most 25% of the full image bytes. *)
  let first = Hashtbl.create 4 in
  let steady_bytes = ref 0 and steady_full = ref 0 and seen = ref 0 in
  let sink =
    Pm2_obs.Sink.make ~name:"ckpt-ratio" (fun ~time:_ ~node:_ ev ->
        match ev with
        | Pm2_obs.Event.Checkpoint { tid; bytes; full_bytes; _ } ->
          incr seen;
          if Hashtbl.mem first tid then begin
            steady_bytes := !steady_bytes + bytes;
            steady_full := !steady_full + full_bytes
          end
          else Hashtbl.replace first tid ()
        | _ -> ())
  in
  let config = Pm2.Config.make ~checkpoint_interval:200. ~sinks:[ sink ] () in
  let c = Cluster.create config steady_program in
  ignore (Cluster.spawn c ~node:0 ~entry:"steady" ~arg:150_000 ());
  ignore (Cluster.run c);
  Cluster.check_invariants c;
  Alcotest.(check bool) "several steady-state snapshots" true (!seen >= 4);
  Alcotest.(check bool) "store counted dedup hits" true (Image_store.dedup_pages (Cluster.image_store c) > 0);
  let ratio = float_of_int !steady_bytes /. float_of_int (max 1 !steady_full) in
  if ratio > 0.25 then
    Alcotest.failf "steady-state checkpoints shipped %.0f%% of the full image"
      (100. *. ratio)

let test_net_attempt_knobs () =
  (* The retransmission budget is configurable; the default must stay
     the historic 12 attempts, and a lowered budget must both appear in
     the give-up reason and shorten the give-up tail. *)
  let run attempts =
    let fault_plan = Plan.create ~seed:2 (spec_of "kill=1@0") in
    let config = Pm2.Config.make ~fault_plan ?net_max_attempts:attempts () in
    let c = Cluster.create config program in
    ignore (Cluster.spawn c ~node:0 ~entry:"pingpong" ~arg:1 ());
    let finish = Cluster.run c in
    (c, finish)
  in
  let default_c, default_end = run None in
  let short_c, short_end = run (Some 3) in
  let contains c needle =
    List.exists
      (fun l ->
        let n = String.length needle and len = String.length l in
        let rec scan i =
          i + n <= len && (String.sub l i n = needle || scan (i + 1))
        in
        scan 0)
      (lines c)
  in
  Alcotest.(check bool) "default budget is 12 attempts" true
    (contains default_c "after 12 attempts");
  Alcotest.(check bool) "lowered budget reported" true
    (contains short_c "after 3 attempts");
  Alcotest.(check bool) "lowered budget gives up sooner" true (short_end < default_end);
  Alcotest.(check bool) "both runs aborted the migration" true
    (Cluster.aborted_migrations default_c = 1 && Cluster.aborted_migrations short_c = 1)

let tests =
  [
    Alcotest.test_case "crash= grammar" `Quick test_crash_spec_parse;
    Alcotest.test_case "crash= roundtrip" `Quick test_crash_spec_roundtrip;
    Alcotest.test_case "zero-length outage windows" `Quick test_zero_length_windows;
    Alcotest.test_case "store reads only new pages" `Quick test_store_reads_only_new_pages;
    Alcotest.test_case "output commit is deterministic" `Quick
      test_checkpoint_output_commit;
    Alcotest.test_case "failover restores on a survivor" `Quick
      test_failover_restores_on_survivor;
    Alcotest.test_case "cold start after restart" `Quick test_cold_start_after_restart;
    Alcotest.test_case "graceful degradation without checkpoints" `Quick
      test_graceful_degradation_without_checkpoints;
    Alcotest.test_case "abandoned direct hop is not an abort" `Quick
      test_direct_hop_abandoned_on_crash;
    Alcotest.test_case "crash during a group-of-one migration" `Quick
      test_group_of_one_crash_mid_migration;
    Alcotest.test_case "steady-state checkpoint dedup" `Quick
      test_steady_state_checkpoint_dedup;
    Alcotest.test_case "net attempt knobs" `Quick test_net_attempt_knobs;
  ]

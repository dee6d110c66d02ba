(* pm2sim — command-line front end to the simulated PM2 cluster.

     pm2sim run fig7 --arg 110 --nodes 2
     pm2sim run fig2 --scheme relocating
     pm2sim balance --workers 24 --nodes 4 --policy least-loaded
     pm2sim info
     pm2sim list *)

open Cmdliner
open Pm2_core
open Flags
module Session = Pm2_svc.Session

let program = Pm2_programs.Figures.image ()

(* -- shared options -- *)

let distribution_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "rr" ] | [ "round-robin" ] -> Ok Distribution.Round_robin
    | [ "partition" ] -> Ok Distribution.Partition
    | [ "bc"; k ] | [ "block-cyclic"; k ] ->
      (try Ok (Distribution.Block_cyclic (int_of_string k))
       with _ -> Error (`Msg "block-cyclic needs an integer, e.g. bc:8"))
    | _ -> Error (`Msg (Printf.sprintf "unknown distribution %S (rr|bc:K|partition)" s))
  in
  let print ppf d = Format.pp_print_string ppf (Distribution.to_string d) in
  Arg.conv (parse, print)

let distribution_arg =
  Arg.(
    value
    & opt distribution_conv Distribution.Round_robin
    & info [ "distribution" ] ~docv:"DIST"
        ~doc:"Initial slot distribution: $(b,rr), $(b,bc:K) or $(b,partition).")

let slot_size_arg =
  Arg.(
    value
    & opt int (64 * 1024)
    & info [ "slot-size" ] ~docv:"BYTES" ~doc:"Slot size (a multiple of the 4 KB page).")

let timed_arg =
  Arg.(value & flag & info [ "timed" ] ~doc:"Prefix output lines with virtual timestamps.")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event JSON file of the run (open in \
              chrome://tracing or Perfetto).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the per-node metrics report (event counters and \
              p50/p95/p99 histograms) after the run.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Enable causal migration tracing: every migration emits a span \
              tree (negotiate/probe/pack/train/unpack/commit/rollback) whose \
              context is propagated to the destination node, visible in \
              $(b,--trace-json) and $(b,--trace-stream) output.")

let trace_stream_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-stream" ] ~docv:"FILE"
        ~doc:"Stream every event as one JSON object per line to FILE while \
              the run executes (implies $(b,--trace)).")

let metrics_interval_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-interval" ] ~docv:"N"
        ~doc:"With $(b,--trace-stream), write a per-node metrics snapshot \
              line every N virtual microseconds.")

let flight_recorder_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-recorder" ] ~docv:"FILE"
        ~doc:"Dump the in-memory flight recorder (bounded rings of recent \
              events per node) to FILE as JSON whenever a migration abort, \
              rollback or train give-up occurs.")

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:"Enable fault injection and the failure-hardened paths: every \
              iso migration runs the probe/verdict group pipeline (a lone \
              thread is a group of one) and control messages are \
              retransmitted. SPEC is a comma list of $(b,loss=P), $(b,dup=P), \
              $(b,corrupt=P), $(b,reorder=P), $(b,delay=US), \
              $(b,part=A-B\\@T0-T1), $(b,kill=N\\@T[-T1]) and \
              $(b,crash=N\\@T[-T1]) (destroy node N's memory at time T, \
              optionally restarting it empty at T1); the empty string \
              enables the hardened paths without injecting anything.")

let plan_of ~faults ~seed =
  match faults with
  | None -> Pm2_fault.Plan.none
  | Some spec -> Pm2_fault.Plan.create ~seed spec

(* Printed only when a plan is live, so fault-free output is unchanged. *)
let report_faults (st : Session.status) =
  if st.Session.st_faults_enabled then begin
    Printf.printf "; faults: %s\n" st.Session.st_faults_summary;
    Printf.printf
      "; recovery: %d retransmissions, %d duplicates suppressed, %d give-ups, \
       %d migrations aborted\n"
      st.Session.st_retransmits st.Session.st_duplicates st.Session.st_give_ups
      st.Session.st_aborted
  end

(* Printed only when checkpointing ran or a crash touched a thread, so
   existing output is unchanged. *)
let report_recovery (st : Session.status) =
  if st.Session.st_checkpointing || st.Session.st_restored > 0 || st.Session.st_lost <> []
  then begin
    Printf.printf
      "; checkpoints: %d snapshots, %d page saves (%d served by dedup)\n"
      st.Session.st_checkpoints st.Session.st_page_saves st.Session.st_dedup_pages;
    Printf.printf "; failover: %d threads restored, %d lost, %d stranded\n"
      st.Session.st_restored
      (List.length st.Session.st_lost)
      st.Session.st_stranded;
    List.iter
      (fun e -> Printf.printf ";   %s\n" (Pm2.Error.to_string e))
      st.Session.st_lost
  end

(* Attach the requested sinks to the cluster's collector; returns a
   finaliser that writes / prints them once the run is over. *)
let setup_obs ?trace_stream ?metrics_interval ?flight_recorder cluster ~trace_json
    ~metrics =
  let obs = Cluster.obs cluster in
  let chrome =
    Option.map
      (fun file ->
         let c = Pm2_obs.Chrome.create () in
         Pm2_obs.Collector.attach obs (Pm2_obs.Chrome.sink c);
         (c, file))
      trace_json
  in
  let stream =
    Option.map
      (fun file ->
         let s =
           try Pm2_obs.Stream.open_file file
           with Sys_error e ->
             Printf.eprintf "pm2sim: cannot open trace stream: %s\n" e;
             exit 1
         in
         Pm2_obs.Collector.attach obs (Pm2_obs.Stream.sink s);
         (s, file))
      trace_stream
  in
  let registry =
    if metrics || metrics_interval <> None then begin
      let m = Pm2_obs.Metrics.create () in
      Pm2_obs.Collector.attach obs (Pm2_obs.Metrics.sink m);
      Some m
    end
    else None
  in
  (* Periodic snapshots interleave with the event lines in the stream;
     the ticker stops itself once the cluster has no live threads, so
     the simulation still terminates. *)
  (match metrics_interval, registry, stream with
   | Some n, Some m, Some (s, _) when n > 0 ->
     let engine = Cluster.engine cluster in
     let rec tick () =
       Pm2_obs.Stream.write_metrics s ~time:(Pm2_sim.Engine.now engine) m;
       if Cluster.live_threads cluster > 0 then
         Pm2_sim.Engine.schedule_after engine ~delay:(float_of_int n) tick
     in
     Pm2_sim.Engine.schedule_after engine ~delay:(float_of_int n) tick
   | _ -> ());
  Option.iter
    (fun file ->
       let r = Cluster.recorder cluster in
       Pm2_obs.Recorder.set_on_trigger r (fun _ ->
           try Pm2_obs.Recorder.write_file r file with Sys_error _ -> ()))
    flight_recorder;
  fun () ->
    Option.iter
      (fun (c, file) ->
         (try Pm2_obs.Chrome.write_file c file with Sys_error e ->
            Printf.eprintf "pm2sim: cannot write trace: %s\n" e;
            exit 1);
         Printf.printf "; chrome trace: %s (%d events)\n" file (Pm2_obs.Chrome.length c))
      chrome;
    Option.iter
      (fun (s, file) ->
         let lines = Pm2_obs.Stream.lines s in
         Pm2_obs.Stream.close s;
         Printf.printf "; trace stream: %s (%d lines)\n" file lines)
      stream;
    Option.iter
      (fun file ->
         let r = Cluster.recorder cluster in
         match Pm2_obs.Recorder.triggers r with
         | [] -> ()
         | ts -> Printf.printf "; flight recorder: %s (%d triggers)\n" file (List.length ts))
      flight_recorder;
    Option.iter (fun m -> if metrics then print_string (Pm2_obs.Metrics.report m)) registry

(* -- run -- *)

let entries () = List.map fst program.Pm2_mvm.Program.entries

let run_cmd =
  let entry_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ENTRY"
           ~doc:"Program entry point (see $(b,pm2sim list)).")
  in
  let arg_arg =
    Arg.(value & opt int 0 & info [ "arg" ] ~docv:"N" ~doc:"Integer argument (register r1).")
  in
  let run entry arg nodes scheme distribution slot_size timed trace_json metrics faults
      seed trace trace_stream metrics_interval flight_recorder delta checkpoint_interval =
    if metrics_interval <> None && trace_stream = None then
      Error (`Msg "--metrics-interval needs --trace-stream")
    else begin
      let faults = plan_of ~faults ~seed in
      let tracing = trace || trace_stream <> None in
      let session =
        Session.create
          ~config:
            {
              (config ~scheme ~nodes ~faults ~delta ~tracing ~checkpoint_interval ()) with
              Cluster.distribution;
              slot_size;
            }
          ~program ()
      in
      (* The batch command is a thin client of the service control plane;
         the cluster handle only feeds the optional observability sinks. *)
      let finish_obs =
        setup_obs ?trace_stream ?metrics_interval ?flight_recorder
          (Session.cluster session) ~trace_json ~metrics
      in
      match Session.submit session { Session.entry; arg; node = 0 } with
      | Error (Session.Unknown_entry _) ->
        Printf.eprintf "unknown entry %S; try: %s\n" entry (String.concat " " (entries ()));
        exit 2
      | Error e -> Error (`Msg (Session.error_to_string e))
      | Ok _ -> (
        match Session.run session with
        | Error e -> Error (`Msg (Session.error_to_string e))
        | Ok finish ->
          List.iter print_endline (Session.output session ~timed);
          let st = Session.status session in
          Printf.printf "\n; finished at %.1f virtual us; %d migrations; %d negotiations\n"
            finish st.Session.st_migrations st.Session.st_negotiations;
          (match st.Session.st_mean_latency with
           | Some us -> Printf.printf "; mean one-way migration latency: %.1f us\n" us
           | None -> ());
          report_faults st;
          report_recovery st;
          finish_obs ();
          Cluster.check_invariants (Session.cluster session);
          Session.shutdown session;
          Ok ())
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one of the paper's example programs on a simulated cluster.")
    Term.(
      term_result
        (const run $ entry_arg $ arg_arg $ nodes_arg $ scheme_arg $ distribution_arg
         $ slot_size_arg $ timed_arg $ trace_json_arg $ metrics_arg $ faults_arg
         $ seed_arg $ trace_arg $ trace_stream_arg $ metrics_interval_arg
         $ flight_recorder_arg $ delta_arg $ checkpoint_interval_arg))

(* -- balance -- *)

let balance_cmd =
  let workers_arg =
    Arg.(value & opt int 24 & info [ "workers" ] ~docv:"N" ~doc:"Worker thread count.")
  in
  (* One grammar, shared with the daemon and the wire protocol. *)
  let policy_conv =
    let parse s =
      Result.map_error (fun e -> `Msg e) (Pm2_loadbal.Balancer.Policy.of_string s)
    in
    Arg.conv (parse, fun ppf p ->
        Format.pp_print_string ppf (Pm2_loadbal.Balancer.Policy.to_string p))
  in
  let policy_arg =
    Arg.(
      value
      & opt (some policy_conv) None
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Balancing policy: $(b,least-loaded), $(b,spread), \
                $(b,threshold:HIGH:LOW), \
                $(b,group-threshold:HIGH:LOW:LIMIT), $(b,cache-affinity) or \
                $(b,access-imbalance)[$(b,:RATIO:MINPAGES)] (move the \
                hottest-writing thread off the hottest node). Omit for no \
                balancing.")
  in
  let run workers nodes policy trace_json metrics faults seed trace trace_stream
      metrics_interval flight_recorder delta checkpoint_interval =
    if metrics_interval <> None && trace_stream = None then
      Error (`Msg "--metrics-interval needs --trace-stream")
    else begin
      let session =
        Session.create
          ~config:
            (config ~nodes ~faults:(plan_of ~faults ~seed) ~delta
               ~tracing:(trace || trace_stream <> None) ~checkpoint_interval ())
          ~program ()
      in
      let finish_obs =
        setup_obs ?trace_stream ?metrics_interval ?flight_recorder
          (Session.cluster session) ~trace_json ~metrics
      in
      let ( let* ) = Result.bind in
      let err e = `Msg (Session.error_to_string e) in
      Result.map_error err
        (let* _tid =
           Session.submit session { Session.entry = "spawner"; arg = workers; node = 0 }
         in
         let* () =
           match policy with
           | Some policy -> Session.balance session ~policy ()
           | None -> Ok ()
         in
         let* makespan = Session.run session in
         Printf.printf "makespan: %.0f virtual us for %d workers on %d nodes\n" makespan
           workers nodes;
         let st = Session.status session in
         (match Session.balancer_stats session with
          | Some s ->
            let retried =
              if st.Session.st_faults_enabled then
                Printf.sprintf "%d retried, " s.Pm2_loadbal.Balancer.retries
              else ""
            in
            Printf.printf
              "balancer: %d rounds acted, %d migrations requested, %s%d completed\n"
              s.Pm2_loadbal.Balancer.decisions s.Pm2_loadbal.Balancer.migrations_requested
              retried st.Session.st_migrations
          | None -> print_endline "balancer: none (baseline)");
         report_faults st;
         report_recovery st;
         finish_obs ();
         Cluster.check_invariants (Session.cluster session);
         Ok ())
    end
  in
  Cmd.v
    (Cmd.info "balance"
       ~doc:"Run the irregular-workers demo, optionally with a load balancer.")
    Term.(
      term_result
        (const run $ workers_arg $ nodes_arg $ policy_arg $ trace_json_arg $ metrics_arg
         $ faults_arg $ seed_arg $ trace_arg $ trace_stream_arg $ metrics_interval_arg
         $ flight_recorder_arg $ delta_arg $ checkpoint_interval_arg))

(* -- hpf -- *)

let hpf_cmd =
  let module Vp = Pm2_hpf.Virtual_processor in
  let vps_arg =
    Arg.(value & opt int 12 & info [ "vps" ] ~docv:"N" ~doc:"Virtual processors.")
  in
  let sweeps_arg =
    Arg.(value & opt int 6 & info [ "sweeps" ] ~docv:"N" ~doc:"Owner-computes iterations.")
  in
  let balance_arg =
    Arg.(value & flag & info [ "balance" ] ~doc:"Attach a least-loaded balancer.")
  in
  let run vps sweeps nodes scheme balance =
    let cfg =
      {
        Vp.default_config with
        Vp.vps;
        iterations = sweeps;
        nodes = max nodes 2;
        scheme;
        policy = (if balance then Some Pm2_loadbal.Balancer.Least_loaded else None);
      }
    in
    let r = Vp.run cfg in
    Printf.printf
      "%d VPs x %d elements x %d sweeps on %d nodes (%s scheme, %s)\n"
      cfg.Vp.vps cfg.Vp.elements_per_vp cfg.Vp.iterations cfg.Vp.nodes
      (match scheme with Cluster.Iso -> "iso" | Cluster.Relocating -> "relocating")
      (if balance then "least-loaded balancer" else "no balancing");
    Printf.printf "makespan           %.0f virtual us\n" r.Vp.makespan;
    Printf.printf "VP migrations      %d\n" r.Vp.migrations;
    Printf.printf "array chunks       %s\n" (if r.Vp.checksums_ok then "intact" else "CORRUPTED");
    Printf.printf "final imbalance    %d\n" r.Vp.final_imbalance;
    if not r.Vp.checksums_ok then exit 1
  in
  Cmd.v
    (Cmd.info "hpf"
       ~doc:"Run the data-parallel virtual-processor workload (the paper's \
             motivating application).")
    Term.(const run $ vps_arg $ sweeps_arg $ nodes_arg $ scheme_arg $ balance_arg)

(* -- info / list -- *)

let info_cmd =
  let run nodes slot_size =
    let g = Slot.make ~slot_size in
    let open Pm2_vmem.Layout in
    Printf.printf "memory layout (identical on all %d nodes, paper Fig. 5):\n" nodes;
    Printf.printf "  code        0x%012x  (%s)\n" code_base
      (Pm2_util.Units.bytes_to_string code_size);
    Printf.printf "  static data 0x%012x  (%s)\n" data_base
      (Pm2_util.Units.bytes_to_string data_size);
    Printf.printf "  local heap  0x%012x  (up to %s, does not migrate)\n" heap_base
      (Pm2_util.Units.bytes_to_string heap_max_size);
    Printf.printf "  iso area    0x%012x  (%s)\n" iso_base
      (Pm2_util.Units.bytes_to_string iso_size);
    Printf.printf "  stack       0x%012x  (%s)\n" stack_base
      (Pm2_util.Units.bytes_to_string stack_size);
    Printf.printf "slot geometry:\n";
    Printf.printf "  slot size   %s (%d pages)\n"
      (Pm2_util.Units.bytes_to_string g.Slot.slot_size)
      (Slot.pages_per_slot g);
    Printf.printf "  slot count  %d\n" g.Slot.count;
    Printf.printf "  bitmap      %d bytes per node\n" (Slot.bitmap_bytes g);
    let cm = Pm2_sim.Cost_model.default in
    Printf.printf "cost model (calibrated to the paper's testbed):\n";
    Printf.printf "  instruction %.3f us, page touch %.1f us, mmap base %.1f us\n"
      cm.Pm2_sim.Cost_model.instr_cost cm.Pm2_sim.Cost_model.page_touch
      cm.Pm2_sim.Cost_model.mmap_base;
    Printf.printf "  network     %.1f us latency + %.4f us/byte (~%.0f MB/s)\n"
      cm.Pm2_sim.Cost_model.net_latency cm.Pm2_sim.Cost_model.net_per_byte
      (1. /. cm.Pm2_sim.Cost_model.net_per_byte)
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print the memory layout, slot geometry and cost model.")
    Term.(const run $ nodes_arg $ slot_size_arg)

let list_cmd =
  let run () =
    print_endline "available program entry points:";
    List.iter (fun e -> Printf.printf "  %s\n" e) (entries ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available guest program entry points.")
    Term.(const run $ const ())

let () =
  let doc = "simulated PM2 runtime with iso-address thread migration (IPPS/SPDP'99)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "pm2sim" ~doc) [ run_cmd; balance_cmd; hpf_cmd; info_cmd; list_cmd ]))

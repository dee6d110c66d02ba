(* perfbench — host-time benchmark of the simulator.

     main.exe --workload compute|swarm|isochurn|ctl --seed N --seconds S
              --trace 0|1 [--daemon PATH] [--run-dir DIR]

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   runs the per-layer ledger. Human-readable "# ..." lines come first;
   the last line of standard output is the JSON result. See README.md. *)

open Perfbench

let workloads = [ "compute"; "swarm"; "isochurn"; "ctl" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  daemon : string;
  run_dir : string;
}

let parse () =
  let workload = ref "" and seed = ref Pinned.default_seed and seconds = ref 10.
  and trace = ref 0 and daemon = ref "_build/default/bin/pm2simd.exe"
  and run_dir = ref ".perfbench_run" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics or the per-layer ledger");
      ("--daemon", Arg.Set_string daemon, "PATH pm2simd executable (ctl)");
      ("--run-dir", Arg.Set_string run_dir, "DIR scratch directory for sockets (ctl)");
    ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) || !seconds <= 0.
  then begin
    Arg.usage spec usage;
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    daemon = !daemon; run_dir = !run_dir }

(* Run [f] until [seconds] have passed, at least [min] times and until
   [enough] holds of the results — but stop at three times the budget.
   One untimed warm-up call comes first: it grows the heap and lets the
   code reach a steady state, a cost every later iteration is spared. *)
let repeat ~seconds ?(min = 3) ?(enough = fun _ -> true) f =
  ignore (f ());
  let t0 = Clock.now_ns () in
  let budget = int_of_float (seconds *. 1e9) in
  let rec go acc n =
    let acc = f () :: acc in
    let el = Clock.now_ns () - t0 in
    if (n >= min && el >= budget && enough acc) || (budget > 0 && el >= 3 * budget) then
      List.rev acc
    else go acc (n + 1)
  in
  go [] 1

(* Every per-request latency metric needs ten samples beyond its p99. *)
let min_samples = 1000

type outcome = {
  metrics : Report.metric list;
  attempted : int;
  failed : int;
  fingerprint : string;
  notes : string list;
}

let disagreements a fps =
  let pinned = if a.seed = Pinned.default_seed then Pinned.expected a.workload else None in
  Fingerprint.disagreements ?pinned fps

(* Operations of runs whose fingerprint disagreed all count as failed. *)
let fail_runs ~bad ~per_run = bad * per_run

(* {1 End-to-end, tracing off} *)

let ns_per_event ~wall ~events = float_of_int wall /. float_of_int (max 1 events)

let spec_of ~workload seed =
  match workload with
  | "compute" -> Gen.compute seed
  | "swarm" -> Gen.swarm seed
  | _ -> Gen.isochurn seed

let e2e_cluster a =
  let spec = spec_of ~workload:a.workload a.seed in
  let samples its =
    List.fold_left (fun n (it : Cluster_work.iteration) -> n + List.length it.slices_ns) 0 its
  in
  let its =
    repeat ~seconds:a.seconds
      ~enough:(fun its -> samples its >= min_samples)
      (fun () -> Cluster_work.untraced spec)
  in
  let bad, fp =
    disagreements a
      (List.map (fun (it : Cluster_work.iteration) -> Some it.fp) its)
  in
  let per_run = List.length spec.spawns in
  let get f = List.map f its in
  {
    metrics =
      Metrics.e2e_metrics
        ~wall:(get (fun it -> it.wall_ns))
        ~npe:(get (fun it -> ns_per_event ~wall:it.wall_ns ~events:it.events))
        ~setup:(get (fun it -> it.setup_ns))
        (* after the warm-up and one measured iteration, so the peak does
           not depend on how many iterations the budget allowed *)
        ~rss:(List.hd its).rss_mb
        ~lat:(List.concat_map (fun (it : Cluster_work.iteration) -> it.slices_ns) its);
    attempted = List.fold_left (fun n (it : Cluster_work.iteration) -> n + it.attempted) 0 its;
    failed =
      List.fold_left (fun n (it : Cluster_work.iteration) -> n + it.failed) 0 its
      + fail_runs ~bad ~per_run;
    fingerprint = fp;
    notes =
      [ Printf.sprintf "iterations %d, slices of %d events: %d samples, events/iteration %d"
          (List.length its) Cluster_work.slice_events (samples its)
          (match its with it :: _ -> it.events | [] -> 0);
        "wall ms / cpu ms per iteration: "
        ^ String.concat " "
            (List.map
               (fun (it : Cluster_work.iteration) ->
                 Printf.sprintf "%.0f/%.0f" (Clock.s_of_ns it.wall_ns *. 1e3) (it.cpu_s *. 1e3))
               its) ];
  }

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let e2e_ctl a =
  ensure_dir a.run_dir;
  let replay = Ctl.replay ~seed:a.seed () in
  let samples its = List.fold_left (fun n (it : Ctl.iteration) -> n + List.length it.rtt_ns) 0 its in
  let its =
    repeat ~seconds:a.seconds
      ~enough:(fun its -> samples its >= min_samples)
      (fun () -> Ctl.socket_run ~daemon:a.daemon ~dir:a.run_dir ~seed:a.seed)
  in
  let bad, fp =
    disagreements a
      (replay.r_fp :: List.map (fun (it : Ctl.iteration) -> it.fp) its)
  in
  let per_run = match its with it :: _ -> it.attempted | [] -> 1 in
  let get f = List.map f its in
  {
    metrics =
      Metrics.e2e_metrics
        ~wall:(get (fun it -> it.wall_ns))
        ~npe:(get (fun it -> ns_per_event ~wall:it.wall_ns ~events:it.events))
        ~setup:(get (fun it -> it.setup_ns))
        ~rss:(Stats.median (get (fun it -> it.rss_mb)))
        ~lat:(List.concat_map (fun (it : Ctl.iteration) -> it.rtt_ns) its);
    attempted = List.fold_left (fun n (it : Ctl.iteration) -> n + it.attempted) 0 its;
    failed =
      List.fold_left (fun n (it : Ctl.iteration) -> n + it.failed) 0 its
      + replay.r_script.failed
      + (if replay.r_invariants then 0 else 1)
      + fail_runs ~bad ~per_run;
    fingerprint = fp;
    notes =
      [ Printf.sprintf "sessions %d, %d request samples, %d operations per session"
          (List.length its) (samples its)
          (match its with it :: _ -> it.attempted | [] -> 0) ];
  }

(* {1 The per-layer ledger} *)

let layers_cluster a =
  let spec = spec_of ~workload:a.workload a.seed in
  let half = a.seconds /. 2. in
  let un = repeat ~seconds:half ~min:2 (fun () -> Cluster_work.untraced spec) in
  let tr = repeat ~seconds:half ~min:1 (fun () -> Cluster_work.traced spec) in
  let un_fps = List.map (fun (it : Cluster_work.iteration) -> Some it.fp) un in
  let tr_fps = List.map (fun (t : Cluster_work.traced_run) -> Some t.t_fp) tr in
  let bad, fp = disagreements a (un_fps @ tr_fps) in
  let npe =
    Stats.median
      (List.map (fun (it : Cluster_work.iteration) -> ns_per_event ~wall:it.wall_ns ~events:it.events) un)
  in
  let scale =
    if a.workload <> "swarm" then 0.
    else
      let quarter = Gen.swarm ~workers:(Gen.swarm_workers / 4) a.seed in
      let q = repeat ~seconds:0. ~min:5 (fun () -> Cluster_work.untraced quarter) in
      npe
      /. Stats.median
           (List.map (fun (it : Cluster_work.iteration) -> ns_per_event ~wall:it.wall_ns ~events:it.events) q)
  in
  let s = Metrics.sum_ledgers (List.map (fun (t : Cluster_work.traced_run) -> t.ledger) tr) in
  let un_wall = Stats.median (List.map (fun (it : Cluster_work.iteration) -> float_of_int it.wall_ns) un) in
  let tr_wall =
    Stats.median (List.map (fun (t : Cluster_work.traced_run) -> float_of_int t.ledger.Layers.wall_ns) tr)
  in
  let n = float_of_int (List.length un) in
  let sumf f = List.fold_left (fun acc it -> acc +. f it) 0. un in
  let extras =
    {
      Metrics.no_extras with
      mvm = Cluster_work.mvm_replay spec;
      iso = Cluster_work.iso_replay spec;
      scale;
      minor_words_per_event =
        sumf (fun it -> it.minor_words) /. sumf (fun it -> float_of_int it.events);
      major_collections = sumf (fun it -> float_of_int it.major_collections) /. n;
      overhead_frac = (tr_wall /. un_wall) -. 1.;
    }
  in
  let last = List.nth tr (List.length tr - 1) in
  let per_run = List.length spec.spawns in
  {
    metrics = Metrics.layer_metrics s last.t_counts extras;
    attempted = (List.length un + List.length tr) * per_run;
    failed =
      List.fold_left (fun acc (it : Cluster_work.iteration) -> acc + it.failed) 0 un
      + List.fold_left (fun acc (t : Cluster_work.traced_run) -> acc + t.t_failed) 0 tr
      + fail_runs ~bad ~per_run;
    fingerprint = fp;
    notes =
      [ Printf.sprintf "untraced runs %d, traced runs %d (fingerprints agree: %b)"
          (List.length un) (List.length tr) (bad = 0) ];
  }

let layers_ctl a =
  ensure_dir a.run_dir;
  let half = a.seconds /. 2. in
  let socket = repeat ~seconds:half ~min:2 (fun () -> Ctl.socket_run ~daemon:a.daemon ~dir:a.run_dir ~seed:a.seed) in
  let g0 = Gc.quick_stat () in
  let plain = Ctl.replay ~seed:a.seed () in
  let g1 = Gc.quick_stat () in
  let traced =
    repeat ~seconds:half ~min:1 (fun () ->
        let led = Layers.create () in
        (led, Ctl.replay ~ledger:led ~seed:a.seed ()))
  in
  let bad, fp =
    disagreements a
      ((plain.r_fp :: List.map (fun (it : Ctl.iteration) -> it.fp) socket)
      @ List.map (fun (_, (r : Ctl.replay)) -> r.r_fp) traced)
  in
  let med_us xs = Stats.median (List.map Clock.us_of_ns xs) in
  let s = Metrics.sum_ledgers (List.map fst traced) in
  let _, last = List.nth traced (List.length traced - 1) in
  let c = Pm2_svc.Session.cluster last.r_session in
  let traced_wall = Stats.median (List.map (fun (_, (r : Ctl.replay)) -> float_of_int r.r_wall_ns) traced) in
  let extras =
    {
      Metrics.no_extras with
      decode_us = med_us plain.decode_ns;
      encode_us = med_us plain.encode_ns;
      apply_us = med_us plain.apply_ns;
      overhead_us =
        med_us (List.concat_map (fun (it : Ctl.iteration) -> it.rtt_ns) socket)
        -. med_us plain.rtt_ns;
      minor_words_per_event =
        (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int (max 1 plain.r_script.events);
      major_collections = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
      overhead_frac = (traced_wall /. float_of_int plain.r_wall_ns) -. 1.;
    }
  in
  let per_run = plain.r_script.requests + plain.r_script.jobs in
  {
    metrics = Metrics.layer_metrics s (Cluster_work.counts c) extras;
    attempted =
      List.fold_left (fun n (it : Ctl.iteration) -> n + it.attempted) 0 socket
      + ((1 + List.length traced) * per_run);
    failed =
      List.fold_left (fun n (it : Ctl.iteration) -> n + it.failed) 0 socket
      + plain.r_script.failed
      + List.fold_left (fun n (_, (r : Ctl.replay)) -> n + r.r_script.failed) 0 traced
      + (if plain.r_invariants then 0 else 1)
      + fail_runs ~bad ~per_run;
    fingerprint = fp;
    notes =
      [ Printf.sprintf "socket sessions %d, traced replays %d (fingerprints agree: %b)"
          (List.length socket) (List.length traced) (bad = 0) ];
  }

let () =
  let a = parse () in
  let handle _ = exit 130 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigint (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let o =
    match (a.workload, a.trace) with
    | "ctl", false -> e2e_ctl a
    | "ctl", true -> layers_ctl a
    | _, false -> e2e_cluster a
    | _, true -> layers_cluster a
  in
  (* a disagreeing run counts all its operations, so clamp *)
  let o = { o with failed = min o.failed (max 1 o.attempted) } in
  let correct = o.failed = 0 in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n" a.workload a.seed
    a.seconds (if a.trace then 1 else 0);
  List.iter (Printf.printf "# %s\n") o.notes;
  Printf.printf "# fingerprint %s\n" o.fingerprint;
  Printf.printf "# failed_frac %.6g (%d of %d operations)\n"
    (Report.failed_frac ~attempted:o.attempted ~failed:o.failed)
    o.failed o.attempted;
  Report.print_table o.metrics;
  print_endline
    (Report.result_line ~correct ~attempted:(max 1 o.attempted) ~failed:o.failed o.metrics)

(* Shared plumbing for the benchmark suite: cluster construction and the
   virtual-time measurement loops used to regenerate each paper figure. *)

open Pm2_core
module Table = Pm2_support.Table
module Units = Pm2_util.Units

let program = lazy (Pm2_programs.Figures.image ())

let cluster ?(nodes = 2) ?(distribution = Distribution.Round_robin) ?(cache = 16)
    ?(slot_size = 64 * 1024) ?(scheme = Cluster.Iso) ?(packing = Migration.Blocks_only)
    ?fault_plan ?sinks ?delta_cache_bytes () =
  let config =
    Pm2.Config.make ~nodes ~distribution ~cache_capacity:cache ~slot_size ~scheme
      ~packing ?fault_plan ?sinks ?delta_cache_bytes ()
  in
  Cluster.create config (Lazy.force program)

type allocator =
  | Malloc
  | Isomalloc

let allocator_name = function Malloc -> "malloc" | Isomalloc -> "pm2_isomalloc"

(* Average virtual time of [iters] fresh allocations of [size] bytes — the
   measurement of Fig. 11 (allocation + first-touch of fresh memory; no
   frees, so every allocation pays for new pages, as in the paper's
   averages). A fresh cluster per call keeps points independent. *)
let avg_alloc_time ?nodes ?distribution ?cache ?slot_size allocator ~size ~iters =
  let c = cluster ?nodes ?distribution ?cache ?slot_size () in
  ignore (Cluster.drain_charges c 0);
  (match allocator with
   | Malloc ->
     let heap = Cluster.node_heap c 0 in
     for _ = 1 to iters do
       ignore (Pm2_heap.Malloc.malloc_exn heap size)
     done
   | Isomalloc ->
     let th = Cluster.host_thread c ~node:0 in
     let env = Cluster.host_env c 0 in
     ignore (Cluster.drain_charges c 0) (* exclude thread-creation cost *);
     for _ = 1 to iters do
       match Iso_heap.isomalloc env th size with
       | Some _ -> ()
       | None -> failwith "iso-address area exhausted during bench"
     done);
  Cluster.check_invariants c;
  (Cluster.drain_charges c 0 /. float_of_int iters, c)

(* Run a guest entry to completion and return the cluster. *)
let run_guest ?nodes ?slot_size ?scheme ?packing ~entry ~arg () =
  let c = cluster ?nodes ?slot_size ?scheme ?packing () in
  ignore (Cluster.spawn c ~node:0 ~entry ~arg ());
  ignore (Cluster.run c);
  c

(* Attach a metrics registry to the cluster's event collector; the run's
   event counts and latency histograms accumulate into it. *)
let attach_metrics c =
  let m = Pm2_obs.Metrics.create () in
  Pm2_obs.Collector.attach (Cluster.obs c) (Pm2_obs.Metrics.sink m);
  m

(* Like [run_guest], with a metrics registry attached before the run. *)
let run_guest_observed ?nodes ?slot_size ?scheme ?packing ~entry ~arg () =
  let c = cluster ?nodes ?slot_size ?scheme ?packing () in
  let m = attach_metrics c in
  ignore (Cluster.spawn c ~node:0 ~entry ~arg ());
  ignore (Cluster.run c);
  (c, m)

(* One machine-readable line: per-node event counters and histogram
   quantiles, greppable as `; metrics <experiment> {...}`. *)
let metrics_json ~experiment m =
  Printf.printf "; metrics %s %s\n" experiment
    (Pm2_obs.Json.to_string (Pm2_obs.Metrics.to_json m))

let migration_latencies c =
  List.map (fun m -> m.Cluster.resumed -. m.Cluster.started) (Cluster.migrations c)

let section title =
  print_newline ();
  print_endline (String.make 72 '=');
  Printf.printf "%s\n" title;
  print_endline (String.make 72 '=')

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n" s) fmt

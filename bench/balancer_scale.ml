(* Balancer scaling: host cost per simulated event as the thread count
   and the node count grow.

   The workload is the irregular one of the balancer tests, the Figures
   "worker" the "spawner" entry starts, with the same demands (1000 to
   5000 us of CPU, burned in yielding 200 us chunks). All [workers] are
   born on node 0 at once, as a host spawns them, and a Threshold 4:4
   balancer spreads them. A victim the balancer picks stays pending until
   its next quantum (the paper, sections 2-3), so with thousands of
   workers most of node 0's threads are pending victims at any round. A
   round must not walk past them: per-event cost should stay flat as the
   workers grow, allocation above all. (Through the "spawner" entry
   itself the workers would trickle in one spawn at a time and node 0
   would never hold many.)

   Points: 4 nodes at 125, 500, 2000 and 4000 workers, then 2000 workers
   on 4, 16 and 64 nodes. Every rep runs every point once, in order, and
   each point keeps its fastest run (interleaved min-of-N); minor-heap
   words are the fewest any rep allocated. Host ns and words are per
   engine event, which the run counts itself. *)

open Pm2_core
module Balancer = Pm2_loadbal.Balancer
module Table = Pm2_support.Table

let reps = 5
let policy = Balancer.Threshold { high = 4; low = 4 }
let period = 400.
let points = [ (4, 125); (4, 500); (4, 2000); (4, 4000); (16, 2000); (64, 2000) ]
let point_name (nodes, workers) = Printf.sprintf "w%d-n%d" workers nodes

(* Each worker's demand, seeded as the spawner draws it. *)
let spawns workers =
  let prng = Pm2_util.Prng.create ~seed:42 in
  List.init workers (fun _ -> (0, "worker", 1000 + Pm2_util.Prng.int prng 4000))

(* One run to completion: (events, host seconds, minor words). *)
let run_once (nodes, workers) =
  let config = Pm2.Config.make ~nodes () in
  let program = Lazy.force Harness.program in
  let c = Pm2.launch ~config program ~spawns:(spawns workers) in
  ignore (Balancer.attach c ~policy ~period);
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let events = Cluster.step_events c ~max_events:max_int in
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  if Cluster.live_threads c <> 0 then failwith "balancer_scale: workers left running";
  (events, dt, words)

let run () =
  Harness.section
    (Printf.sprintf
       "Balancer scaling: Threshold 4:4 spreading workers born on node 0,\n\
        host ns and minor words per event, min of %d interleaved reps" reps);
  let n = List.length points in
  let best_s = Array.make n infinity and best_w = Array.make n infinity in
  let events = Array.make n 0 in
  for _ = 1 to reps do
    List.iteri
      (fun i p ->
        let ev, dt, words = run_once p in
        events.(i) <- ev;
        best_s.(i) <- Float.min best_s.(i) dt;
        best_w.(i) <- Float.min best_w.(i) words)
      points
  done;
  let cores = Domain.recommended_domain_count () in
  let per i = float_of_int events.(i) in
  let ns i = best_s.(i) *. 1e9 /. per i and words i = best_w.(i) /. per i in
  let t = Table.create [ "nodes"; "workers"; "events"; "ns/event"; "minor words/event" ] in
  List.iteri
    (fun i ((nodes, workers) as p) ->
      Table.add_rowf t "%d|%d|%d|%.0f|%.1f" nodes workers events.(i) (ns i) (words i);
      Report.record ~suite:"balancer-scale" ~name:(point_name p)
        ~params:
          [ ("nodes", string_of_int nodes);
            ("workers", string_of_int workers);
            ("policy", Balancer.Policy.to_string policy);
            ("reps", string_of_int reps);
            ("host_cores", string_of_int cores) ]
        [ ("events", per i); ("ns_per_event", ns i); ("minor_words_per_event", words i) ])
    points;
  Table.print t;
  (* The bar compares 2000 workers with 125, both on 4 nodes. *)
  let index p =
    let rec find i = function
      | [] -> invalid_arg "balancer_scale: point not swept"
      | q :: rest -> if q = p then i else find (i + 1) rest
    in
    find 0 points
  in
  let small = index (4, 125) and large = index (4, 2000) in
  let ns_ratio = ns large /. ns small and words_ratio = words large /. words small in
  Harness.note "2000 vs 125 workers on 4 nodes: %.2fx ns per event, %.2fx minor words per \
                event, %d host cores"
    ns_ratio words_ratio cores;
  Report.record ~suite:"balancer-scale" ~name:"flatness"
    ~params:
      [ ("small", point_name (4, 125));
        ("large", point_name (4, 2000));
        ("host_cores", string_of_int cores) ]
    [ ("ns_per_event_ratio", ns_ratio); ("minor_words_per_event_ratio", words_ratio) ]

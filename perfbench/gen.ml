(* Seeded input generators. The same seed gives the same inputs; the
   program under test sees only what these produce (spawn arguments,
   request scripts). Work per run is held near-constant across seeds —
   the totals are fixed and only their split and the values vary — so a
   metric's spread across seeds measures the host, not the input size. *)

module Balancer = Pm2_loadbal.Balancer

type spawn = {
  node : int;
  entry : string;
  arg : int;
  expect : string list; (* predicted self-check lines *)
}

type cluster_spec = {
  nodes : int;
  spawns : spawn list;
  balancer : (Balancer.policy * float) option; (* policy, period (µs) *)
}

let rng seed tag = Random.State.make [| seed; tag |]

(* [n] distinct keys below 2^31: a random high part above the index. *)
let keys st n =
  let bits = 11 in
  assert (n < 1 lsl bits);
  Array.init n (fun i -> (Random.State.int st (1 lsl (31 - bits - 1)) lsl bits) lor i)

(* Split [total] into [n] positive parts with seeded weights in [1, 3). *)
let split st ~total n =
  let w = Array.init n (fun _ -> 1. +. Random.State.float st 2.) in
  let sum = Array.fold_left ( +. ) 0. w in
  let parts = Array.map (fun wi -> max 1 (int_of_float (float_of_int total *. wi /. sum))) w in
  let short = total - Array.fold_left ( + ) 0 parts in
  parts.(0) <- max 1 (parts.(0) + short);
  parts

(* {1 compute} 4 nodes x 8 threads; a fixed total of kernel iterations. *)

let compute_nodes = 4
let compute_threads = 32
let compute_total_iters = 560_000

let compute seed =
  let st = rng seed 1 in
  let x0s = keys st compute_threads in
  let iters = split st ~total:compute_total_iters compute_threads in
  {
    nodes = compute_nodes;
    balancer = None;
    spawns =
      List.init compute_threads (fun i ->
          let x0 = x0s.(i) and iters = iters.(i) in
          {
            node = i mod compute_nodes;
            entry = "pb_compute";
            arg = Guest.compute_arg ~x0 ~iters;
            expect = [ Guest.predict_compute ~x0 ~iters ];
          });
  }

(* {1 swarm} workers born on node 0, spread by a Threshold balancer. *)

let swarm_nodes = 4
let swarm_workers = 500
let swarm_policy = Balancer.Threshold { high = 4; low = 4 }
let swarm_period = 400.

let swarm ?(workers = swarm_workers) seed =
  let st = rng seed 2 in
  (* mean demand 3000 µs, total fixed *)
  let demands = split st ~total:(3000 * workers) workers in
  {
    nodes = swarm_nodes;
    balancer = Some (swarm_policy, swarm_period);
    spawns =
      List.init workers (fun id ->
          let demand = min (Guest.demand_mod - 1) demands.(id) in
          {
            node = 0;
            entry = "pb_worker";
            arg = Guest.worker_arg ~id ~demand;
            expect = [ Guest.predict_worker ~id ~demand ];
          });
  }

(* {1 isochurn} 8 nodes x 16 list-churning threads. *)

let churn_threads = 128
let churn_cells = 24

let isochurn seed =
  let st = rng seed 3 in
  let x0s = keys st churn_threads in
  {
    nodes = Guest.churn_nodes;
    balancer = None;
    spawns =
      List.init churn_threads (fun i ->
          let x0 = x0s.(i) in
          {
            node = i mod Guest.churn_nodes;
            entry = "pb_churn";
            arg = Guest.churn_arg ~x0 ~k:churn_cells;
            expect = Guest.predict_churn ~x0 ~k:churn_cells;
          });
  }

(* {1 ctl} the daemon's job list and its request-mix stream. *)

type job = { j_entry : string; j_arg : int; j_node : int }

let ctl_nodes = 4

(* A fixed job list per entry point; only arguments and placement are
   seeded. Entries come from the daemon's built-in program image. Three
   sets of 23 jobs make a session long enough that its slowest requests
   are many distinct steps, not a handful. *)
let ctl_job_sets = 3

let ctl_jobs seed =
  let st = rng seed 4 in
  let r lo hi = lo + Random.State.int st (hi - lo) in
  let job j_entry j_arg j_node = { j_entry; j_arg; j_node } in
  List.concat
    (List.init ctl_job_sets (fun _ ->
         List.concat
           [
             List.init 6 (fun _ -> job "pingpong" (r 3 6) 0);
             List.init 3 (fun _ -> job "fig7" (r 120 130) 0);
             List.init 4 (fun _ -> job "pingpong_payload" (r 12000 20000) 0);
             List.init 3 (fun _ -> job "deep_pingpong" (r 16 24) 0);
             List.init 3 (fun _ -> job "registered_hop" (r 8 12) 0);
             List.init 4 (fun _ -> job "spawner" (r 14 17) (r 0 ctl_nodes));
           ]))

(* The request mix: a seeded stream of choices the closed-loop client
   draws from. *)
type action =
  | A_step of int
  | A_status
  | A_threads
  | A_migrate of int (* destination offset 1..nodes-1 *)
  | A_group of int
  | A_checkpoint
  | A_metrics

(* Requests are dealt from decks of 20 with a fixed composition, each
   deck shuffled by the seed, so every seed sends the same proportions
   of each request kind (and of step sizes). *)
let deck =
  List.map (fun n -> A_step n) [ 16; 24; 32; 40; 48; 16; 24; 32; 40; 48; 32 ]
  @ [ A_status; A_status; A_threads; A_threads; A_migrate 1; A_migrate 2; A_group 1;
      A_checkpoint; A_metrics ]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let ctl_mix seed =
  let st = rng seed 5 in
  let hand = ref [] in
  let offset () = 1 + Random.State.int st (ctl_nodes - 1) in
  let rec next () =
    match !hand with
    | [] ->
      hand := shuffle st deck;
      next ()
    | a :: rest -> (
      hand := rest;
      match a with
      | A_migrate _ -> A_migrate (offset ())
      | A_group _ -> A_group (offset ())
      | a -> a)
  in
  next

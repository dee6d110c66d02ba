module Engine = Pm2_sim.Engine
module Cluster = Pm2_core.Cluster
module Thread = Pm2_core.Thread
module Obs = Pm2_obs

type policy =
  | Threshold of { high : int; low : int }
  | Group_threshold of { high : int; low : int; limit : int }
  | Least_loaded
  | Round_robin_spread
  | Cache_affinity
  | Access_imbalance of { ratio : float; min_pages : int }

type stats = {
  mutable decisions : int;
  mutable migrations_requested : int;
  mutable groups_requested : int;
  mutable retries : int;
}

type t = {
  cluster : Cluster.t;
  policy : policy;
  period : float;
  stats : stats;
}

module Policy = struct
  type nonrec t = policy

  let grammar =
    "least-loaded, spread, cache-affinity, threshold:HIGH:LOW, \
     group-threshold:HIGH:LOW:LIMIT, access-imbalance[:RATIO:MINPAGES]"

  (* [%.12g] without trailing zeros, same discipline as the fault-spec
     grammar: the canonical form of a parsed policy parses back to the
     same policy. *)
  let fstr v = Printf.sprintf "%.12g" v

  let to_string = function
    | Least_loaded -> "least-loaded"
    | Round_robin_spread -> "spread"
    | Cache_affinity -> "cache-affinity"
    | Threshold { high; low } -> Printf.sprintf "threshold:%d:%d" high low
    | Group_threshold { high; low; limit } ->
      Printf.sprintf "group-threshold:%d:%d:%d" high low limit
    | Access_imbalance { ratio; min_pages } ->
      Printf.sprintf "access-imbalance:%s:%d" (fstr ratio) min_pages

  let int_field key v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "%s: not an integer: %s" key v)

  let float_field key v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f -> Ok f
    | _ -> Error (Printf.sprintf "%s: not a number: %s" key v)

  let ( let* ) = Result.bind

  let of_string s =
    match String.split_on_char ':' s with
    | [ "least-loaded" ] -> Ok Least_loaded
    | [ "spread" ] -> Ok Round_robin_spread
    | [ "cache-affinity" ] -> Ok Cache_affinity
    | [ "threshold"; hi; lo ] ->
      let* high = int_field "threshold" hi in
      let* low = int_field "threshold" lo in
      Ok (Threshold { high; low })
    | [ "group-threshold"; hi; lo; lim ] ->
      let* high = int_field "group-threshold" hi in
      let* low = int_field "group-threshold" lo in
      let* limit = int_field "group-threshold" lim in
      Ok (Group_threshold { high; low; limit })
    | [ "access-imbalance" ] -> Ok (Access_imbalance { ratio = 2.; min_pages = 1 })
    | [ "access-imbalance"; r; mp ] ->
      let* ratio = float_field "access-imbalance" r in
      let* min_pages = int_field "access-imbalance" mp in
      Ok (Access_imbalance { ratio; min_pages })
    | _ -> Error (Printf.sprintf "unknown policy %S (valid: %s)" s grammar)
end

let loads cluster =
  Array.init (Cluster.node_count cluster) (fun i -> Cluster.node_load cluster i)

let imbalance cluster =
  let l = loads cluster in
  Array.fold_left max 0 l - Array.fold_left min max_int l

(* A node whose interface is down (fault plan) is invisible to the
   balancer: its threads keep running locally, but nothing can migrate in
   or out, so it is neither a source nor a destination. *)
let alive cluster =
  Array.init (Cluster.node_count cluster) (fun i -> Cluster.node_alive cluster i)

(* Index of the max/min load among alive nodes; [None] if none qualify. *)
let argmax_alive a ok =
  let best = ref (-1) in
  Array.iteri (fun i v -> if ok.(i) && (!best < 0 || v > a.(!best)) then best := i) a;
  if !best < 0 then None else Some !best

let argmin_alive a ok =
  let best = ref (-1) in
  Array.iteri (fun i v -> if ok.(i) && (!best < 0 || v < a.(!best)) then best := i) a;
  if !best < 0 then None else Some !best

let request t th ~dest =
  Cluster.request_migration t.cluster th ~dest;
  t.stats.migrations_requested <- t.stats.migrations_requested + 1

(* Shed up to [n] threads from [src] to [dst] as ONE group migration: a
   single negotiation and a single packet train instead of [n] handshakes
   (the batching the v2 wire codec exists for). Returns how many threads
   were actually committed to the group. *)
let request_group t ~src ~dst n =
  match List.of_seq (Seq.take n (Cluster.movable_threads t.cluster src)) with
  | [] -> 0
  | members ->
    (match Cluster.migrate_group t.cluster members ~dest:dst with
     | Ok _gid ->
       let n = List.length members in
       t.stats.groups_requested <- t.stats.groups_requested + 1;
       t.stats.migrations_requested <- t.stats.migrations_requested + n;
       n
     | Error _ -> 0)

(* One balancing round; [true] if at least one migration was requested. *)
let balance_once t =
  let l = loads t.cluster in
  let ok = alive t.cluster in
  let nodes = Array.length l in
  if nodes < 2 then false
  else begin
    let requested = ref 0 in
    (match t.policy with
     | Threshold { high; low } ->
       Array.iteri
         (fun src load ->
            if ok.(src) && load > high then begin
              (* The destination depends only on the loads, and they change
                 only when a thread is sent: once one victim finds no
                 destination, none of the others can. Stop there instead
                 of walking the node's remaining threads. *)
              let rec shed excess victims =
                if excess > 0 then
                  match argmin_alive l ok, victims () with
                  | Some dst, Seq.Cons (th, rest) when dst <> src && l.(dst) < low ->
                    request t th ~dest:dst;
                    l.(dst) <- l.(dst) + 1;
                    l.(src) <- l.(src) - 1;
                    incr requested;
                    shed (excess - 1) rest
                  | _ -> ()
              in
              shed (load - high) (Cluster.movable_threads t.cluster src)
            end)
         l
     | Group_threshold { high; low; limit } ->
       Array.iteri
         (fun src load ->
            if ok.(src) && load > high then
              match argmin_alive l ok with
              | Some dst when dst <> src && l.(dst) < low ->
                let want = min (load - high) (max 1 limit) in
                let moved = request_group t ~src ~dst want in
                l.(dst) <- l.(dst) + moved;
                l.(src) <- l.(src) - moved;
                requested := !requested + moved
              | _ -> ())
         l
     | Least_loaded ->
       (match argmax_alive l ok, argmin_alive l ok with
        | Some src, Some dst when src <> dst && l.(src) - l.(dst) > 1 ->
          (match Seq.uncons (Cluster.movable_threads t.cluster src) with
           | Some (th, _) ->
             request t th ~dest:dst;
             incr requested
           | None -> ())
        | _ -> ())
     | Round_robin_spread ->
       (match argmax_alive l ok with
        | Some src when l.(src) > 1 ->
          Seq.iteri
            (fun i th ->
               let dst = i mod nodes in
               if dst <> src && ok.(dst) then begin
                 request t th ~dest:dst;
                 incr requested
               end)
            (Cluster.movable_threads t.cluster src)
        | _ -> ())
     | Cache_affinity ->
       (* Like [Least_loaded], but when several destinations are nearly as
          idle as the minimum, prefer one already holding a residual image
          of the chosen thread: migrating there ships hashes instead of
          pages (see {!Pm2_core.Cluster.delta_affinity}). Falls back to
          plain least-loaded when delta migration is off. *)
       (match argmax_alive l ok with
        | Some src ->
          (match Seq.uncons (Cluster.movable_threads t.cluster src) with
           | Some (th, _) ->
             (match argmin_alive l ok with
              | Some min_dst ->
                let best = ref (-1) in
                Array.iteri
                  (fun dst load ->
                     if
                       ok.(dst) && dst <> src
                       && l.(src) - load > 1
                       && load <= l.(min_dst) + 1
                     then
                       match !best with
                       | -1 -> best := dst
                       | b ->
                         let aff d = Cluster.delta_affinity t.cluster th ~dest:d in
                         if
                           (aff dst && not (aff b))
                           || (aff dst = aff b && load < l.(b))
                         then best := dst)
                  l;
                (match !best with
                 | -1 -> ()
                 | dst ->
                   request t th ~dest:dst;
                   incr requested)
              | None -> ())
           | None -> ())
        | None -> ())
     | Access_imbalance { ratio; min_pages } ->
       (* Telemetry-driven placement: balance write bandwidth, not run-queue
          length. The cluster's heat feed (pages stored per observation
          window, from the dirty-epoch bookkeeping the migration codec
          already pays for) names the hottest node; when its heat exceeds
          [ratio] times the coldest node's, the single hottest thread moves
          there. [min_pages] ignores threads too cold to matter — moving
          them would churn without shifting any bandwidth. *)
       Cluster.refresh_heat t.cluster;
       let feed = Cluster.feed t.cluster in
       let node_heat i = Obs.Feed.get_or feed (Obs.Feed.node_heat_key i) ~default:0. in
       let heats = Array.init nodes node_heat in
       (match argmax_alive heats ok, argmin_alive heats ok with
        | Some hot, Some cold
          when hot <> cold && heats.(hot) >= ratio *. Float.max 1. heats.(cold) ->
          let thread_heat (th : Thread.t) =
            Obs.Feed.get_or feed (Obs.Feed.thread_heat_key th.Thread.id) ~default:0.
          in
          let victim =
            Seq.fold_left
              (fun best th ->
                match best with
                | Some b when thread_heat b >= thread_heat th -> best
                | _ -> Some th)
              None
              (Cluster.movable_threads t.cluster hot)
          in
          (match victim with
           | Some th when thread_heat th >= float_of_int min_pages ->
             request t th ~dest:cold;
             incr requested
           | _ -> ())
        | _ -> ()));
    if !requested > 0 then t.stats.decisions <- t.stats.decisions + 1;
    !requested > 0
  end

(* An aborted migration (destination rejected, died, or the transfer was
   undeliverable) hands the thread back: retry it on the next-best alive
   node — excluding the failed one and its own — if that still improves
   the balance. *)
let retry_elsewhere t (th : Thread.t) ~failed =
  let l = loads t.cluster in
  let ok = alive t.cluster in
  let src = th.Thread.node in
  if failed >= 0 && failed < Array.length ok then ok.(failed) <- false;
  if src >= 0 && src < Array.length ok then ok.(src) <- false;
  match argmin_alive l ok with
  | Some dst when l.(dst) + 1 < l.(src) ->
    request t th ~dest:dst;
    t.stats.retries <- t.stats.retries + 1
  | _ -> ()

let attach cluster ~policy ~period =
  if period <= 0. then invalid_arg "Balancer.attach: period <= 0";
  let t =
    {
      cluster;
      policy;
      period;
      stats =
        { decisions = 0; migrations_requested = 0; groups_requested = 0; retries = 0 };
    }
  in
  Cluster.set_migration_abort_handler cluster (fun th ~failed ->
      retry_elsewhere t th ~failed);
  let engine = Cluster.engine cluster in
  let rec wake () =
    if Cluster.live_threads cluster > 0 then begin
      ignore (balance_once t);
      Engine.schedule_after engine ~delay:period wake
    end
  in
  Engine.schedule_after engine ~delay:period wake;
  t

let stats t = t.stats

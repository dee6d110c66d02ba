(* The typed control plane: one resident cluster behind total,
   result-returning operations. See session.mli for the contract. *)

module Cluster = Pm2_core.Cluster
module Thread = Pm2_core.Thread
module Pm2 = Pm2_core.Pm2
module Negotiation = Pm2_core.Negotiation
module Engine = Pm2_sim.Engine
module Trace = Pm2_sim.Trace
module Obs = Pm2_obs
module Plan = Pm2_fault.Plan
module Balancer = Pm2_loadbal.Balancer
module Image_store = Pm2_recover.Image_store

type error =
  | Bad_request of string
  | Unknown_entry of string
  | Unknown_thread of int
  | Bad_node of int
  | Rejected of string
  | Unsupported of string
  | Shutting_down
  | Runtime of Pm2.Error.t

let error_to_string = function
  | Bad_request m -> Printf.sprintf "bad request: %s" m
  | Unknown_entry e -> Printf.sprintf "unknown entry %S" e
  | Unknown_thread tid -> Printf.sprintf "unknown thread %d" tid
  | Bad_node n -> Printf.sprintf "node %d outside the cluster" n
  | Rejected m -> Printf.sprintf "rejected: %s" m
  | Unsupported m -> Printf.sprintf "unsupported: %s" m
  | Shutting_down -> "session shutting down"
  | Runtime e -> Pm2.Error.to_string e

type submit_spec = { entry : string; arg : int; node : int }

type thread_info = {
  ti_tid : int;
  ti_node : int;
  ti_state : string;
  ti_pending_dest : int option;
}

type status = {
  st_time : float;
  st_live : int;
  st_threads : int;
  st_migrations : int;
  st_groups : int;
  st_negotiations : int;
  st_aborted : int;
  st_mean_latency : float option;
  st_faults_enabled : bool;
  st_faults_summary : string;
  st_retransmits : int;
  st_duplicates : int;
  st_give_ups : int;
  st_checkpointing : bool;
  st_checkpoints : int;
  st_page_saves : int;
  st_dedup_pages : int;
  st_restored : int;
  st_stranded : int;
  st_lost : Pm2.Error.t list;
}

type t = {
  cluster : Cluster.t;
  metrics : Obs.Metrics.t;
  mutable balancer : Balancer.t option;
  mutable next_sub : int;
  mutable subs : int list; (* live subscription ids *)
  mutable closed : bool;
}

let create ?config ?program () =
  let config =
    match config with Some c -> c | None -> Cluster.default_config ~nodes:2
  in
  let program =
    match program with Some p -> p | None -> Pm2_programs.Figures.image ()
  in
  let cluster = Cluster.create config program in
  let metrics = Obs.Metrics.create () in
  Obs.Collector.attach (Cluster.obs cluster) (Obs.Metrics.sink metrics);
  { cluster; metrics; balancer = None; next_sub = 0; subs = []; closed = false }

let cluster t = t.cluster
let nodes t = Cluster.node_count t.cluster
let entries t = List.map fst (Cluster.program t.cluster).Pm2_mvm.Program.entries
let now t = Engine.now (Cluster.engine t.cluster)
let live_threads t = Cluster.live_threads t.cluster
let pending_events t = Engine.pending (Cluster.engine t.cluster)
let closed t = t.closed

let guard t k = if t.closed then Error Shutting_down else k ()

let check_node t n = n >= 0 && n < nodes t

(* -- driving -- *)

let submit t { entry; arg; node } =
  guard t (fun () ->
      if not (check_node t node) then Error (Bad_node node)
      else if not (List.mem entry (entries t)) then Error (Unknown_entry entry)
      else
        match Cluster.spawn t.cluster ~node ~entry ~arg () with
        | th -> Ok th.Thread.id
        | exception Failure msg -> Error (Rejected msg)
        | exception e -> (
          match Pm2.Error.of_exn e with
          | Some err -> Error (Runtime err)
          | None -> raise e))

let step t ~max_events =
  if t.closed || max_events <= 0 then 0
  else begin
    let ran = Cluster.step_events t.cluster ~max_events in
    (* A drained queue is quiescence: commit buffered guest output the
       same way a full [Cluster.run] would. *)
    if Engine.pending (Cluster.engine t.cluster) = 0 then
      ignore (Cluster.run t.cluster);
    ran
  end

let run_until t ~time =
  guard t (fun () -> Ok (Cluster.run ~until:(Float.max time (now t)) t.cluster))

let run t = guard t (fun () -> Ok (Cluster.run t.cluster))

(* -- queries (also answered after shutdown: final reports) -- *)

let state_string (th : Thread.t) =
  match th.Thread.state with
  | Thread.Ready -> "ready"
  | Thread.Running -> "running"
  | Thread.Blocked -> "blocked"
  | Thread.Migrating -> "migrating"
  | Thread.Exited Thread.Halted -> "exited"
  | Thread.Exited (Thread.Faulted _) -> "faulted"
  | Thread.Exited Thread.Killed -> "killed"

let query_threads t =
  Cluster.threads t.cluster
  |> List.map (fun (th : Thread.t) ->
         {
           ti_tid = th.Thread.id;
           ti_node = th.Thread.node;
           ti_state = state_string th;
           ti_pending_dest = th.Thread.pending_migration;
         })

let metrics t = t.metrics

let query_heat t =
  Cluster.refresh_heat t.cluster;
  Obs.Feed.to_list (Cluster.feed t.cluster)

let status t =
  let c = t.cluster in
  let rel = Cluster.reliable c in
  let store = Cluster.image_store c in
  let plan = Cluster.faults c in
  {
    st_time = now t;
    st_live = Cluster.live_threads c;
    st_threads = List.length (Cluster.threads c);
    st_migrations = List.length (Cluster.migrations c);
    st_groups = List.length (Cluster.group_migrations c);
    st_negotiations = Negotiation.count (Cluster.negotiation c);
    st_aborted = Cluster.aborted_migrations c;
    st_mean_latency = Pm2.mean_migration_latency c;
    st_faults_enabled = Plan.enabled plan;
    st_faults_summary = (if Plan.enabled plan then Plan.summary plan else "");
    st_retransmits = Pm2_net.Reliable.retransmits rel;
    st_duplicates = Pm2_net.Reliable.duplicates_suppressed rel;
    st_give_ups = Pm2_net.Reliable.give_ups rel;
    st_checkpointing = Cluster.checkpointing c;
    st_checkpoints = Cluster.checkpoints c;
    st_page_saves = Image_store.saves store;
    st_dedup_pages = Image_store.dedup_pages store;
    st_restored = Cluster.restored_threads c;
    st_stranded = Cluster.stranded_threads c;
    st_lost = Pm2.lost_threads c;
  }

let output t ~timed =
  let tr = Cluster.trace t.cluster in
  if timed then Trace.timed_lines tr else Trace.lines tr

(* -- control -- *)

let find_thread t tid =
  match Cluster.thread t.cluster tid with
  | th -> Ok th
  | exception Not_found -> Error (Unknown_thread tid)

let ( let* ) = Result.bind

let migrate t ~tid ~dest =
  guard t (fun () ->
      if not (check_node t dest) then Error (Bad_node dest)
      else
        let* th = find_thread t tid in
        if Thread.is_exited th then Error (Rejected "thread already exited")
        else begin
          Cluster.request_migration t.cluster th ~dest;
          Ok ()
        end)

let migrate_group t ~tids ~dest =
  guard t (fun () ->
      if not (check_node t dest) then Error (Bad_node dest)
      else
        let* ths =
          List.fold_left
            (fun acc tid ->
              let* acc = acc in
              let* th = find_thread t tid in
              Ok (th :: acc))
            (Ok []) tids
        in
        match Cluster.migrate_group t.cluster (List.rev ths) ~dest with
        | Ok gid -> Ok gid
        | Error reason -> Error (Rejected reason))

let inject_faults t spec =
  guard t (fun () ->
      let plan = Cluster.faults t.cluster in
      if not (Plan.enabled plan) then
        Error
          (Unsupported
             "fault injection needs a cluster armed with an enabled fault \
              plan (the hardened protocols are selected at creation)")
      else if spec.Plan.crashes <> [] then
        Error
          (Unsupported
             "crash items are scheduled by the recovery supervisor at \
              cluster creation and cannot be injected at runtime")
      else begin
        Plan.set_spec plan spec;
        Ok ()
      end)

let balance t ~policy ?(period = 400.) () =
  guard t (fun () ->
      if t.balancer <> None then Error (Bad_request "balancer already attached")
      else if period <= 0. then Error (Bad_request "balance period must be > 0")
      else begin
        t.balancer <- Some (Balancer.attach t.cluster ~policy ~period);
        Ok ()
      end)

let balancer_stats t = Option.map Balancer.stats t.balancer

let checkpoint t = guard t (fun () -> Ok (Cluster.checkpoint_now t.cluster))

(* -- subscriptions -- *)

let sub_name id = Printf.sprintf "svc.sub.%d" id

let subscribe t f =
  let id = t.next_sub in
  t.next_sub <- id + 1;
  t.subs <- id :: t.subs;
  Obs.Collector.attach (Cluster.obs t.cluster)
    (Obs.Sink.make ~name:(sub_name id) (fun ~time ~node ev -> f ~time ~node ev));
  id

let unsubscribe t id =
  if List.mem id t.subs then begin
    t.subs <- List.filter (fun s -> s <> id) t.subs;
    Obs.Collector.detach (Cluster.obs t.cluster) (sub_name id)
  end

let shutdown t =
  if not t.closed then begin
    List.iter (fun id -> Obs.Collector.detach (Cluster.obs t.cluster) (sub_name id)) t.subs;
    t.subs <- [];
    t.closed <- true
  end

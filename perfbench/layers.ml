(* The per-layer ledger of a traced pass.

   The pass commits one engine event at a time and times each step. A
   sink on the cluster's collector notes which event kinds the step
   emitted, and the step's time is charged to the highest-priority layer
   among them; a step emitting nothing is a scheduler quantum (MVM
   dispatch plus the scheduler) unless it is the balancer's wake-up,
   recognised by its engine sequence number. Time spent inside the
   benchmark's own sinks is charged to the obs layer and subtracted from
   the step. *)

module Cluster = Pm2_core.Cluster
module Engine = Pm2_sim.Engine
module Event = Pm2_obs.Event

type layer =
  | Quantum
  | Balancer
  | Checkpoint
  | Negotiation
  | Migration
  | Net
  | Slots
  | Iso_heap
  | Recovery
  | Obs
  | Session (* control-plane requests other than steps (ctl) *)
  | Protocol (* the pm2-ctl/1 codec, both sides (ctl) *)

let all =
  [ Quantum; Balancer; Checkpoint; Negotiation; Migration; Net; Slots; Iso_heap; Recovery; Obs;
    Session; Protocol ]

let index = function
  | Quantum -> 0
  | Balancer -> 1
  | Checkpoint -> 2
  | Negotiation -> 3
  | Migration -> 4
  | Net -> 5
  | Slots -> 6
  | Iso_heap -> 7
  | Recovery -> 8
  | Obs -> 9
  | Session -> 10
  | Protocol -> 11

(* Emitted-kind bit of an event; [Quantum] for kinds that belong to the
   step that ran the guest (prints, the node-local heap). *)
let layer_of_event = function
  | Event.Checkpoint _ -> Checkpoint
  | Event.Neg_request _ | Event.Neg_round _ | Event.Neg_grant _ | Event.Neg_deny _
  | Event.Neg_abort _ | Event.Slot_transfer _ ->
    Negotiation
  | Event.Migration_phase _ | Event.Pack_slot _ | Event.Unpack_slot _
  | Event.Migration_abort _ | Event.Migration_rollback _ | Event.Group_migration_start _
  | Event.Group_migration_phase _ | Event.Group_migration_commit _
  | Event.Group_migration_abort _ | Event.Delta_hit _ | Event.Delta_miss _
  | Event.Delta_evict _ | Event.Span_end _ ->
    Migration
  | Event.Packet_send _ | Event.Packet_deliver _ | Event.Fault_inject _
  | Event.Net_retransmit _ | Event.Net_dup_suppress _ | Event.Net_give_up _
  | Event.Train_send _ | Event.Train_retransmit _ | Event.Train_ack _ ->
    Net
  | Event.Slot_reserve _ | Event.Slot_release _ -> Slots
  | Event.Block_alloc { heap = Event.Iso; _ } | Event.Block_free { heap = Event.Iso; _ }
  | Event.Block_split { heap = Event.Iso; _ } | Event.Block_coalesce { heap = Event.Iso; _ } ->
    Iso_heap
  | Event.Node_kill _ | Event.Node_restart _ | Event.Node_crash _ | Event.Node_suspected _
  | Event.Node_dead _ | Event.Thread_restore _ | Event.Thread_lost _
  | Event.Delta_invalidate _ ->
    Recovery
  | Event.Block_alloc _ | Event.Block_free _ | Event.Block_split _ | Event.Block_coalesce _
  | Event.Thread_printf _ ->
    Quantum

(* Charge priority when one step emitted several kinds. *)
let priority = [ Checkpoint; Negotiation; Migration; Net; Recovery; Slots; Iso_heap ]

type t = {
  self_ns : int array; (* per layer *)
  steps : int array; (* steps charged per layer *)
  mutable mask : int; (* kinds emitted by the current step *)
  mutable step_obs_ns : int; (* sink time inside the current step *)
  mutable wall_ns : int; (* the stepping loop, end to end *)
  mutable committed : int; (* engine events committed *)
  (* counts made where the work happens *)
  mutable events : int; (* collector events seen *)
  mutable slot_reserves : int;
  mutable slot_cache_hits : int;
  mutable iso_allocs : int;
  mutable delta_hit_pages : int;
  mutable delta_miss_pages : int;
  mutable ckpt_bytes : int;
  mutable ckpt_full_bytes : int;
  mutable sample : (float * int * Event.t) list; (* events kept for the encode replay *)
  mutable sampled : int;
}

let create () =
  let n = List.length all in
  {
    self_ns = Array.make n 0;
    steps = Array.make n 0;
    mask = 0;
    step_obs_ns = 0;
    wall_ns = 0;
    committed = 0;
    events = 0;
    slot_reserves = 0;
    slot_cache_hits = 0;
    iso_allocs = 0;
    delta_hit_pages = 0;
    delta_miss_pages = 0;
    ckpt_bytes = 0;
    ckpt_full_bytes = 0;
    sample = [];
    sampled = 0;
  }

let sample_cap = 100_000

let record t ~time ~node ev =
  let t0 = Clock.now_ns () in
  t.mask <- t.mask lor (1 lsl index (layer_of_event ev));
  t.events <- t.events + 1;
  (match ev with
   | Event.Slot_reserve { cache_hit; _ } ->
     t.slot_reserves <- t.slot_reserves + 1;
     if cache_hit then t.slot_cache_hits <- t.slot_cache_hits + 1
   | Event.Block_alloc { heap = Event.Iso; _ } -> t.iso_allocs <- t.iso_allocs + 1
   | Event.Delta_hit { pages; _ } -> t.delta_hit_pages <- t.delta_hit_pages + pages
   | Event.Delta_miss { pages; _ } -> t.delta_miss_pages <- t.delta_miss_pages + pages
   | Event.Checkpoint { bytes; full_bytes; _ } ->
     t.ckpt_bytes <- t.ckpt_bytes + bytes;
     t.ckpt_full_bytes <- t.ckpt_full_bytes + full_bytes
   | _ -> ());
  if t.sampled < sample_cap then begin
    t.sample <- (time, node, ev) :: t.sample;
    t.sampled <- t.sampled + 1
  end;
  t.step_obs_ns <- t.step_obs_ns + (Clock.now_ns () - t0)

let sink t = Pm2_obs.Sink.make ~name:"perfbench-ledger" (fun ~time ~node ev -> record t ~time ~node ev)

(* Extra obs time spent inside the current step by another sink (the
   ctl replay's event encoder). *)
let add_obs t ns = t.step_obs_ns <- t.step_obs_ns + ns

let classify mask =
  match List.find_opt (fun l -> mask land (1 lsl index l) <> 0) priority with
  | Some l -> l
  | None -> Quantum

let add_self t layer ns = t.self_ns.(index layer) <- t.self_ns.(index layer) + ns

let charge t layer ns =
  add_self t layer ns;
  t.steps.(index layer) <- t.steps.(index layer) + 1

(* Balancer wake-ups are engine events like any other; the balancer
   reschedules itself last thing in its wake-up, so its next event is
   the last sequence number that step assigned. *)
type balancer_probe = { mutable next_wake : int }

let attach_balancer c ~policy ~period =
  let eng = Cluster.engine c in
  let s0 = Engine.next_seq eng in
  ignore (Pm2_loadbal.Balancer.attach c ~policy ~period);
  let s1 = Engine.next_seq eng in
  { next_wake = (if s1 > s0 then s1 - 1 else -1) }

(* [step t c ~probe ~run] commits one event with [run] (which must step
   cluster [c] by exactly one event), charging its time; returns the
   number of events committed (0 when drained). *)
let step t c ~probe ~run =
  let eng = Cluster.engine c in
  match Engine.peek_next eng with
  | None -> 0
  | Some (_, seq) ->
    let is_wake = match probe with Some p -> p.next_wake = seq | None -> false in
    let s0 = Engine.next_seq eng in
    t.mask <- 0;
    t.step_obs_ns <- 0;
    let n, dt = Clock.time run in
    if n > 0 then begin
      (match probe with
       | Some p when is_wake ->
         let s1 = Engine.next_seq eng in
         p.next_wake <- (if s1 > s0 then s1 - 1 else -1)
       | _ -> ());
      let layer = if is_wake then Balancer else classify t.mask in
      charge t layer (max 0 (dt - t.step_obs_ns));
      add_self t Obs t.step_obs_ns;
      t.committed <- t.committed + n
    end;
    n

let self_ns t l = t.self_ns.(index l)
let steps t l = t.steps.(index l)

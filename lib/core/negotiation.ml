module Bitset = Pm2_util.Bitset
module Cm = Pm2_sim.Cost_model
module Network = Pm2_net.Network
module Obs = Pm2_obs
module Fault = Pm2_fault

(* Grace period after which a dead requester's hold on the critical
   section expires: a few multiples of the 2-node protocol time (255 µs
   on BIP/Myrinet), so a live system never trips it. *)
let default_lease = 1_000.

type t = {
  geometry : Slot.t;
  mgrs : Slot_manager.t array;
  net : Network.t;
  mutable lock_free_at : float; (* system-wide critical section (FIFO) *)
  mutable count : int;
  durations : Pm2_util.Stats.Acc.t;
  obs : Obs.Collector.t;
  faults : Fault.Plan.t;
  lease : float;
  mutable aborted : int;
  global : Bitset.t; (* the global OR, refilled by each negotiation *)
}

type grant = {
  start : int;
  duration : float;
  bought : int;
}

type error =
  | Out_of_slots of { n : int; duration : float }
  | Aborted of { lease_until : float; duration : float }

let error_to_string = function
  | Out_of_slots { n; duration } ->
    Printf.sprintf "negotiation denied: no run of %d contiguous free slots (%.1f us)" n
      duration
  | Aborted { lease_until; duration = _ } ->
    Printf.sprintf "negotiation aborted: requester died in the critical section (lease until %.1f us)"
      lease_until

let create ?(obs = Obs.Collector.null) ?(faults = Fault.Plan.none)
    ?(lease = default_lease) ~geometry ~mgrs ~net () =
  {
    geometry;
    mgrs;
    net;
    lock_free_at = 0.;
    count = 0;
    durations = Pm2_util.Stats.Acc.create ();
    obs;
    faults;
    lease;
    aborted = 0;
    global = Bitset.create geometry.Slot.count;
  }

let emit t ~node ev = Obs.Collector.emit t.obs ~node ev

(* A node crash rebuilds the node around a fresh address space; the slot
   ownership ledger survives (it is global knowledge), but the manager
   object is new and the negotiation must consult the live one. *)
let set_mgr t ~node mgr = t.mgrs.(node) <- mgr

let lock_msg_bytes = 64

(* Protocol time for a [nodes]-node configuration: critical-section entry
   round trip, per-remote-node bitmap gather and scatter, per-node OR and
   one global first-fit scan, critical-section release. *)
let duration_model t ~nodes =
  let cm = Network.cost_model t.net in
  let m bytes = Cm.message_cost cm ~bytes in
  let bitmap_bytes = Slot.bitmap_bytes t.geometry in
  let scan = float_of_int bitmap_bytes *. cm.Cm.bitmap_scan_per_byte in
  let remotes = float_of_int (nodes - 1) in
  cm.Cm.negotiation_base
  +. (2. *. m lock_msg_bytes) (* lock request + grant *)
  +. m lock_msg_bytes (* lock release *)
  +. (float_of_int nodes *. scan) (* OR of every bitmap *)
  +. scan (* first-fit run search *)
  +. (remotes *. (m lock_msg_bytes +. (2. *. m bitmap_bytes)))
(* per remote: gather request, bitmap reply, updated-bitmap scatter *)

let record_protocol_traffic t ~requester =
  let nodes = Array.length t.mgrs in
  let bitmap_bytes = Slot.bitmap_bytes t.geometry in
  (* Lock manager lives on node 0. *)
  Network.record_virtual t.net ~src:requester ~dst:0 ~bytes:lock_msg_bytes;
  Network.record_virtual t.net ~src:0 ~dst:requester ~bytes:lock_msg_bytes;
  for n = 0 to nodes - 1 do
    if n <> requester then begin
      Network.record_virtual t.net ~src:requester ~dst:n ~bytes:lock_msg_bytes;
      Network.record_virtual t.net ~src:n ~dst:requester ~bytes:bitmap_bytes;
      Network.record_virtual t.net ~src:requester ~dst:n ~bytes:bitmap_bytes;
      if Obs.Collector.enabled t.obs then
        emit t ~node:requester
          (Obs.Event.Neg_round
             { requester; peer = n; bytes = lock_msg_bytes + (2 * bitmap_bytes) })
    end
  done;
  Network.record_virtual t.net ~src:requester ~dst:0 ~bytes:lock_msg_bytes

(* Move ownership of free slot [slot] to [requester], whoever holds it. *)
let transfer t ~requester slot =
  if Slot_manager.owns_free t.mgrs.(requester) slot then false
  else begin
    let nodes = Array.length t.mgrs in
    let owner = ref (-1) in
    for i = 0 to nodes - 1 do
      if i <> requester && Slot_manager.owns_free t.mgrs.(i) slot then owner := i
    done;
    if !owner < 0 then failwith "Negotiation: free slot with no owner";
    Slot_manager.steal_exn t.mgrs.(!owner) slot;
    Slot_manager.grant_exn t.mgrs.(requester) slot;
    if Obs.Collector.enabled t.obs then
      emit t ~node:requester
        (Obs.Event.Slot_transfer { slot; seller = !owner; buyer = requester });
    true
  end

(* The OR of every node's bitmap, in [t.global]: valid until the next
   call. *)
let global_or t =
  let nodes = Array.length t.mgrs in
  Bitset.copy_into ~into:t.global (Slot_manager.bitmap t.mgrs.(0));
  for i = 1 to nodes - 1 do
    Bitset.or_into ~into:t.global (Slot_manager.bitmap t.mgrs.(i))
  done;
  t.global

(* When the fault plan is live, a requester whose interface dies inside
   the critical-section window cannot complete the protocol: no transfer
   is applied (so the bitmap-disjointness invariant is untouched) and the
   lock it held expires [lease] after the death instant, at which point
   queued negotiations proceed. *)
let aborted_by_kill t ~requester ~duration =
  if not (Fault.Plan.enabled t.faults) then None
  else begin
    let now = Pm2_sim.Engine.now (Network.engine t.net) in
    let cs_start = Float.max now t.lock_free_at in
    match
      Fault.Plan.killed_during t.faults ~node:requester ~from_:cs_start
        ~until:(cs_start +. duration)
    with
    | None -> None
    | Some dead_at -> Some (now, dead_at)
  end

let execute ?(prebuy = 0) t ~requester ~n =
  if n <= 0 then invalid_arg "Negotiation.execute: n <= 0";
  if prebuy < 0 then invalid_arg "Negotiation.execute: prebuy < 0";
  let nodes = Array.length t.mgrs in
  if requester < 0 || requester >= nodes then invalid_arg "Negotiation.execute: bad node";
  let duration = duration_model t ~nodes in
  match aborted_by_kill t ~requester ~duration with
  | Some (now, dead_at) ->
    t.count <- t.count + 1;
    t.aborted <- t.aborted + 1;
    let lease_until = dead_at +. t.lease in
    t.lock_free_at <- Float.max t.lock_free_at lease_until;
    if Obs.Collector.enabled t.obs then begin
      emit t ~node:requester (Obs.Event.Neg_request { requester; n });
      emit t ~node:requester (Obs.Event.Neg_abort { requester; n; lease_until })
    end;
    (* [duration] here is how long the requester (if it ever resumes) and
       the lock stay tied up, measured from [now]. *)
    Error (Aborted { lease_until; duration = Float.max 0. (lease_until -. now) })
  | None ->
    t.count <- t.count + 1;
    Pm2_util.Stats.Acc.add t.durations duration;
    if Obs.Collector.enabled t.obs then
      emit t ~node:requester (Obs.Event.Neg_request { requester; n });
    record_protocol_traffic t ~requester;
    (* Global OR of all bitmaps (step 2c). *)
    let global = global_or t in
    (match Bitset.find_run global n with
     | None ->
       (* The global OR has no adequate run — the system, not just this
          node, is out of contiguous slots. Typed so callers stop
          special-casing a [None] start. *)
       if Obs.Collector.enabled t.obs then
         emit t ~node:requester (Obs.Event.Neg_deny { requester; n; dur = duration });
       Error (Out_of_slots { n; duration })
     | Some start ->
       (* Buy the non-local slots of the run (step 2d). *)
       let bought = ref 0 in
       for slot = start to start + n - 1 do
         if transfer t ~requester slot then incr bought
       done;
       (* Pre-buy: extend the run forward over free slots while they last
          (the critical section is already paid for). *)
       let extra = ref 0 in
       let slot = ref (start + n) in
       while !extra < prebuy && !slot < Bitset.length global && Bitset.get global !slot do
         if transfer t ~requester !slot then incr bought;
         incr extra;
         incr slot
       done;
       if Obs.Collector.enabled t.obs then
         emit t ~node:requester
           (Obs.Event.Neg_grant { requester; start; n; bought = !bought; dur = duration });
       Ok { start; duration; bought = !bought })

let execute_exn ?prebuy t ~requester ~n =
  match execute ?prebuy t ~requester ~n with
  | Ok g -> g
  | Error e -> failwith (error_to_string e)

let restructure t =
  let nodes = Array.length t.mgrs in
  (* Collect the free slots in address order and each node's share. *)
  let global = global_or t in
  let shares = Array.map Slot_manager.owned t.mgrs in
  let moved = ref 0 in
  (* Deal out consecutive runs: node 0 gets the first [shares.(0)] free
     slots, node 1 the next batch, and so on — each node ends up with one
     contiguous range of the free space. *)
  let node = ref 0 in
  let given = ref 0 in
  Bitset.iter_set
    (fun slot ->
       while !node < nodes - 1 && !given >= shares.(!node) do
         node := !node + 1;
         given := 0
       done;
       if transfer t ~requester:!node slot then incr moved;
       incr given)
    global;
  (* Time: one full negotiation round plus one extra bitmap scatter per
     node (every bitmap potentially changed). *)
  let cm = Network.cost_model t.net in
  let duration =
    duration_model t ~nodes
    +. (float_of_int (nodes - 1) *. Cm.message_cost cm ~bytes:(Slot.bitmap_bytes t.geometry))
  in
  t.count <- t.count + 1;
  Pm2_util.Stats.Acc.add t.durations duration;
  (!moved, duration)

let largest_local_run t ~node =
  let bitmap = Slot_manager.bitmap t.mgrs.(node) in
  let best = ref 0 in
  let cur = ref 0 in
  for i = 0 to Bitset.length bitmap - 1 do
    if Bitset.get bitmap i then begin
      incr cur;
      if !cur > !best then best := !cur
    end
    else cur := 0
  done;
  !best

let acquire_slot_lock t ~now ~duration =
  let start = max now t.lock_free_at in
  let finish = start +. duration in
  t.lock_free_at <- finish;
  finish

let count t = t.count

let aborted (t : t) = t.aborted

let lease t = t.lease

let durations t = t.durations

let check_global_invariant t =
  let nodes = Array.length t.mgrs in
  for i = 0 to nodes - 1 do
    for j = i + 1 to nodes - 1 do
      if Bitset.intersects (Slot_manager.bitmap t.mgrs.(i)) (Slot_manager.bitmap t.mgrs.(j))
      then
        failwith (Printf.sprintf "Negotiation: slot owned by both node %d and node %d" i j)
    done
  done

module Obs = Pm2_obs
module Fault = Pm2_fault

type t = {
  engine : Pm2_sim.Engine.t;
  cost : Pm2_sim.Cost_model.t;
  nodes : int;
  msg_count : int array; (* src * nodes + dst *)
  byte_count : int array;
  obs : Obs.Collector.t;
  faults : Fault.Plan.t;
}

let create ?(obs = Obs.Collector.null) ?(faults = Fault.Plan.none) engine cost ~nodes =
  if nodes <= 0 then invalid_arg "Network.create: nodes <= 0";
  {
    engine;
    cost;
    nodes;
    msg_count = Array.make (nodes * nodes) 0;
    byte_count = Array.make (nodes * nodes) 0;
    obs;
    faults;
  }

let nodes t = t.nodes

let engine t = t.engine

let cost_model t = t.cost

let check t who = if who < 0 || who >= t.nodes then invalid_arg "Network: bad node id"

let record t ~src ~dst ~bytes =
  let i = (src * t.nodes) + dst in
  t.msg_count.(i) <- t.msg_count.(i) + 1;
  t.byte_count.(i) <- t.byte_count.(i) + bytes

let transfer_time t ~bytes = Pm2_sim.Cost_model.message_cost t.cost ~bytes

(* One copy travelling through a faulty network: the destination interface
   may have died while the message was in flight. *)
let deliver_faulty t ~src ~dst ~bytes ~delay payload k =
  Pm2_sim.Engine.schedule_after t.engine ~delay (fun () ->
      let now = Pm2_sim.Engine.now t.engine in
      if not (Fault.Plan.node_alive t.faults ~node:dst ~now) then begin
        Fault.Plan.note_drop t.faults;
        if Obs.Collector.enabled t.obs then
          Obs.Collector.emit t.obs ~node:dst
            (Obs.Event.Fault_inject { kind = Obs.Event.Drop_dead; src; dst; bytes })
      end
      else begin
        if Obs.Collector.enabled t.obs then
          Obs.Collector.emit t.obs ~node:dst (Obs.Event.Packet_deliver { src; dst; bytes });
        k payload
      end)

let send_faulty t ~src ~dst ~bytes ~delay payload k =
  match Fault.Plan.route t.faults ~now:(Pm2_sim.Engine.now t.engine) ~src ~dst with
  | Fault.Plan.Dropped reason ->
    Fault.Plan.note_drop t.faults;
    if Obs.Collector.enabled t.obs then begin
      let kind =
        match reason with
        | Fault.Plan.Loss -> Obs.Event.Drop_loss
        | Fault.Plan.Partitioned -> Obs.Event.Drop_partition
        | Fault.Plan.Node_down _ -> Obs.Event.Drop_dead
      in
      Obs.Collector.emit t.obs ~node:src (Obs.Event.Fault_inject { kind; src; dst; bytes })
    end
  | Fault.Plan.Deliver copies ->
    List.iteri
      (fun i { Fault.Plan.extra_delay; corrupted } ->
        if i > 0 then begin
          Fault.Plan.note_duplicate t.faults;
          if Obs.Collector.enabled t.obs then
            Obs.Collector.emit t.obs ~node:src
              (Obs.Event.Fault_inject { kind = Obs.Event.Duplicate; src; dst; bytes })
        end;
        let payload =
          if corrupted then begin
            Fault.Plan.note_corrupt t.faults;
            if Obs.Collector.enabled t.obs then
              Obs.Collector.emit t.obs ~node:src
                (Obs.Event.Fault_inject { kind = Obs.Event.Corrupt; src; dst; bytes });
            Fault.Plan.corrupt_copy t.faults payload
          end
          else payload
        in
        deliver_faulty t ~src ~dst ~bytes ~delay:(delay +. extra_delay) payload k)
      copies

(* Count and announce a message of [bytes]; its one-way delay. *)
let depart t ~src ~dst ~bytes =
  check t src;
  check t dst;
  record t ~src ~dst ~bytes;
  if Obs.Collector.enabled t.obs then
    Obs.Collector.emit t.obs ~node:src (Obs.Event.Packet_send { src; dst; bytes });
  if src = dst then Pm2_sim.Cost_model.memcpy_cost t.cost ~bytes else transfer_time t ~bytes

(* The fault-free delivery: [k] runs at the modelled arrival time. *)
let arrive t ~src ~dst ~bytes ~delay k =
  Pm2_sim.Engine.schedule_after t.engine ~delay (fun () ->
      if Obs.Collector.enabled t.obs then
        Obs.Collector.emit t.obs ~node:dst (Obs.Event.Packet_deliver { src; dst; bytes });
      k ())

(* Loop-back traffic never touches the interconnect, so the fault plan
   does not apply to self-sends. *)
let faulty t ~src ~dst = Fault.Plan.enabled t.faults && src <> dst

let send t ~src ~dst payload k =
  let bytes = Bytes.length payload in
  let delay = depart t ~src ~dst ~bytes in
  if faulty t ~src ~dst then send_faulty t ~src ~dst ~bytes ~delay payload k
  else arrive t ~src ~dst ~bytes ~delay (fun () -> k payload)

let send_sized t ~src ~dst ~bytes k =
  if faulty t ~src ~dst then invalid_arg "Network.send_sized: a fault plan is live";
  arrive t ~src ~dst ~bytes ~delay:(depart t ~src ~dst ~bytes) k

let messages_sent t = Array.fold_left ( + ) 0 t.msg_count

let bytes_sent t = Array.fold_left ( + ) 0 t.byte_count

let link_stats t ~src ~dst =
  check t src;
  check t dst;
  let i = (src * t.nodes) + dst in
  (t.msg_count.(i), t.byte_count.(i))

let reset_stats t =
  Array.fill t.msg_count 0 (Array.length t.msg_count) 0;
  Array.fill t.byte_count 0 (Array.length t.byte_count) 0

let record_virtual t ~src ~dst ~bytes =
  check t src;
  check t dst;
  record t ~src ~dst ~bytes;
  if Obs.Collector.enabled t.obs then begin
    Obs.Collector.emit t.obs ~node:src (Obs.Event.Packet_send { src; dst; bytes });
    (* Symmetric with [send]: virtual traffic is considered delivered at
       the instant it is recorded, so per-node deliver counters balance
       send counters. *)
    Obs.Collector.emit t.obs ~node:dst (Obs.Event.Packet_deliver { src; dst; bytes })
  end

module Obs = Pm2_obs
module Engine = Pm2_sim.Engine

let data_magic = 0x52454C44 (* "RELD": one message *)

let ack_magic = 0x52454C41 (* "RELA": a message's acknowledgement *)

let frag_magic = 0x52454C54 (* "RELT": one fragment of a packet train *)

let train_ack_magic = 0x52454C4B (* "RELK": whole-train acknowledgement *)

let heartbeat_magic = 0x48424541 (* "HBEA": one liveness beacon, unacked *)

type kind =
  | Message
  | Train

type frame =
  | Data of { seq : int; payload : Bytes.t * int * int }
  | Frag of {
      train : int;
      idx : int;
      nfrags : int;
      payload : Bytes.t * int * int;
      trace : (int * int) option;
    }
  | Ack of kind * int
  | Heartbeat of { node : int; gen : int }

(* -- the wire --------------------------------------------------------- *)

(* Frames are [magic][checksum(inner)][length][inner]; the checksum covers
   the id as well as the payload, so a bit-flip anywhere in the inner
   region makes the receiver discard the frame (and retransmission
   recovers). The frame is written in one exact-size buffer and its
   checksum patched in last. *)
let encode frame =
  let magic, inner =
    match frame with
    | Data { payload = _, _, len; _ } -> (data_magic, 16 + len)
    | Frag { payload = _, _, len; trace; _ } ->
      (frag_magic, 32 + len + if trace = None then 0 else 16)
    | Ack (Message, _) -> (ack_magic, 8)
    | Ack (Train, _) -> (train_ack_magic, 8)
    | Heartbeat _ -> (heartbeat_magic, 16)
  in
  let p = Packet.packer ~size:(24 + inner) () in
  Packet.pack_int p magic;
  Packet.pack_int p 0;
  Packet.pack_int p inner;
  let slice (data, pos, len) =
    Packet.pack_raw p ~len (fun buf at -> Bytes.blit data pos buf at len)
  in
  (match frame with
   | Data { seq; payload } ->
     Packet.pack_int p seq;
     slice payload
   | Frag { train; idx; nfrags; payload; trace } ->
     Packet.pack_int p train;
     Packet.pack_int p idx;
     Packet.pack_int p nfrags;
     slice payload;
     (* Trace context travels as two trailing words, absent entirely
        when tracing is off, so untraced fragments keep their historic
        size (and transfer time). *)
     Option.iter (fun (tid, parent) -> List.iter (Packet.pack_int p) [ tid; parent ]) trace
   | Ack (_, id) -> Packet.pack_int p id
   | Heartbeat { node; gen } ->
     Packet.pack_int p node;
     Packet.pack_int p gen);
  let b = Packet.contents p in
  Bytes.set_int64_le b 8 (Int64.of_int (Packet.checksum ~pos:24 ~len:inner b));
  b

(* Total: every byte string either is exactly one well-formed frame or
   decodes to [None]. Payloads come back as views into [b]. *)
let decode b =
  let n = Bytes.length b in
  let u = Packet.unpacker b in
  let int () = Packet.unpack_int u in
  match
    let magic = int () in
    let sum = int () in
    if int () <> n - 24 || Packet.checksum ~pos:24 ~len:(n - 24) b <> sum then None
    else if magic = data_magic then
      let seq = int () in
      Some (Data { seq; payload = Packet.unpack_view u })
    else if magic = frag_magic then
      let train = int () in
      let idx = int () in
      let nfrags = int () in
      let payload = Packet.unpack_view u in
      let trace =
        if Packet.remaining u = 16 then
          let tid = int () in
          Some (tid, int ())
        else None
      in
      if nfrags <= 0 || idx < 0 || idx >= nfrags then None
      else Some (Frag { train; idx; nfrags; payload; trace })
    else if magic = ack_magic then Some (Ack (Message, int ()))
    else if magic = train_ack_magic then Some (Ack (Train, int ()))
    else if magic = heartbeat_magic then
      let node = int () in
      Some (Heartbeat { node; gen = int () })
    else None
  with
  | exception Invalid_argument _ -> None
  | frame -> if Packet.remaining u = 0 then frame else None

let ack_bytes = Bytes.length (encode (Ack (Message, 0)))

(* -- sessions ----------------------------------------------------------- *)

(* Receiver-side reassembly of one in-flight train: a view of each
   fragment that has arrived. [rx_ctx] is the causal-trace context carried
   by the fragments (if any); [rx_first] is the virtual arrival time of
   the first fragment — together they bound the destination-side [Train]
   span. [rx_dst] lets a node crash tear down its partial assemblies. *)
type assembly = {
  frags : (Bytes.t * int * int) option array;
  mutable have : int;
  mutable size : int; (* bytes held *)
  mutable rx_ctx : (int * int) option;
  rx_first : float;
  rx_dst : int;
}

(* One send session: an id, the frames each attempt (re)sends, and the
   tables that id lives in. *)
type session = {
  kind : kind;
  ids : ids;
  id : int;
  src : int;
  dst : int;
  frames : Bytes.t array;
  wire : int; (* bytes per attempt *)
  base_timeout : float;
  arrive : Bytes.t -> unit; (* the receive path, at [dst] *)
  on_failed : reason:string -> unit;
  mutable live : bool; (* not yet acked, given up or torn down *)
}

(* One id space: a message's [seq] or a train's id. Messages never
   assemble, so their [assembling] table stays empty. *)
and ids = {
  mutable next : int;
  mutable resent : int; (* retransmitting attempts *)
  pending : (int, session) Hashtbl.t; (* ids awaiting an ack *)
  finished : (int, unit) Hashtbl.t; (* delivered or poisoned: later copies are dups *)
  assembling : (int, assembly) Hashtbl.t;
}

type t = {
  net : Network.t;
  obs : Obs.Collector.t;
  max_attempts : int;
  messages : ids;
  trains : ids;
  dup_suppressed : int array; (* per directed link, indexed src * nodes + dst *)
  mutable give_ups : int;
  mutable tracer : Obs.Span.t option; (* for destination-side train spans *)
}

(* Packet-train fragment size: the unit [send_train] cuts payloads into. *)
let fragment = 16384

(* Exponential-backoff cap: the timeout of attempt [n] is
   [base * 2 ^ min (n-1) backoff_cap]. *)
let backoff_cap = 6

let fresh_ids () =
  { next = 0; resent = 0; pending = Hashtbl.create 16; finished = Hashtbl.create 64;
    assembling = Hashtbl.create 8 }

let create ?(obs = Obs.Collector.null) ?(max_attempts = 12) net =
  if max_attempts < 1 then invalid_arg "Reliable.create: max_attempts must be >= 1";
  let links = Network.nodes net * Network.nodes net in
  { net; obs; max_attempts; messages = fresh_ids (); trains = fresh_ids ();
    dup_suppressed = Array.make links 0; give_ups = 0; tracer = None }

let set_tracer t tracer = t.tracer <- Some tracer

let retransmits t = t.messages.resent + t.trains.resent

let duplicates_suppressed t = Array.fold_left ( + ) 0 t.dup_suppressed

let link_dup_suppressed t ~src ~dst =
  let n = Network.nodes t.net in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Reliable.link_dup_suppressed: node out of range";
  t.dup_suppressed.((src * n) + dst)

let give_ups t = t.give_ups

let train_retransmits t = t.trains.resent

let ids_of t = function Message -> t.messages | Train -> t.trains

(* A duplicate is attributed to the directed link it arrived on, so tests
   can pin retransmission pressure to one sender/receiver pair. *)
let suppress t ~src ~dst id =
  let i = (src * Network.nodes t.net) + dst in
  t.dup_suppressed.(i) <- t.dup_suppressed.(i) + 1;
  if Obs.Collector.enabled t.obs then
    Obs.Collector.emit t.obs ~node:dst (Obs.Event.Net_dup_suppress { src; dst; seq = id })

let close s =
  s.live <- false;
  Hashtbl.remove s.ids.pending s.id

(* The sender's side of an acknowledgement: close the session it names,
   if it is still waiting (a late or duplicate ack finds none). *)
let on_ack t kind b =
  match decode b with
  | Some (Ack (k, id)) when k = kind ->
    Option.iter close (Hashtbl.find_opt (ids_of t kind).pending id)
  | _ -> ()

(* [dst] acknowledges session [id] back to its sender [src]. *)
let ack t kind ~src ~dst id =
  Network.send t.net ~src:dst ~dst:src (encode (Ack (kind, id))) (on_ack t kind)

let assemble t ~src ~dst ~on_delivered ~train ~now rx =
  let whole = Bytes.create rx.size in
  let at = ref 0 in
  Array.iter
    (fun f ->
      let data, pos, len = Option.get f in
      Bytes.blit data pos whole !at len;
      at := !at + len)
    rx.frags;
  Hashtbl.remove t.trains.assembling train;
  Hashtbl.replace t.trains.finished train ();
  ack t Train ~src ~dst train;
  if Obs.Collector.enabled t.obs then
    Obs.Collector.emit t.obs ~node:dst (Obs.Event.Train_ack { src; dst; train });
  (* Destination-side train span: first fragment arrival to full
     assembly, parented through the fragments' trace context. *)
  Option.iter
    (fun tracer ->
      let span =
        Obs.Span.remote tracer ~at:rx.rx_first ~node:dst ~ctx:rx.rx_ctx Obs.Event.Train
      in
      Obs.Span.finish tracer ~at:now
        ~note:(Printf.sprintf "train=%d frags=%d" train (Array.length rx.frags))
        span)
    t.tracer;
  on_delivered whole

let receive_fragment t ~src ~dst ~on_delivered ~train ~idx ~nfrags ~trace payload =
  if Hashtbl.mem t.trains.finished train then begin
    (* Whole train already assembled: dedup and re-ack (the earlier ack
       may have been lost). *)
    suppress t ~src ~dst train;
    ack t Train ~src ~dst train
  end
  else begin
    let now = Engine.now (Network.engine t.net) in
    let fresh () =
      { frags = Array.make nfrags None; have = 0; size = 0; rx_ctx = None;
        rx_first = now; rx_dst = dst }
    in
    let rx =
      match Hashtbl.find_opt t.trains.assembling train with
      | Some rx when Array.length rx.frags = nfrags -> rx
      | Some _ -> (* inconsistent geometry: treat as corrupt *) fresh ()
      | None ->
        let rx = fresh () in
        Hashtbl.replace t.trains.assembling train rx;
        rx
    in
    if rx.rx_ctx = None then rx.rx_ctx <- trace;
    (match rx.frags.(idx) with
     | Some _ -> suppress t ~src ~dst train
     | None ->
       let _, _, len = payload in
       rx.frags.(idx) <- Some payload;
       rx.have <- rx.have + 1;
       rx.size <- rx.size + len);
    if rx.have = nfrags then assemble t ~src ~dst ~on_delivered ~train ~now rx
  end

let receive t kind ~src ~dst ~on_delivered b =
  match (kind, decode b) with
  | Message, Some (Data { seq; payload = data, pos, len }) ->
    (* Acknowledge every intact copy: earlier acks may have been lost. *)
    ack t Message ~src ~dst seq;
    if Hashtbl.mem t.messages.finished seq then suppress t ~src ~dst seq
    else begin
      Hashtbl.replace t.messages.finished seq ();
      on_delivered (Bytes.sub data pos len)
    end
  | Train, Some (Frag { train; idx; nfrags; payload; trace }) ->
    receive_fragment t ~src ~dst ~on_delivered ~train ~idx ~nfrags ~trace payload
  | _ -> () (* corrupt or foreign frame: retransmission covers it *)

let give_up t s =
  Hashtbl.remove s.ids.pending s.id;
  (* Delivered but every ack was lost: the bounded-attempt session
     teardown is modelled as reliable, so this counts as delivered —
     crucially, never as a duplicate. *)
  if not (Hashtbl.mem s.ids.finished s.id) then begin
    (* Poison the id so a straggling copy still in flight cannot deliver
       (or a train assemble) after the failure continuation has run. *)
    Hashtbl.replace s.ids.finished s.id ();
    Hashtbl.remove s.ids.assembling s.id;
    t.give_ups <- t.give_ups + 1;
    let { src; dst; _ } = s in
    if Obs.Collector.enabled t.obs then
      Obs.Collector.emit t.obs ~node:src
        (Obs.Event.Net_give_up { src; dst; seq = s.id; attempts = t.max_attempts });
    let reason = Printf.sprintf "no ack from node %d after %d attempts" dst t.max_attempts in
    s.on_failed
      ~reason:
        (match s.kind with
         | Message -> reason
         | Train -> Printf.sprintf "train %d: %s" s.id reason)
  end

let retransmitted t s ~attempt =
  let { src; dst; wire = bytes; id; _ } = s in
  s.ids.resent <- s.ids.resent + 1;
  if Obs.Collector.enabled t.obs then
    Obs.Collector.emit t.obs ~node:src
      (match s.kind with
       | Message -> Obs.Event.Net_retransmit { src; dst; seq = id; attempt; bytes }
       | Train -> Obs.Event.Train_retransmit { src; dst; train = id; attempt; bytes })

(* Attempt [n] of session [s]: resend every frame — the receiver drops
   what it already holds, so a resend costs only suppressed duplicates —
   and arm the next timeout, until an ack closes [s] or the budget runs
   out. *)
let rec attempt t s n =
  if s.live then
    if n > t.max_attempts then give_up t s
    else begin
      if n > 1 then retransmitted t s ~attempt:n;
      Array.iter (fun f -> Network.send t.net ~src:s.src ~dst:s.dst f s.arrive) s.frames;
      let timeout = s.base_timeout *. (2. ** float_of_int (min (n - 1) backoff_cap)) in
      Engine.schedule_after (Network.engine t.net) ~delay:timeout (fun () ->
          attempt t s (n + 1))
    end

(* Open a [kind] session over [frames] and run its first attempt. *)
let start t kind ~id ~src ~dst ~on_delivered ~on_failed frames =
  let ids = ids_of t kind in
  let wire = Array.fold_left (fun acc f -> acc + Bytes.length f) 0 frames in
  let rtt =
    Network.transfer_time t.net ~bytes:wire +. Network.transfer_time t.net ~bytes:ack_bytes
  in
  (* Generous initial timeout: jittered copies routinely exceed the
     modelled RTT, and a spurious retransmit only costs a suppressed
     duplicate. *)
  let base_timeout = (2. *. rtt) +. 50. in
  let arrive = receive t kind ~src ~dst ~on_delivered in
  let s =
    { kind; ids; id; src; dst; frames; wire; base_timeout; arrive; on_failed; live = true }
  in
  Hashtbl.replace ids.pending id s;
  attempt t s 1

let next_id ids =
  ids.next <- ids.next + 1;
  ids.next - 1

(* Fault-free or loop-back traffic (see {!Network.faulty}) bypasses the
   protocol: plain delivery, no header, no acks, no timers. *)
let send t ~src ~dst payload ~on_delivered ~on_failed =
  if Network.faulty t.net ~src ~dst then
    let seq = next_id t.messages in
    let frame = encode (Data { seq; payload = (payload, 0, Bytes.length payload) }) in
    start t Message ~id:seq ~src ~dst ~on_delivered ~on_failed [| frame |]
  else Network.send t.net ~src ~dst payload on_delivered

let send_train ?trace t ~src ~dst payload ~on_delivered ~on_failed =
  let bytes = Bytes.length payload in
  let train = next_id t.trains in
  let faulty = Network.faulty t.net ~src ~dst in
  (* Bypassed, the train degenerates to one plain message; the payload
     (a codec frame) carries its own trace context. *)
  let nfrags = if faulty then max 1 ((bytes + fragment - 1) / fragment) else 1 in
  if Obs.Collector.enabled t.obs then
    Obs.Collector.emit t.obs ~node:src
      (Obs.Event.Train_send { src; dst; train; frags = nfrags; bytes });
  if faulty then
    let frag idx =
      let pos = idx * fragment in
      let payload = (payload, pos, min fragment (bytes - pos)) in
      encode (Frag { train; idx; nfrags; payload; trace })
    in
    start t Train ~id:train ~src ~dst ~on_delivered ~on_failed (Array.init nfrags frag)
  else Network.send t.net ~src ~dst payload on_delivered

(* -- heartbeats --------------------------------------------------------- *)

(* One HBEA beacon: fire-and-forget through the faulty network (loss is
   fine — the suspicion protocol tolerates missed beats; what matters is
   that a dead or partitioned sender produces none at all). [gen] is the
   sender's incarnation number, so a restarted node is recognisably new. *)
let send_heartbeat t ~src ~dst ~gen ~on_heard =
  Network.send t.net ~src ~dst (encode (Heartbeat { node = src; gen })) (fun b ->
      match decode b with
      | Some (Heartbeat { node; gen }) -> on_heard ~src:node ~gen
      | _ -> () (* corrupt beacon: just a missed beat *))

(* -- crash teardown ----------------------------------------------------- *)

(* A node crash wipes its half-assembled trains (the fragments lived in
   the node's memory) and cancels every send session it originated: the
   retransmission timers and completion continuations belonged to the
   dead incarnation's protocol stack, so they are silenced — neither
   delivery nor failure ever fires. Sessions *to* the dead node are left
   alone: their senders are alive and give up on their own schedule
   (or succeed after a restart). Returns the number of sessions torn
   down (assemblies + cancelled sends). *)
let forget_node t ~node =
  let sweep ids =
    let doomed =
      Hashtbl.fold
        (fun id rx acc -> if rx.rx_dst = node then id :: acc else acc)
        ids.assembling []
    in
    List.iter (Hashtbl.remove ids.assembling) doomed;
    let mine =
      Hashtbl.fold (fun _ s acc -> if s.src = node then s :: acc else acc) ids.pending []
    in
    List.iter close mine;
    List.length doomed + List.length mine
  in
  sweep t.messages + sweep t.trains

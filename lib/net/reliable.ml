module Obs = Pm2_obs
module Fault = Pm2_fault
module Engine = Pm2_sim.Engine

let data_magic = 0x52454C44 (* "RELD" *)

let ack_magic = 0x52454C41 (* "RELA" *)

let frag_magic = 0x52454C54 (* "RELT": one fragment of a packet train *)

let train_ack_magic = 0x52454C4B (* "RELK": whole-train acknowledgement *)

let heartbeat_magic = 0x48424541 (* "HBEA": one liveness beacon, unacked *)

(* Receiver-side reassembly of one in-flight train. [rx_ctx] is the
   causal-trace context carried by the fragments (if any); [rx_first] is
   the virtual arrival time of the first fragment — together they bound
   the destination-side [Train] span. [rx_dst] lets a node crash tear down
   its partial assemblies. *)
type train_rx = {
  frags : Bytes.t option array;
  mutable have : int;
  mutable rx_ctx : (int * int) option;
  rx_first : float;
  rx_dst : int;
}

type t = {
  net : Network.t;
  obs : Obs.Collector.t;
  max_attempts : int;
  mutable next_seq : int;
  (* seqs whose payload ran its delivery continuation (or whose session
     was torn down): any further copy is suppressed *)
  delivered : (int, unit) Hashtbl.t;
  (* seqs awaiting an ack -> (sender node, sender-side completion) *)
  pending : (int, int * (unit -> unit)) Hashtbl.t;
  (* train ids fully assembled (or torn down): later fragments are dups *)
  trains_delivered : (int, unit) Hashtbl.t;
  train_rx : (int, train_rx) Hashtbl.t;
  train_pending : (int, int * (unit -> unit)) Hashtbl.t;
  mutable next_train : int;
  mutable retransmits : int;
  mutable dups : int;
  dup_suppressed : int array; (* per directed link, indexed src * nodes + dst *)
  mutable give_ups : int;
  mutable train_retransmits : int;
  (* causal tracer for destination-side train spans (set by the cluster
     when tracing is on; stays [None] otherwise) *)
  mutable tracer : Obs.Span.t option;
}

(* Packet-train fragment size: the unit [send_train] cuts payloads into. *)
let fragment = 16384

(* Exponential-backoff cap: the timeout of attempt [n] is
   [base * 2 ^ min (n-1) backoff_cap]. *)
let backoff_cap = 6

let create ?(obs = Obs.Collector.null) ?(max_attempts = 12) net =
  if max_attempts < 1 then invalid_arg "Reliable.create: max_attempts must be >= 1";
  {
    net;
    obs;
    max_attempts;
    next_seq = 0;
    delivered = Hashtbl.create 64;
    pending = Hashtbl.create 16;
    trains_delivered = Hashtbl.create 16;
    train_rx = Hashtbl.create 8;
    train_pending = Hashtbl.create 8;
    next_train = 0;
    retransmits = 0;
    dups = 0;
    dup_suppressed = Array.make (Network.nodes net * Network.nodes net) 0;
    give_ups = 0;
    train_retransmits = 0;
    tracer = None;
  }

let set_tracer t tracer = t.tracer <- Some tracer

let network t = t.net

let retransmits t = t.retransmits

let duplicates_suppressed t = t.dups

(* A duplicate is attributed to the directed link it arrived on, so tests
   can pin retransmission pressure to one sender/receiver pair. *)
let note_dup t ~src ~dst =
  t.dups <- t.dups + 1;
  t.dup_suppressed.((src * Network.nodes t.net) + dst) <-
    t.dup_suppressed.((src * Network.nodes t.net) + dst) + 1

let link_dup_suppressed t ~src ~dst =
  let n = Network.nodes t.net in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Reliable.link_dup_suppressed: node out of range";
  t.dup_suppressed.((src * n) + dst)

let give_ups t = t.give_ups

let train_retransmits t = t.train_retransmits

(* Frames are [magic][checksum(inner)][inner]; the checksum covers the
   sequence number as well as the payload, so a bit-flip anywhere in the
   frame makes the receiver discard it (and retransmission recovers). *)
let frame ~magic inner =
  let p = Packet.packer ~size:(24 + Bytes.length inner) () in
  Packet.pack_int p magic;
  Packet.pack_int p (Packet.checksum inner);
  Packet.pack_bytes p inner;
  Packet.contents p

let parse_frame b =
  match
    let u = Packet.unpacker b in
    let magic = Packet.unpack_int u in
    let ck = Packet.unpack_int u in
    let inner = Packet.unpack_bytes u in
    if Packet.remaining u <> 0 || Packet.checksum inner <> ck then None
    else Some (magic, inner)
  with
  | exception Invalid_argument _ -> None
  | v -> v

let data_frame ~seq payload =
  let p = Packet.packer ~size:(16 + Bytes.length payload) () in
  Packet.pack_int p seq;
  Packet.pack_bytes p payload;
  frame ~magic:data_magic (Packet.contents p)

let ack_frame ~seq =
  let p = Packet.packer () in
  Packet.pack_int p seq;
  frame ~magic:ack_magic (Packet.contents p)

let handle_ack t b =
  match parse_frame b with
  | Some (magic, inner) when magic = ack_magic -> (
    match
      let u = Packet.unpacker inner in
      Packet.unpack_int u
    with
    | exception Invalid_argument _ -> ()
    | seq -> (
      match Hashtbl.find_opt t.pending seq with
      | Some (_, complete) -> complete ()
      | None -> () (* late or duplicate ack *)))
  | Some _ | None -> ()

let handle_data t ~src ~dst ~on_delivered b =
  match parse_frame b with
  | Some (magic, inner) when magic = data_magic -> (
    match
      let u = Packet.unpacker inner in
      let seq = Packet.unpack_int u in
      let payload = Packet.unpack_bytes u in
      (seq, payload)
    with
    | exception Invalid_argument _ -> ()
    | seq, payload ->
      (* Acknowledge every intact copy: earlier acks may have been lost. *)
      Network.send t.net ~src:dst ~dst:src (ack_frame ~seq) (handle_ack t);
      if Hashtbl.mem t.delivered seq then begin
        note_dup t ~src ~dst;
        if Obs.Collector.enabled t.obs then
          Obs.Collector.emit t.obs ~node:dst (Obs.Event.Net_dup_suppress { src; dst; seq })
      end
      else begin
        Hashtbl.replace t.delivered seq ();
        on_delivered payload
      end)
  | Some _ | None -> () (* corrupt or foreign frame: retransmission covers it *)

let send t ~src ~dst payload ~on_delivered ~on_failed =
  let faults = Network.faults t.net in
  if (not (Fault.Plan.enabled faults)) || src = dst then
    (* Fault-free network (or loop-back): plain delivery, no header. *)
    Network.send t.net ~src ~dst payload on_delivered
  else begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let wire = data_frame ~seq payload in
    let bytes = Bytes.length wire in
    let engine = Network.engine t.net in
    let acked = ref false in
    Hashtbl.replace t.pending seq
      ( src,
        fun () ->
          acked := true;
          Hashtbl.remove t.pending seq );
    let rtt =
      Network.transfer_time t.net ~bytes
      +. Network.transfer_time t.net ~bytes:(Bytes.length (ack_frame ~seq:0))
    in
    (* Generous initial timeout: jittered copies routinely exceed the
       modelled RTT, and a spurious retransmit only costs a suppressed
       duplicate. *)
    let base_timeout = (2. *. rtt) +. 50. in
    let rec attempt n =
      if !acked then ()
      else if n > t.max_attempts then begin
        Hashtbl.remove t.pending seq;
        if Hashtbl.mem t.delivered seq then
          (* The data arrived but every ack was lost. The bounded-attempt
             session teardown is modelled as reliable, so this counts as
             delivered — crucially, never as a duplicate. *)
          ()
        else begin
          (* Poison the seq so a straggling copy still in flight cannot
             deliver after the failure continuation has run. *)
          Hashtbl.replace t.delivered seq ();
          t.give_ups <- t.give_ups + 1;
          if Obs.Collector.enabled t.obs then
            Obs.Collector.emit t.obs ~node:src
              (Obs.Event.Net_give_up { src; dst; seq; attempts = t.max_attempts });
          on_failed
            ~reason:
              (Printf.sprintf "no ack from node %d after %d attempts" dst t.max_attempts)
        end
      end
      else begin
        if n > 1 then begin
          t.retransmits <- t.retransmits + 1;
          if Obs.Collector.enabled t.obs then
            Obs.Collector.emit t.obs ~node:src
              (Obs.Event.Net_retransmit { src; dst; seq; attempt = n; bytes })
        end;
        Network.send t.net ~src ~dst wire (handle_data t ~src ~dst ~on_delivered);
        let timeout =
          base_timeout *. (2. ** float_of_int (min (n - 1) backoff_cap))
        in
        Engine.schedule_after engine ~delay:timeout (fun () ->
            if not !acked then attempt (n + 1))
      end
    in
    attempt 1
  end

(* -- heartbeats --------------------------------------------------------- *)

(* One HBEA beacon: fire-and-forget through the faulty network (loss is
   fine — the suspicion protocol tolerates missed beats; what matters is
   that a dead or partitioned sender produces none at all). [gen] is the
   sender's incarnation number, so a restarted node is recognisably new. *)
let heartbeat_frame ~node ~gen =
  let p = Packet.packer () in
  Packet.pack_int p node;
  Packet.pack_int p gen;
  frame ~magic:heartbeat_magic (Packet.contents p)

let send_heartbeat t ~src ~dst ~gen ~on_heard =
  Network.send t.net ~src ~dst (heartbeat_frame ~node:src ~gen) (fun b ->
      match parse_frame b with
      | Some (magic, inner) when magic = heartbeat_magic -> (
        match
          let u = Packet.unpacker inner in
          let node = Packet.unpack_int u in
          let gen = Packet.unpack_int u in
          (node, gen)
        with
        | exception Invalid_argument _ -> ()
        | node, gen -> on_heard ~src:node ~gen)
      | Some _ | None -> () (* corrupt beacon: just a missed beat *))

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
  let doomed =
    Hashtbl.fold
      (fun train rx acc -> if rx.rx_dst = node then train :: acc else acc)
      t.train_rx []
  in
  List.iter (Hashtbl.remove t.train_rx) doomed;
  let cancel pending =
    let mine =
      Hashtbl.fold
        (fun _ (src, complete) acc -> if src = node then complete :: acc else acc)
        pending []
    in
    List.iter (fun complete -> complete ()) mine;
    List.length mine
  in
  List.length doomed + cancel t.pending + cancel t.train_pending

(* -- packet trains ------------------------------------------------------ *)

(* Trace context travels as two trailing words after the length-prefixed
   payload slice — absent entirely when tracing is off, so untraced
   fragments keep their historic size (and transfer time). The receiver
   detects it by the 16 bytes left after the payload. *)
let frag_frame ?trace ~train ~idx ~nfrags payload ~pos ~len () =
  let p = Packet.packer ~size:(32 + len + if trace = None then 0 else 16) () in
  Packet.pack_int p train;
  Packet.pack_int p idx;
  Packet.pack_int p nfrags;
  Packet.pack_raw p ~len (fun buf at -> Bytes.blit payload pos buf at len);
  (match trace with
   | None -> ()
   | Some (tid, parent) ->
     Packet.pack_int p tid;
     Packet.pack_int p parent);
  frame ~magic:frag_magic (Packet.contents p)

let train_ack_frame ~train =
  let p = Packet.packer () in
  Packet.pack_int p train;
  frame ~magic:train_ack_magic (Packet.contents p)

let handle_train_ack t b =
  match parse_frame b with
  | Some (magic, inner) when magic = train_ack_magic -> (
    match
      let u = Packet.unpacker inner in
      Packet.unpack_int u
    with
    | exception Invalid_argument _ -> ()
    | train -> (
      match Hashtbl.find_opt t.train_pending train with
      | Some (_, complete) -> complete ()
      | None -> () (* late or duplicate ack *)))
  | Some _ | None -> ()

let handle_frag t ~src ~dst ~on_delivered b =
  match parse_frame b with
  | Some (magic, inner) when magic = frag_magic -> (
    match
      let u = Packet.unpacker inner in
      let train = Packet.unpack_int u in
      let idx = Packet.unpack_int u in
      let nfrags = Packet.unpack_int u in
      let payload = Packet.unpack_bytes u in
      let ctx =
        if Packet.remaining u = 16 then begin
          let tid = Packet.unpack_int u in
          let parent = Packet.unpack_int u in
          Some (tid, parent)
        end
        else None
      in
      (train, idx, nfrags, payload, ctx)
    with
    | exception Invalid_argument _ -> ()
    | train, idx, nfrags, payload, ctx ->
      if nfrags <= 0 || idx < 0 || idx >= nfrags then ()
      else if Hashtbl.mem t.trains_delivered train then begin
        (* Whole train already assembled: dedup and re-ack (the earlier
           ack may have been lost). *)
        note_dup t ~src ~dst;
        if Obs.Collector.enabled t.obs then
          Obs.Collector.emit t.obs ~node:dst
            (Obs.Event.Net_dup_suppress { src; dst; seq = train });
        Network.send t.net ~src:dst ~dst:src (train_ack_frame ~train)
          (handle_train_ack t)
      end
      else begin
        let now = Engine.now (Network.engine t.net) in
        let fresh () =
          { frags = Array.make nfrags None; have = 0; rx_ctx = None;
            rx_first = now; rx_dst = dst }
        in
        let rx =
          match Hashtbl.find_opt t.train_rx train with
          | Some rx when Array.length rx.frags = nfrags -> rx
          | Some _ -> (* inconsistent geometry: treat as corrupt *) fresh ()
          | None ->
            let rx = fresh () in
            Hashtbl.replace t.train_rx train rx;
            rx
        in
        if rx.rx_ctx = None then rx.rx_ctx <- ctx;
        (match rx.frags.(idx) with
         | Some _ ->
           note_dup t ~src ~dst;
           if Obs.Collector.enabled t.obs then
             Obs.Collector.emit t.obs ~node:dst
               (Obs.Event.Net_dup_suppress { src; dst; seq = train })
         | None ->
           rx.frags.(idx) <- Some payload;
           rx.have <- rx.have + 1);
        if rx.have = nfrags then begin
          let buf = Buffer.create 1024 in
          Array.iter
            (function Some b -> Buffer.add_bytes buf b | None -> assert false)
            rx.frags;
          Hashtbl.remove t.train_rx train;
          Hashtbl.replace t.trains_delivered train ();
          Network.send t.net ~src:dst ~dst:src (train_ack_frame ~train)
            (handle_train_ack t);
          if Obs.Collector.enabled t.obs then
            Obs.Collector.emit t.obs ~node:dst (Obs.Event.Train_ack { src; dst; train });
          (* Destination-side train span: first fragment arrival to full
             assembly, parented through the fragments' trace context. *)
          (match t.tracer with
           | Some tracer ->
             let span =
               Obs.Span.remote tracer ~at:rx.rx_first ~node:dst ~ctx:rx.rx_ctx
                 Obs.Event.Train
             in
             Obs.Span.finish tracer ~at:now
               ~note:(Printf.sprintf "train=%d frags=%d" train nfrags)
               span
           | None -> ());
          on_delivered (Buffer.to_bytes buf)
        end
      end)
  | Some _ | None -> () (* corrupt or foreign frame: retransmission covers it *)

let send_train ?trace t ~src ~dst payload ~on_delivered ~on_failed =
  let faults = Network.faults t.net in
  let bytes = Bytes.length payload in
  let train = t.next_train in
  t.next_train <- train + 1;
  if (not (Fault.Plan.enabled faults)) || src = dst then begin
    (* Fault-free network (or loop-back): the train degenerates to one
       plain message — no fragment headers, no acks, no timers. The
       payload (a codec frame) carries its own trace context, so no
       fragment metadata is needed here. *)
    if Obs.Collector.enabled t.obs then
      Obs.Collector.emit t.obs ~node:src
        (Obs.Event.Train_send { src; dst; train; frags = 1; bytes });
    Network.send t.net ~src ~dst payload on_delivered
  end
  else begin
    let nfrags = max 1 ((bytes + fragment - 1) / fragment) in
    let frames =
      List.init nfrags (fun idx ->
          let pos = idx * fragment in
          let len = min fragment (bytes - pos) in
          frag_frame ?trace ~train ~idx ~nfrags payload ~pos ~len ())
    in
    let wire_bytes = List.fold_left (fun acc f -> acc + Bytes.length f) 0 frames in
    let engine = Network.engine t.net in
    let acked = ref false in
    Hashtbl.replace t.train_pending train
      ( src,
        fun () ->
          acked := true;
          Hashtbl.remove t.train_pending train );
    let rtt =
      Network.transfer_time t.net ~bytes:wire_bytes
      +. Network.transfer_time t.net ~bytes:(Bytes.length (train_ack_frame ~train:0))
    in
    let base_timeout = (2. *. rtt) +. 50. in
    if Obs.Collector.enabled t.obs then
      Obs.Collector.emit t.obs ~node:src
        (Obs.Event.Train_send { src; dst; train; frags = nfrags; bytes });
    let rec attempt n =
      if !acked then ()
      else if n > t.max_attempts then begin
        Hashtbl.remove t.train_pending train;
        if Hashtbl.mem t.trains_delivered train then
          (* Assembled at the destination but every ack was lost: counts
             as delivered (teardown modelled as reliable), never as a
             duplicate delivery. *)
          ()
        else begin
          (* Poison the train id so straggling fragments cannot assemble
             and deliver after the failure continuation has run. *)
          Hashtbl.replace t.trains_delivered train ();
          Hashtbl.remove t.train_rx train;
          t.give_ups <- t.give_ups + 1;
          if Obs.Collector.enabled t.obs then
            Obs.Collector.emit t.obs ~node:src
              (Obs.Event.Net_give_up { src; dst; seq = train; attempts = t.max_attempts });
          on_failed
            ~reason:
              (Printf.sprintf "train %d: no ack from node %d after %d attempts" train
                 dst t.max_attempts)
        end
      end
      else begin
        if n > 1 then begin
          t.retransmits <- t.retransmits + 1;
          t.train_retransmits <- t.train_retransmits + 1;
          if Obs.Collector.enabled t.obs then
            Obs.Collector.emit t.obs ~node:src
              (Obs.Event.Train_retransmit
                 { src; dst; train; attempt = n; bytes = wire_bytes })
        end;
        (* The receiver drops fragments it already holds, so a full-train
           resend costs only suppressed duplicates. *)
        List.iter
          (fun f -> Network.send t.net ~src ~dst f (handle_frag t ~src ~dst ~on_delivered))
          frames;
        let timeout =
          base_timeout *. (2. ** float_of_int (min (n - 1) backoff_cap))
        in
        Engine.schedule_after engine ~delay:timeout (fun () ->
            if not !acked then attempt (n + 1))
      end
    in
    attempt 1
  end

(* One column per field, so recording an event allocates nothing but
   the occasional doubling: no tuple, no boxed time. *)
type t = {
  mutable times : Float.Array.t;
  mutable nodes : int array;
  mutable events : Event.t array;
  mutable n : int;
}

let create () = { times = Float.Array.create 0; nodes = [||]; events = [||]; n = 0 }

let length t = t.n

let clear t =
  t.times <- Float.Array.create 0;
  t.nodes <- [||];
  t.events <- [||];
  t.n <- 0

let push t ~time ~node ev =
  if t.n = Array.length t.events then begin
    let cap = max 256 (2 * t.n) in
    let times = Float.Array.create cap in
    Float.Array.blit t.times 0 times 0 t.n;
    let nodes = Array.make cap 0 in
    Array.blit t.nodes 0 nodes 0 t.n;
    let events = Array.make cap ev in
    Array.blit t.events 0 events 0 t.n;
    t.times <- times;
    t.nodes <- nodes;
    t.events <- events
  end;
  Float.Array.unsafe_set t.times t.n time;
  Array.unsafe_set t.nodes t.n node;
  Array.unsafe_set t.events t.n ev;
  t.n <- t.n + 1

let iter t f =
  for i = 0 to t.n - 1 do
    f (Float.Array.get t.times i) t.nodes.(i) t.events.(i)
  done

let sink t = Sink.make ~name:"chrome" (fun ~time ~node ev -> push t ~time ~node ev)

let category : Event.t -> string = function
  | Slot_reserve _ | Slot_release _ | Slot_transfer _ -> "slot"
  | Block_alloc _ | Block_free _ | Block_split _ | Block_coalesce _ -> "heap"
  | Migration_phase _ | Pack_slot _ | Unpack_slot _ | Migration_abort _
  | Migration_rollback _ | Group_migration_start _ | Group_migration_phase _
  | Group_migration_commit _ | Group_migration_abort _ | Delta_hit _ | Delta_miss _
  | Delta_evict _ | Delta_invalidate _ -> "migration"
  | Neg_request _ | Neg_round _ | Neg_grant _ | Neg_deny _ | Neg_abort _ -> "negotiation"
  | Packet_send _ | Packet_deliver _ | Net_retransmit _ | Net_dup_suppress _
  | Net_give_up _ | Train_send _ | Train_retransmit _ | Train_ack _ -> "net"
  | Fault_inject _ | Node_kill _ | Node_restart _ | Node_crash _ | Node_suspected _
  | Node_dead _ -> "fault"
  | Checkpoint _ | Thread_restore _ | Thread_lost _ -> "recover"
  | Span_end _ -> "span"
  | Thread_printf _ -> "guest"

(* One trace_event object. Events with a modelled duration become "X"
   complete events; everything else is an instant event. [ts] is in µs,
   which is exactly the simulator's virtual-time unit. [args] holds the
   event's own wire fields ({!Event.write_fields}). *)
let add_event buf ~time ~node ev =
  let cat = category ev in
  let complete ~name ~ts ~tid ~dur =
    Printf.bprintf buf
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d"
      name cat ts dur node tid
  in
  (match (ev : Event.t) with
   | Migration_phase { tid; phase; dur; _ } ->
     complete ~name:("migrate:" ^ Event.phase_name phase) ~ts:time ~tid ~dur
   | Group_migration_phase { gid; phase; dur; _ } ->
     complete ~name:("group_migrate:" ^ Event.phase_name phase) ~ts:time ~tid:gid ~dur
   | Neg_grant { dur; _ } -> complete ~name:"negotiation" ~ts:time ~tid:0 ~dur
   | Neg_deny { dur; _ } -> complete ~name:"negotiation:deny" ~ts:time ~tid:0 ~dur
   | Span_end { kind; start; dur; trace; _ } ->
     (* A causal span sits on its own node's track, one lane per trace,
        starting at the span's virtual start (the event itself fires at
        the end instant). *)
     complete ~name:("span:" ^ Event.span_kind_name kind) ~ts:start ~tid:trace ~dur
   | _ ->
     let name = match ev with Thread_printf _ -> "pm2_printf" | _ -> Event.name ev in
     Printf.bprintf buf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,\"tid\":0,\"s\":\"p\""
       name cat time node);
  Buffer.add_string buf ",\"args\":";
  let w = Json.writer buf in
  Json.obj_start w;
  Event.write_fields w ev;
  Json.obj_end w;
  Buffer.add_char buf '}'

let to_buffer t =
  let buf = Buffer.create (256 * (1 + t.n)) in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "{\"traceEvents\":[";
  let first = ref true in
  let comma () = if !first then first := false else Buffer.add_char buf ',' in
  (* Process-name metadata so chrome://tracing labels each pid "node N". *)
  let pids = Hashtbl.create 8 in
  iter t (fun _ node _ -> Hashtbl.replace pids node ());
  Hashtbl.fold (fun pid () acc -> pid :: acc) pids []
  |> List.sort compare
  |> List.iter (fun pid ->
      comma ();
      addf "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"node %d\"}}"
        pid pid);
  iter t (fun time node ev ->
      comma ();
      add_event buf ~time ~node ev);
  (* Cross-node causality: wherever a span's parent ran on a different
     node, bind the two slices with a flow arrow — step "s" inside the
     parent slice, step "f" (bp:"e") inside the child slice, keyed by the
     child span id. This is what makes one migration readable as a single
     tree across source and destination tracks in Perfetto. *)
  let spans = Hashtbl.create 64 in
  iter t (fun _ node ev ->
      match (ev : Event.t) with
      | Span_end { span; trace; parent; start; dur; _ } ->
        Hashtbl.replace spans span (node, trace, parent, start, dur)
      | _ -> ());
  Hashtbl.fold (fun span info acc -> (span, info) :: acc) spans []
  |> List.sort compare
  |> List.iter (fun (span, (node, trace, parent, start, _)) ->
      match Hashtbl.find_opt spans parent with
      | Some (pnode, _, _, pstart, pdur) when pnode <> node ->
        let step_ts = Float.min (Float.max start pstart) (pstart +. pdur) in
        comma ();
        addf
          "{\"name\":\"flow\",\"cat\":\"span\",\"ph\":\"s\",\"id\":%d,\"ts\":%.3f,\"pid\":%d,\"tid\":%d}"
          span step_ts pnode trace;
        comma ();
        addf
          "{\"name\":\"flow\",\"cat\":\"span\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"ts\":%.3f,\"pid\":%d,\"tid\":%d}"
          span start node trace
      | _ -> ());
  addf "],\"displayTimeUnit\":\"ms\"}";
  buf

let to_string t = Buffer.contents (to_buffer t)

let write_file t path =
  let buf = to_buffer t in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc buf)

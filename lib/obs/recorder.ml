(* The flight recorder: an always-on, bounded ring of recent events per
   node, dumped as JSON when a migration aborts, rolls back, or the
   reliable layer gives up on a message. Constant memory (one ring per
   node), so it can stay attached on every run without growing, and a
   recorded event costs an array load and a column store: no lookup, no
   allocation. *)

type trigger = {
  trig_time : float;
  trig_node : int;
  trig_reason : string;
}

type t = {
  capacity : int; (* per-node ring capacity *)
  mutable rings : Ring.t array;
      (* indexed by node id; [absent] where no event has been seen yet *)
  mutable triggers : trigger list; (* newest first *)
  mutable on_trigger : (trigger -> unit) option;
}

let absent = Ring.create ~capacity:0

let create ?(capacity = 256) () =
  if capacity < 0 then invalid_arg "Recorder.create: capacity < 0";
  { capacity; rings = Array.make 8 absent; triggers = []; on_trigger = None }

let capacity t = t.capacity

(* Node [node]'s ring, made (and the table grown) on its first event. *)
let ring t node =
  if node < 0 then invalid_arg "Recorder: negative node id";
  let n = Array.length t.rings in
  if node >= n then begin
    let rings = Array.make (max (2 * n) (node + 1)) absent in
    Array.blit t.rings 0 rings 0 n;
    t.rings <- rings
  end;
  let r = t.rings.(node) in
  if r != absent then r
  else begin
    let r = Ring.create ~capacity:t.capacity in
    t.rings.(node) <- r;
    r
  end

let triggers t = List.rev t.triggers

let set_on_trigger t f = t.on_trigger <- Some f

(* The conditions worth a dump: any abort/rollback of a migration, and
   the reliable layer exhausting its retransmission budget. *)
let trigger_reason (ev : Event.t) =
  match ev with
  | Migration_abort { tid; reason; _ } ->
    Some (Printf.sprintf "migration.abort tid=%d: %s" tid reason)
  | Group_migration_abort { gid; reason; _ } ->
    Some (Printf.sprintf "group_migration.abort gid=%d: %s" gid reason)
  | Migration_rollback { tid; _ } ->
    Some (Printf.sprintf "migration.rollback tid=%d" tid)
  | Net_give_up { seq; attempts; _ } ->
    Some (Printf.sprintf "net.give_up seq=%d after %d attempts" seq attempts)
  | _ -> None

let on_event t ~time ~node ev =
  Ring.push (ring t node) ~time ~node ev;
  match trigger_reason ev with
  | None -> ()
  | Some reason ->
    let trig = { trig_time = time; trig_node = node; trig_reason = reason } in
    t.triggers <- trig :: t.triggers;
    (match t.on_trigger with None -> () | Some f -> f trig)

let sink t = Sink.make ~name:"recorder" (fun ~time ~node ev -> on_event t ~time ~node ev)

(* Ascending, whatever order the nodes were first seen in. *)
let node_ids t =
  List.filter (fun id -> t.rings.(id) != absent) (List.init (Array.length t.rings) Fun.id)

let dump t =
  let buf = Buffer.create 4096 in
  let w = Json.writer buf in
  Json.obj_start w;
  Json.str_field w "recorder" "pm2-flight/1";
  Json.int_field w "capacity" t.capacity;
  Json.key w "triggers";
  Json.arr_start w;
  List.iter
    (fun { trig_time; trig_node; trig_reason } ->
       Json.obj_start w;
       Json.num_field w "t" trig_time;
       Json.int_field w "node" trig_node;
       Json.str_field w "reason" trig_reason;
       Json.obj_end w)
    (triggers t);
  Json.arr_end w;
  Json.key w "nodes";
  Json.obj_start w;
  List.iter
    (fun id ->
       let events = ring t id in
       Json.key w (Printf.sprintf "node%d" id);
       Json.obj_start w;
       Json.int_field w "dropped" (Ring.dropped events);
       Json.key w "events";
       Json.arr_start w;
       Ring.iter
         (fun (e : Ring.record) ->
            Json.obj_start w;
            Json.num_field w "t" e.time;
            Event.write w e.event;
            Json.obj_end w)
         events;
       Json.arr_end w;
       Json.obj_end w)
    (node_ids t);
  Json.obj_end w;
  Json.obj_end w;
  Buffer.contents buf

let write_file t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (dump t);
      output_char oc '\n')

(* Validator for the `--trace-json` output: parses the file with the
   in-tree JSON reader and checks the trace_event structure that
   chrome://tracing / Perfetto expect, plus — when causal spans are
   present — the span-tree invariants the tracer promises: one root per
   trace, every parent exists, children never start before their parent.
   Exits non-zero on any violation, which is what the @obs-smoke and
   @trace-smoke aliases key off.

   Usage: check_trace FILE [--require-spans]
          check_trace --flight FILE
          check_trace --stream FILE
   With --require-spans the file must additionally contain at least one
   causal trace, and at least one trace must span two or more nodes
   (pids) — the cross-node propagation acceptance check. With --flight
   the file is validated as a pm2-flight/1 flight-recorder dump
   instead: triggers must be non-empty and every ring record well
   formed. With --stream the file is validated as `--trace-stream`
   JSON-lines output: every line parses, carries a numeric "t" that never
   decreases and a "name" that is an Event.name taxonomy key (with a
   numeric "node") or "metrics.snapshot" (with a "metrics" object). *)

module Json = Pm2_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("check_trace: " ^ s); exit 1) fmt

let read_file path =
  let ic = try open_in_bin path with Sys_error e -> fail "%s" e in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let str_field name obj =
  Option.bind (Json.member name obj) Json.to_string_val

let num_field name obj =
  Option.bind (Json.member name obj) Json.to_float

(* One causal span as read back from the trace file. *)
type span = {
  id : int;
  trace : int;
  parent : int;
  ts : float;
  dur : float;
  pid : int;
}

let span_of_event e =
  match Json.member "args" e with
  | None -> fail "span event without args"
  | Some args ->
    let int_arg k =
      match num_field k args with
      | Some v -> int_of_float v
      | None -> fail "span event missing args.%s" k
    in
    let num k o = match num_field k o with
      | Some v -> v
      | None -> fail "span event missing %s" k
    in
    {
      id = int_arg "span";
      trace = int_arg "trace";
      parent = int_arg "parent";
      ts = num "ts" e;
      dur = num "dur" e;
      pid = int_of_float (num "pid" e);
    }

(* Span-tree invariants, per trace id:
   - exactly one root (parent = -1);
   - every non-root's parent is a span of the same trace;
   - a child never starts before its parent (<= up to float slack);
   - the tree is connected (every span reaches the root). *)
let validate_spans spans =
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun s ->
       if Hashtbl.mem by_id s.id then fail "duplicate span id %d" s.id;
       Hashtbl.replace by_id s.id s)
    spans;
  let traces = Hashtbl.create 8 in
  List.iter
    (fun s ->
       let l = Option.value ~default:[] (Hashtbl.find_opt traces s.trace) in
       Hashtbl.replace traces s.trace (s :: l))
    spans;
  let eps = 1e-6 in
  let multi_node = ref 0 in
  Hashtbl.iter
    (fun trace members ->
       let roots = List.filter (fun s -> s.parent = -1) members in
       (match roots with
        | [ _ ] -> ()
        | l -> fail "trace %d has %d roots (want exactly 1)" trace (List.length l));
       List.iter
         (fun s ->
            if s.parent <> -1 then
              match Hashtbl.find_opt by_id s.parent with
              | None -> fail "span %d (trace %d) has unknown parent %d" s.id trace s.parent
              | Some p ->
                if p.trace <> trace then
                  fail "span %d parents across traces (%d -> %d)" s.id trace p.trace;
                if s.ts +. eps < p.ts then
                  fail "span %d starts at %.3f before its parent %d at %.3f" s.id s.ts
                    p.id p.ts)
         members;
       (* Connectivity: walk each span up to the root; parent links are
          acyclic because every hop must strictly shrink the remaining
          budget. *)
       let budget = List.length members in
       List.iter
         (fun s ->
            let rec climb s steps =
              if steps > budget then fail "span %d: parent chain does not terminate" s.id
              else if s.parent <> -1 then climb (Hashtbl.find by_id s.parent) (steps + 1)
            in
            climb s 0)
         members;
       let pids = List.sort_uniq compare (List.map (fun s -> s.pid) members) in
       if List.length pids >= 2 then incr multi_node)
    traces;
  (Hashtbl.length traces, !multi_node)

(* Validate a flight-recorder dump: the abort path's automatic JSON. *)
let check_flight path =
  let json =
    match Json.parse (read_file path) with
    | Ok j -> j
    | Error e -> fail "%s: invalid JSON: %s" path e
  in
  (match Option.bind (Json.member "recorder" json) Json.to_string_val with
   | Some "pm2-flight/1" -> ()
   | Some v -> fail "%s: unknown recorder format %S" path v
   | None -> fail "%s: no recorder field" path);
  let triggers =
    match Option.bind (Json.member "triggers" json) Json.to_list with
    | Some l -> l
    | None -> fail "%s: no triggers array" path
  in
  if triggers = [] then fail "%s: recorder dumped with no triggers" path;
  List.iter
    (fun t ->
       if num_field "t" t = None then fail "trigger without time";
       if str_field "reason" t = None then fail "trigger without reason")
    triggers;
  let nodes =
    match Json.member "nodes" json with
    | Some (Json.Obj fields) -> fields
    | _ -> fail "%s: no nodes object" path
  in
  if nodes = [] then fail "%s: recorder holds no per-node rings" path;
  let events = ref 0 in
  List.iter
    (fun (_, ring) ->
       match Option.bind (Json.member "events" ring) Json.to_list with
       | None -> fail "%s: ring without events array" path
       | Some l ->
         List.iter
           (fun e ->
              if num_field "t" e = None then fail "ring record without time";
              if str_field "name" e = None then fail "ring record without name")
           l;
         events := !events + List.length l)
    nodes;
  if !events = 0 then fail "%s: recorder rings are all empty" path;
  Printf.printf "check_trace: %s ok (flight dump, %d triggers, %d nodes, %d events)\n"
    path (List.length triggers) (List.length nodes) !events;
  exit 0

(* Every Event.name key: one event per constructor and sub-kind. *)
let taxonomy =
  let open Pm2_obs.Event in
  let heap_events heap =
    [ Block_alloc { heap; addr = 0; bytes = 0 }; Block_free { heap; addr = 0; bytes = 0 };
      Block_split { heap; addr = 0; bytes = 0 }; Block_coalesce { heap; addr = 0; bytes = 0 } ]
  in
  let phase_events phase =
    [ Migration_phase { tid = 0; phase; bytes = 0; slots = 0; dur = 0. };
      Group_migration_phase { gid = 0; phase; members = 0; bytes = 0; slots = 0; dur = 0. } ]
  in
  let fault kind = Fault_inject { kind; src = 0; dst = 0; bytes = 0 } in
  let span kind =
    Span_end
      { trace = 0; span = 0; parent = 0; kind; start = 0.; dur = 0.; host_us = 0.; note = "" }
  in
  List.concat_map heap_events [ Local; Iso ]
  @ List.concat_map phase_events [ Pack; Send; Remap; Restart ]
  @ List.map fault [ Drop_loss; Drop_partition; Drop_dead; Duplicate; Corrupt ]
  @ List.map span
      [ Migration; Negotiate; Probe; Pack; Train; Unpack; Commit; Rollback; Delta_refetch ]
  @ [ Slot_reserve { slot = 0; n = 0; cache_hit = false };
      Slot_release { slot = 0; cached = false };
      Slot_transfer { slot = 0; seller = 0; buyer = 0 };
      Pack_slot { tid = 0; slot = 0; bytes = 0 };
      Unpack_slot { tid = 0; slot = 0; bytes = 0 };
      Neg_request { requester = 0; n = 0 };
      Neg_round { requester = 0; peer = 0; bytes = 0 };
      Neg_grant { requester = 0; start = 0; n = 0; bought = 0; dur = 0. };
      Neg_deny { requester = 0; n = 0; dur = 0. };
      Packet_send { src = 0; dst = 0; bytes = 0 };
      Packet_deliver { src = 0; dst = 0; bytes = 0 };
      Node_kill { node = 0 };
      Node_restart { node = 0 };
      Net_retransmit { src = 0; dst = 0; seq = 0; attempt = 0; bytes = 0 };
      Net_dup_suppress { src = 0; dst = 0; seq = 0 };
      Net_give_up { src = 0; dst = 0; seq = 0; attempts = 0 };
      Migration_abort { tid = 0; src = 0; dst = 0; reason = "" };
      Migration_rollback { tid = 0; node = 0; slots = 0 };
      Neg_abort { requester = 0; n = 0; lease_until = 0. };
      Group_migration_start { gid = 0; src = 0; dst = 0; members = 0 };
      Group_migration_commit { gid = 0; dst = 0; members = 0; bytes = 0 };
      Group_migration_abort { gid = 0; src = 0; dst = 0; reason = "" };
      Train_send { src = 0; dst = 0; train = 0; frags = 0; bytes = 0 };
      Train_retransmit { src = 0; dst = 0; train = 0; attempt = 0; bytes = 0 };
      Train_ack { src = 0; dst = 0; train = 0 };
      Delta_hit { tid = 0; pages = 0 };
      Delta_miss { tid = 0; pages = 0 };
      Delta_evict { tid = 0; bytes = 0 };
      Thread_printf { tid = 0; text = "" };
      Node_crash { node = 0; threads = 0 };
      Node_suspected { node = 0; by = 0 };
      Node_dead { node = 0; by = 0 };
      Checkpoint { tid = 0; node = 0; bytes = 0; full_bytes = 0; new_pages = 0 };
      Thread_restore { tid = 0; node = 0; from_node = 0; gen = 0 };
      Thread_lost { tid = 0; node = 0; reason = "" };
      Delta_invalidate { node = 0; peer = 0; entries = 0 } ]
  |> List.map name

(* Validate `--trace-stream` JSON-lines output. *)
let check_stream path =
  let lines = String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "") in
  if lines = [] then fail "%s: empty stream" path;
  let last = ref neg_infinity and snapshots = ref 0 in
  List.iteri
    (fun i line ->
       let e =
         match Json.parse line with
         | Ok e -> e
         | Error err -> fail "%s:%d: invalid JSON: %s" path (i + 1) err
       in
       let t =
         match num_field "t" e with
         | Some t -> t
         | None -> fail "%s:%d: no numeric t" path (i + 1)
       in
       if t < !last then fail "%s:%d: t=%g before the previous line's %g" path (i + 1) t !last;
       last := t;
       match str_field "name" e with
       | Some "metrics.snapshot" -> (
         incr snapshots;
         match Json.member "metrics" e with
         | Some (Json.Obj _) -> ()
         | _ -> fail "%s:%d: snapshot without a metrics object" path (i + 1))
       | Some name ->
         if not (List.mem name taxonomy) then
           fail "%s:%d: %S is not an event name" path (i + 1) name;
         if num_field "node" e = None then fail "%s:%d: no numeric node" path (i + 1)
       | None -> fail "%s:%d: no name" path (i + 1))
    lines;
  Printf.printf "check_trace: %s ok (stream, %d lines, %d metrics snapshots)\n" path
    (List.length lines) !snapshots;
  exit 0

let () =
  if Array.length Sys.argv > 2 && Sys.argv.(1) = "--stream" then
    check_stream Sys.argv.(2);
  if Array.length Sys.argv > 2 && Sys.argv.(1) = "--flight" then
    check_flight Sys.argv.(2);
  let path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else fail "usage: check_trace FILE [--require-spans]"
  in
  let require_spans =
    Array.exists (fun a -> a = "--require-spans") Sys.argv
  in
  let json =
    match Json.parse (read_file path) with
    | Ok j -> j
    | Error e -> fail "%s: invalid JSON: %s" path e
  in
  let events =
    match Option.bind (Json.member "traceEvents" json) Json.to_list with
    | Some l -> l
    | None -> fail "%s: no traceEvents array" path
  in
  if events = [] then fail "%s: empty traceEvents" path;
  let spans = ref 0 and migrate_spans = ref 0 in
  let causal = ref [] in
  List.iter
    (fun e ->
       let name = match str_field "name" e with
         | Some n -> n
         | None -> fail "event without name" in
       (match str_field "ph" e with
        | Some "X" ->
          incr spans;
          if num_field "dur" e = None then fail "span %s without dur" name;
          let has_prefix p =
            String.length name > String.length p
            && String.sub name 0 (String.length p) = p
          in
          if has_prefix "migrate:" || has_prefix "group_migrate:" then
            incr migrate_spans;
          if str_field "cat" e = Some "span" then causal := span_of_event e :: !causal
        | Some ("i" | "M") -> ()
        | Some ("s" | "f") ->
          (* Cross-node flow arrows binding a remote child to its parent
             slice; they carry the child span id and a timestamp. *)
          if num_field "id" e = None then fail "flow event %s without id" name
        | Some ph -> fail "unexpected phase %S on %s" ph name
        | None -> fail "event %s without ph" name);
       match str_field "ph" e with
       | Some "M" -> ()
       | _ -> if num_field "ts" e = None then fail "event %s without ts" name)
    events;
  if !migrate_spans = 0 then fail "%s: no migrate:* spans recorded" path;
  let ntraces, nmulti = validate_spans !causal in
  if require_spans then begin
    if !causal = [] then fail "%s: no causal spans recorded" path;
    if nmulti = 0 then fail "%s: no trace spans more than one node" path
  end;
  Printf.printf
    "check_trace: %s ok (%d events, %d spans, %d migration phases, %d traces, %d cross-node)\n"
    path (List.length events) !spans !migrate_spans ntraces nmulti

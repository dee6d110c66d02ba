(* pm2-ctl/1 — the versioned line/JSON control-plane codec. Requests,
   replies and event pushes are written straight through the Json writer
   (field order is part of the golden frame format); decoding is total — every failure, from malformed JSON to a
   bad policy sub-grammar, comes back as a typed [err], never an
   exception. *)

module Json = Pm2_obs.Json
module Plan = Pm2_fault.Plan
module Balancer = Pm2_loadbal.Balancer

let version = "pm2-ctl/1"

(* -- errors -- *)

type err_kind =
  | Bad_request
  | Unknown_entry
  | Unknown_thread
  | Bad_node
  | Rejected
  | Unsupported
  | Shutting_down
  | Runtime

type err = { kind : err_kind; msg : string }

let err_kind_to_string = function
  | Bad_request -> "bad_request"
  | Unknown_entry -> "unknown_entry"
  | Unknown_thread -> "unknown_thread"
  | Bad_node -> "bad_node"
  | Rejected -> "rejected"
  | Unsupported -> "unsupported"
  | Shutting_down -> "shutting_down"
  | Runtime -> "runtime"

let err_kind_of_string = function
  | "bad_request" -> Some Bad_request
  | "unknown_entry" -> Some Unknown_entry
  | "unknown_thread" -> Some Unknown_thread
  | "bad_node" -> Some Bad_node
  | "rejected" -> Some Rejected
  | "unsupported" -> Some Unsupported
  | "shutting_down" -> Some Shutting_down
  | "runtime" -> Some Runtime
  | _ -> None

let err_of_error (e : Session.error) =
  let kind =
    match e with
    | Session.Bad_request _ -> Bad_request
    | Session.Unknown_entry _ -> Unknown_entry
    | Session.Unknown_thread _ -> Unknown_thread
    | Session.Bad_node _ -> Bad_node
    | Session.Rejected _ -> Rejected
    | Session.Unsupported _ -> Unsupported
    | Session.Shutting_down -> Shutting_down
    | Session.Runtime _ -> Runtime
  in
  { kind; msg = Session.error_to_string e }

let bad msg = { kind = Bad_request; msg }

(* -- types -- *)

type request =
  | Hello
  | Submit of Session.submit_spec
  | Step of { max_events : int }
  | Run of { until : float option }
  | Query_threads
  | Query_metrics
  | Query_heat
  | Query_status
  | Migrate of { tid : int; dest : int }
  | Migrate_group of { tids : int list; dest : int }
  | Inject_faults of { spec : Plan.spec }
  | Balance of { policy : Balancer.policy; period : float }
  | Checkpoint
  | Subscribe
  | Unsubscribe of { sub : int }
  | Shutdown

type status = {
  s_time : float;
  s_domains : int;
  s_live : int;
  s_threads : int;
  s_migrations : int;
  s_groups : int;
  s_negotiations : int;
  s_aborted : int;
  s_mean_latency : float option;
  s_faults : string option;
  s_retransmits : int;
  s_duplicates : int;
  s_give_ups : int;
  s_checkpointing : bool;
  s_checkpoints : int;
  s_page_saves : int;
  s_dedup_pages : int;
  s_restored : int;
  s_stranded : int;
  s_lost : string list;
}

let status_of_session (st : Session.status) =
  {
    s_time = st.Session.st_time;
    s_domains = 1;
    s_live = st.Session.st_live;
    s_threads = st.Session.st_threads;
    s_migrations = st.Session.st_migrations;
    s_groups = st.Session.st_groups;
    s_negotiations = st.Session.st_negotiations;
    s_aborted = st.Session.st_aborted;
    s_mean_latency = st.Session.st_mean_latency;
    s_faults = (if st.Session.st_faults_enabled then Some st.Session.st_faults_summary else None);
    s_retransmits = st.Session.st_retransmits;
    s_duplicates = st.Session.st_duplicates;
    s_give_ups = st.Session.st_give_ups;
    s_checkpointing = st.Session.st_checkpointing;
    s_checkpoints = st.Session.st_checkpoints;
    s_page_saves = st.Session.st_page_saves;
    s_dedup_pages = st.Session.st_dedup_pages;
    s_restored = st.Session.st_restored;
    s_stranded = st.Session.st_stranded;
    s_lost = List.map Pm2_core.Pm2.Error.to_string st.Session.st_lost;
  }

type response =
  | Welcome of { proto : string; server : string; nodes : int; entries : string list }
  | Submitted of { tid : int }
  | Stepped of { events : int; time : float; live : int; pending : int }
  | Ran of { time : float; live : int }
  | Threads of Session.thread_info list
  | Metrics of Json.t
  | Heat of (string * float) list
  | Status of status
  | Migrating
  | Group of { gid : int }
  | Injected of { spec : string }
  | Balancing of { policy : string }
  | Checkpointed of { snapshots : int }
  | Subscribed of { sub : int }
  | Unsubscribed
  | Bye

type frame =
  | Reply of int * (response, err) result
  | Event of { sub : int; body : Json.t }

(* -- encoding -- *)

(* Every frame is written straight into a buffer through the Json
   writer; the field order is part of the golden frame format. *)

let open_frame w =
  Json.obj_start w;
  Json.str_field w "v" version

let write_request buf ~id req =
  let w = Json.writer buf in
  open_frame w;
  Json.int_field w "id" id;
  let req_name n = Json.str_field w "req" n in
  (match req with
   | Hello -> req_name "hello"
   | Submit { Session.entry; arg; node } ->
     req_name "submit";
     Json.str_field w "entry" entry;
     Json.int_field w "arg" arg;
     Json.int_field w "node" node
   | Step { max_events } ->
     req_name "step";
     Json.int_field w "events" max_events
   | Run { until } -> (
     req_name "run";
     match until with None -> () | Some u -> Json.num_field w "until" u)
   | Query_threads -> req_name "threads"
   | Query_metrics -> req_name "metrics"
   | Query_heat -> req_name "heat"
   | Query_status -> req_name "status"
   | Migrate { tid; dest } ->
     req_name "migrate";
     Json.int_field w "tid" tid;
     Json.int_field w "dest" dest
   | Migrate_group { tids; dest } ->
     req_name "migrate-group";
     Json.key w "tids";
     Json.arr_start w;
     List.iter (Json.int w) tids;
     Json.arr_end w;
     Json.int_field w "dest" dest
   | Inject_faults { spec } ->
     req_name "inject-faults";
     Json.str_field w "spec" (Plan.spec_to_string spec)
   | Balance { policy; period } ->
     req_name "balance";
     Json.str_field w "policy" (Balancer.Policy.to_string policy);
     Json.num_field w "period" period
   | Checkpoint -> req_name "checkpoint"
   | Subscribe -> req_name "subscribe"
   | Unsubscribe { sub } ->
     req_name "unsubscribe";
     Json.int_field w "sub" sub
   | Shutdown -> req_name "shutdown");
  Json.obj_end w

let to_line write =
  let buf = Buffer.create 256 in
  write buf;
  Buffer.contents buf

let encode_request ~id req = to_line (fun buf -> write_request buf ~id req)

let write_thread w (ti : Session.thread_info) =
  Json.obj_start w;
  Json.int_field w "tid" ti.Session.ti_tid;
  Json.int_field w "node" ti.Session.ti_node;
  Json.str_field w "state" ti.Session.ti_state;
  (match ti.Session.ti_pending_dest with None -> () | Some d -> Json.int_field w "dest" d);
  Json.obj_end w

let write_status w (s : status) =
  Json.num_field w "time" s.s_time;
  Json.int_field w "domains" s.s_domains;
  Json.int_field w "live" s.s_live;
  Json.int_field w "threads" s.s_threads;
  Json.int_field w "migrations" s.s_migrations;
  Json.int_field w "groups" s.s_groups;
  Json.int_field w "negotiations" s.s_negotiations;
  Json.int_field w "aborted" s.s_aborted;
  (match s.s_mean_latency with None -> () | Some l -> Json.num_field w "mean_latency" l);
  (match s.s_faults with None -> () | Some f -> Json.str_field w "faults" f);
  Json.int_field w "retransmits" s.s_retransmits;
  Json.int_field w "duplicates" s.s_duplicates;
  Json.int_field w "give_ups" s.s_give_ups;
  Json.bool_field w "checkpointing" s.s_checkpointing;
  Json.int_field w "checkpoints" s.s_checkpoints;
  Json.int_field w "page_saves" s.s_page_saves;
  Json.int_field w "dedup_pages" s.s_dedup_pages;
  Json.int_field w "restored" s.s_restored;
  Json.int_field w "stranded" s.s_stranded;
  Json.key w "lost";
  Json.arr_start w;
  List.iter (Json.str w) s.s_lost;
  Json.arr_end w

let write_response w resp =
  let ok n = Json.str_field w "ok" n in
  match resp with
  | Welcome { proto; server; nodes; entries } ->
    ok "welcome";
    Json.str_field w "proto" proto;
    Json.str_field w "server" server;
    Json.int_field w "nodes" nodes;
    Json.key w "entries";
    Json.arr_start w;
    List.iter (Json.str w) entries;
    Json.arr_end w
  | Submitted { tid } ->
    ok "submitted";
    Json.int_field w "tid" tid
  | Stepped { events; time; live; pending } ->
    ok "stepped";
    Json.int_field w "events" events;
    Json.num_field w "time" time;
    Json.int_field w "live" live;
    Json.int_field w "pending" pending
  | Ran { time; live } ->
    ok "ran";
    Json.num_field w "time" time;
    Json.int_field w "live" live
  | Threads tis ->
    ok "threads";
    Json.key w "threads";
    Json.arr_start w;
    List.iter (write_thread w) tis;
    Json.arr_end w
  | Metrics m ->
    ok "metrics";
    Json.key w "metrics";
    Json.value w m
  | Heat gauges ->
    ok "heat";
    Json.key w "gauges";
    Json.obj_start w;
    List.iter (fun (k, v) -> Json.num_field w k v) gauges;
    Json.obj_end w
  | Status s ->
    ok "status";
    write_status w s
  | Migrating -> ok "migrating"
  | Group { gid } ->
    ok "group";
    Json.int_field w "gid" gid
  | Injected { spec } ->
    ok "injected";
    Json.str_field w "spec" spec
  | Balancing { policy } ->
    ok "balancing";
    Json.str_field w "policy" policy
  | Checkpointed { snapshots } ->
    ok "checkpointed";
    Json.int_field w "snapshots" snapshots
  | Subscribed { sub } ->
    ok "subscribed";
    Json.int_field w "sub" sub
  | Unsubscribed -> ok "unsubscribed"
  | Bye -> ok "bye"

let write_reply buf ~id result =
  let w = Json.writer buf in
  open_frame w;
  Json.int_field w "id" id;
  (match result with
   | Ok resp -> write_response w resp
   | Error { kind; msg } ->
     Json.str_field w "err" (err_kind_to_string kind);
     Json.str_field w "msg" msg);
  Json.obj_end w

let encode_reply ~id result = to_line (fun buf -> write_reply buf ~id result)

(* The [ev] object is the JSON-lines shape of Pm2_obs.Stream: the event's
   own fields behind virtual-time and node stamps. *)
let write_event buf ~sub ~time ~node ev =
  let w = Json.writer buf in
  open_frame w;
  Json.int_field w "sub" sub;
  Json.key w "ev";
  Json.obj_start w;
  Json.num_field w "t" time;
  Json.int_field w "node" node;
  Pm2_obs.Event.write w ev;
  Json.obj_end w;
  Json.obj_end w

let encode_event ~sub ~time ~node ev = to_line (fun buf -> write_event buf ~sub ~time ~node ev)

(* -- decoding (total) -- *)

(* The decoders raise [Bad] at the first failure, in field order, and
   the two entry points turn it into an [Error]: nothing escapes. *)
exception Bad of err

let fail fmt = Printf.ksprintf (fun msg -> raise (Bad (bad msg))) fmt

let as_int name = function
  | Json.Num f when Float.is_integer f && Float.abs f < 1e15 -> int_of_float f
  | _ -> fail "%s: expected an integer" name

let as_float name = function
  | Json.Num f when Float.is_finite f -> f
  | _ -> fail "%s: expected a number" name

let as_str name = function Json.Str s -> s | _ -> fail "%s: expected a string" name

let field name j =
  match Json.member name j with Some v -> v | None -> fail "missing field %S" name

let int_field name j = as_int name (field name j)
let float_field name j = as_float name (field name j)
let str_field name j = as_str name (field name j)

let opt_field name conv j =
  match Json.member name j with None -> None | Some v -> Some (conv name v)

let int_field_or name ~default j = Option.value ~default (opt_field name as_int j)

(* [List.map] applies [conv] front to back, so the first bad element is
   the one reported. *)
let list_field name conv j =
  match field name j with
  | Json.Arr xs -> List.map (conv name) xs
  | _ -> fail "%s: expected an array" name

let parse_versioned s =
  match Json.parse s with
  | Error e -> fail "malformed frame: %s" e
  | Ok (Json.Obj _ as j) -> (
    match Json.member "v" j with
    | Some (Json.Str v) when v = version -> j
    | Some (Json.Str v) -> fail "unsupported protocol version %S (this is %s)" v version
    | _ -> fail "missing protocol version (expected \"v\":%S)" version)
  | Ok _ -> fail "frame is not a JSON object"

let decode_req_body j =
  match str_field "req" j with
  | "hello" -> Hello
  | "submit" ->
    let entry = str_field "entry" j in
    let arg = int_field_or "arg" ~default:0 j in
    let node = int_field_or "node" ~default:0 j in
    Submit { Session.entry; arg; node }
  | "step" ->
    let max_events = int_field_or "events" ~default:1000 j in
    if max_events <= 0 then fail "events: must be > 0" else Step { max_events }
  | "run" -> Run { until = opt_field "until" as_float j }
  | "threads" -> Query_threads
  | "metrics" -> Query_metrics
  | "heat" -> Query_heat
  | "status" -> Query_status
  | "migrate" ->
    let tid = int_field "tid" j in
    let dest = int_field "dest" j in
    Migrate { tid; dest }
  | "migrate-group" ->
    let tids = list_field "tids" as_int j in
    let dest = int_field "dest" j in
    Migrate_group { tids; dest }
  | "inject-faults" -> (
    match Plan.spec_of_string (str_field "spec" j) with
    | Ok spec -> Inject_faults { spec }
    | Error e -> fail "faults spec: %s" e)
  | "balance" -> (
    match Balancer.Policy.of_string (str_field "policy" j) with
    | Error e -> fail "policy: %s" e
    | Ok policy ->
      let period = Option.value ~default:400. (opt_field "period" as_float j) in
      Balance { policy; period })
  | "checkpoint" -> Checkpoint
  | "subscribe" -> Subscribe
  | "unsubscribe" -> Unsubscribe { sub = int_field "sub" j }
  | "shutdown" -> Shutdown
  | other -> fail "unknown request %S" other

let decode_request s =
  match parse_versioned s with
  | exception Bad e -> Error (0, e)
  | j -> (
    (* Recover the correlation id even from otherwise-broken requests so
       the error reply still correlates. *)
    let id =
      match Json.member "id" j with
      | Some (Json.Num f) when Float.is_integer f && Float.abs f < 1e15 -> int_of_float f
      | _ -> 0
    in
    match int_field "id" j with
    | exception Bad e -> Error (0, e)
    | _ -> ( match decode_req_body j with req -> Ok (id, req) | exception Bad e -> Error (id, e)))

let decode_thread j =
  let tid = int_field "tid" j in
  let node = int_field "node" j in
  let state = str_field "state" j in
  let dest = opt_field "dest" as_int j in
  { Session.ti_tid = tid; ti_node = node; ti_state = state; ti_pending_dest = dest }

let decode_status j =
  let s_time = float_field "time" j in
  let s_domains = int_field "domains" j in
  let s_live = int_field "live" j in
  let s_threads = int_field "threads" j in
  let s_migrations = int_field "migrations" j in
  let s_groups = int_field "groups" j in
  let s_negotiations = int_field "negotiations" j in
  let s_aborted = int_field "aborted" j in
  let s_mean_latency = opt_field "mean_latency" as_float j in
  let s_faults = opt_field "faults" as_str j in
  let s_retransmits = int_field "retransmits" j in
  let s_duplicates = int_field "duplicates" j in
  let s_give_ups = int_field "give_ups" j in
  let s_checkpointing =
    match field "checkpointing" j with
    | Json.Bool b -> b
    | _ -> fail "checkpointing: expected a boolean"
  in
  let s_checkpoints = int_field "checkpoints" j in
  let s_page_saves = int_field "page_saves" j in
  let s_dedup_pages = int_field "dedup_pages" j in
  let s_restored = int_field "restored" j in
  let s_stranded = int_field "stranded" j in
  let s_lost = list_field "lost" as_str j in
  Status
    { s_time; s_domains; s_live; s_threads; s_migrations; s_groups; s_negotiations;
      s_aborted; s_mean_latency; s_faults; s_retransmits; s_duplicates;
      s_give_ups; s_checkpointing; s_checkpoints; s_page_saves;
      s_dedup_pages; s_restored; s_stranded; s_lost }

let decode_response j =
  match str_field "ok" j with
  | "welcome" ->
    let proto = str_field "proto" j in
    let server = str_field "server" j in
    let nodes = int_field "nodes" j in
    let entries = list_field "entries" as_str j in
    Welcome { proto; server; nodes; entries }
  | "submitted" -> Submitted { tid = int_field "tid" j }
  | "stepped" ->
    let events = int_field "events" j in
    let time = float_field "time" j in
    let live = int_field "live" j in
    let pending = int_field "pending" j in
    Stepped { events; time; live; pending }
  | "ran" ->
    let time = float_field "time" j in
    let live = int_field "live" j in
    Ran { time; live }
  | "threads" -> (
    match field "threads" j with
    | Json.Arr xs -> Threads (List.map decode_thread xs)
    | _ -> fail "threads: expected an array")
  | "metrics" -> Metrics (field "metrics" j)
  | "heat" -> (
    match field "gauges" j with
    | Json.Obj kvs -> Heat (List.map (fun (k, x) -> (k, as_float k x)) kvs)
    | _ -> fail "gauges: expected an object")
  | "status" -> decode_status j
  | "migrating" -> Migrating
  | "group" -> Group { gid = int_field "gid" j }
  | "injected" -> Injected { spec = str_field "spec" j }
  | "balancing" -> Balancing { policy = str_field "policy" j }
  | "checkpointed" -> Checkpointed { snapshots = int_field "snapshots" j }
  | "subscribed" -> Subscribed { sub = int_field "sub" j }
  | "unsubscribed" -> Unsubscribed
  | "bye" -> Bye
  | other -> fail "unknown response %S" other

let decode_frame s =
  match
    let j = parse_versioned s in
    match Json.member "id" j with
    | None -> (
      (* No correlation id: a subscription push. *)
      let sub = int_field "sub" j in
      match field "ev" j with
      | Json.Obj _ as body -> Event { sub; body }
      | _ -> fail "ev: expected an object")
    | Some _ -> (
      let id = int_field "id" j in
      match Json.member "err" j with
      | Some kind -> (
        let kind = as_str "err" kind in
        let msg = str_field "msg" j in
        match err_kind_of_string kind with
        | Some kind -> Reply (id, Error { kind; msg })
        | None -> fail "unknown error kind %S" kind)
      | None -> Reply (id, Ok (decode_response j)))
  with
  | frame -> Ok frame
  | exception Bad e -> Error e

(* -- the shared dispatcher -- *)

let lift r = Result.map_error err_of_error r

let apply ?(server = "pm2simd") session req =
  match req with
  | Hello ->
    Ok
      (Welcome
         { proto = version;
           server;
           nodes = Session.nodes session;
           entries = Session.entries session })
  | Submit spec -> lift (Result.map (fun tid -> Submitted { tid }) (Session.submit session spec))
  | Step { max_events } ->
    let events = Session.step session ~max_events in
    Ok
      (Stepped
         { events;
           time = Session.now session;
           live = Session.live_threads session;
           pending = Session.pending_events session })
  | Run { until } ->
    let r =
      match until with
      | Some time -> Session.run_until session ~time
      | None -> Session.run session
    in
    lift (Result.map (fun time -> Ran { time; live = Session.live_threads session }) r)
  | Query_threads -> Ok (Threads (Session.query_threads session))
  | Query_metrics -> Ok (Metrics (Pm2_obs.Metrics.to_json (Session.metrics session)))
  | Query_heat -> Ok (Heat (Session.query_heat session))
  | Query_status -> Ok (Status (status_of_session (Session.status session)))
  | Migrate { tid; dest } ->
    lift (Result.map (fun () -> Migrating) (Session.migrate session ~tid ~dest))
  | Migrate_group { tids; dest } ->
    lift (Result.map (fun gid -> Group { gid }) (Session.migrate_group session ~tids ~dest))
  | Inject_faults { spec } ->
    lift
      (Result.map
         (fun () -> Injected { spec = Plan.spec_to_string spec })
         (Session.inject_faults session spec))
  | Balance { policy; period } ->
    lift
      (Result.map
         (fun () -> Balancing { policy = Balancer.Policy.to_string policy })
         (Session.balance session ~policy ~period ()))
  | Checkpoint ->
    lift (Result.map (fun snapshots -> Checkpointed { snapshots }) (Session.checkpoint session))
  | Subscribe ->
    Error
      { kind = Unsupported;
        msg = "subscribe requires a streaming front end (the pm2simd socket daemon)" }
  | Unsubscribe { sub } ->
    Session.unsubscribe session sub;
    Ok Unsubscribed
  | Shutdown ->
    Session.shutdown session;
    Ok Bye

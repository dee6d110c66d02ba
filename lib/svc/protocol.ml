(* pm2-ctl/1 — the versioned line/JSON control-plane codec. Requests and
   replies are plain Json.Obj construction and event pushes are written
   straight through the Json writer (field order is part of the golden
   frame format); decoding is total — every failure, from malformed JSON to a
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

let num i = Json.Num (float_of_int i)
let jstr s = Json.Str s

let line fields = Json.to_string (Json.Obj (("v", jstr version) :: fields))

let request_fields = function
  | Hello -> [ ("req", jstr "hello") ]
  | Submit { Session.entry; arg; node } ->
    [ ("req", jstr "submit"); ("entry", jstr entry); ("arg", num arg); ("node", num node) ]
  | Step { max_events } -> [ ("req", jstr "step"); ("events", num max_events) ]
  | Run { until } ->
    ("req", jstr "run")
    :: (match until with None -> [] | Some u -> [ ("until", Json.Num u) ])
  | Query_threads -> [ ("req", jstr "threads") ]
  | Query_metrics -> [ ("req", jstr "metrics") ]
  | Query_heat -> [ ("req", jstr "heat") ]
  | Query_status -> [ ("req", jstr "status") ]
  | Migrate { tid; dest } ->
    [ ("req", jstr "migrate"); ("tid", num tid); ("dest", num dest) ]
  | Migrate_group { tids; dest } ->
    [ ("req", jstr "migrate-group"); ("tids", Json.Arr (List.map num tids)); ("dest", num dest) ]
  | Inject_faults { spec } ->
    [ ("req", jstr "inject-faults"); ("spec", jstr (Plan.spec_to_string spec)) ]
  | Balance { policy; period } ->
    [ ("req", jstr "balance");
      ("policy", jstr (Balancer.Policy.to_string policy));
      ("period", Json.Num period) ]
  | Checkpoint -> [ ("req", jstr "checkpoint") ]
  | Subscribe -> [ ("req", jstr "subscribe") ]
  | Unsubscribe { sub } -> [ ("req", jstr "unsubscribe"); ("sub", num sub) ]
  | Shutdown -> [ ("req", jstr "shutdown") ]

let encode_request ~id req = line (("id", num id) :: request_fields req)

let thread_fields (ti : Session.thread_info) =
  Json.Obj
    (("tid", num ti.Session.ti_tid)
     :: ("node", num ti.Session.ti_node)
     :: ("state", jstr ti.Session.ti_state)
     :: (match ti.Session.ti_pending_dest with
        | None -> []
        | Some d -> [ ("dest", num d) ]))

let status_fields (s : status) =
  [ ("time", Json.Num s.s_time);
    ("domains", num s.s_domains);
    ("live", num s.s_live);
    ("threads", num s.s_threads);
    ("migrations", num s.s_migrations);
    ("groups", num s.s_groups);
    ("negotiations", num s.s_negotiations);
    ("aborted", num s.s_aborted) ]
  @ (match s.s_mean_latency with None -> [] | Some l -> [ ("mean_latency", Json.Num l) ])
  @ (match s.s_faults with None -> [] | Some f -> [ ("faults", jstr f) ])
  @ [ ("retransmits", num s.s_retransmits);
      ("duplicates", num s.s_duplicates);
      ("give_ups", num s.s_give_ups);
      ("checkpointing", Json.Bool s.s_checkpointing);
      ("checkpoints", num s.s_checkpoints);
      ("page_saves", num s.s_page_saves);
      ("dedup_pages", num s.s_dedup_pages);
      ("restored", num s.s_restored);
      ("stranded", num s.s_stranded);
      ("lost", Json.Arr (List.map jstr s.s_lost)) ]

let response_fields = function
  | Welcome { proto; server; nodes; entries } ->
    [ ("ok", jstr "welcome");
      ("proto", jstr proto);
      ("server", jstr server);
      ("nodes", num nodes);
      ("entries", Json.Arr (List.map jstr entries)) ]
  | Submitted { tid } -> [ ("ok", jstr "submitted"); ("tid", num tid) ]
  | Stepped { events; time; live; pending } ->
    [ ("ok", jstr "stepped");
      ("events", num events);
      ("time", Json.Num time);
      ("live", num live);
      ("pending", num pending) ]
  | Ran { time; live } -> [ ("ok", jstr "ran"); ("time", Json.Num time); ("live", num live) ]
  | Threads tis -> [ ("ok", jstr "threads"); ("threads", Json.Arr (List.map thread_fields tis)) ]
  | Metrics m -> [ ("ok", jstr "metrics"); ("metrics", m) ]
  | Heat gauges ->
    [ ("ok", jstr "heat");
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) gauges)) ]
  | Status s -> ("ok", jstr "status") :: status_fields s
  | Migrating -> [ ("ok", jstr "migrating") ]
  | Group { gid } -> [ ("ok", jstr "group"); ("gid", num gid) ]
  | Injected { spec } -> [ ("ok", jstr "injected"); ("spec", jstr spec) ]
  | Balancing { policy } -> [ ("ok", jstr "balancing"); ("policy", jstr policy) ]
  | Checkpointed { snapshots } -> [ ("ok", jstr "checkpointed"); ("snapshots", num snapshots) ]
  | Subscribed { sub } -> [ ("ok", jstr "subscribed"); ("sub", num sub) ]
  | Unsubscribed -> [ ("ok", jstr "unsubscribed") ]
  | Bye -> [ ("ok", jstr "bye") ]

let encode_reply ~id result =
  match result with
  | Ok resp -> line (("id", num id) :: response_fields resp)
  | Error { kind; msg } ->
    line [ ("id", num id); ("err", jstr (err_kind_to_string kind)); ("msg", jstr msg) ]

(* The [ev] object is the JSON-lines shape of Pm2_obs.Stream: the event's
   own fields behind virtual-time and node stamps, written straight into
   the frame. *)
let encode_event ~sub ~time ~node ev =
  let buf = Buffer.create 160 in
  let w = Json.writer buf in
  Json.obj_start w;
  Json.str_field w "v" version;
  Json.int_field w "sub" sub;
  Json.key w "ev";
  Json.obj_start w;
  Json.num_field w "t" time;
  Json.int_field w "node" node;
  Pm2_obs.Event.write w ev;
  Json.obj_end w;
  Json.obj_end w;
  Buffer.contents buf

(* -- decoding (total) -- *)

let ( let* ) = Result.bind

let as_int name = function
  | Json.Num f when Float.is_integer f && Float.abs f < 1e15 -> Ok (int_of_float f)
  | _ -> Error (bad (Printf.sprintf "%s: expected an integer" name))

let as_float name = function
  | Json.Num f when Float.is_finite f -> Ok f
  | _ -> Error (bad (Printf.sprintf "%s: expected a number" name))

let as_str name = function
  | Json.Str s -> Ok s
  | _ -> Error (bad (Printf.sprintf "%s: expected a string" name))

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (bad (Printf.sprintf "missing field %S" name))

let int_field name j = let* v = field name j in as_int name v
let float_field name j = let* v = field name j in as_float name v
let str_field name j = let* v = field name j in as_str name v

let opt_field name conv j =
  match Json.member name j with
  | None -> Ok None
  | Some v -> let* x = conv name v in Ok (Some x)

let int_field_or name ~default j =
  let* v = opt_field name as_int j in
  Ok (Option.value ~default v)

let str_list_field name j =
  let* v = field name j in
  match v with
  | Json.Arr xs ->
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        let* s = as_str name x in
        Ok (s :: acc))
      (Ok []) xs
    |> Result.map List.rev
  | _ -> Error (bad (Printf.sprintf "%s: expected an array" name))

let int_list_field name j =
  let* v = field name j in
  match v with
  | Json.Arr xs ->
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        let* i = as_int name x in
        Ok (i :: acc))
      (Ok []) xs
    |> Result.map List.rev
  | _ -> Error (bad (Printf.sprintf "%s: expected an array" name))

let parse_versioned s =
  match Json.parse s with
  | Error e -> Error (bad (Printf.sprintf "malformed frame: %s" e))
  | Ok (Json.Obj _ as j) -> (
    match Json.member "v" j with
    | Some (Json.Str v) when v = version -> Ok j
    | Some (Json.Str v) ->
      Error (bad (Printf.sprintf "unsupported protocol version %S (this is %s)" v version))
    | _ -> Error (bad (Printf.sprintf "missing protocol version (expected \"v\":%S)" version)))
  | Ok _ -> Error (bad "frame is not a JSON object")

let decode_req_body j =
  let* name = str_field "req" j in
  match name with
  | "hello" -> Ok Hello
  | "submit" ->
    let* entry = str_field "entry" j in
    let* arg = int_field_or "arg" ~default:0 j in
    let* node = int_field_or "node" ~default:0 j in
    Ok (Submit { Session.entry; arg; node })
  | "step" ->
    let* max_events = int_field_or "events" ~default:1000 j in
    if max_events <= 0 then Error (bad "events: must be > 0")
    else Ok (Step { max_events })
  | "run" ->
    let* until = opt_field "until" as_float j in
    Ok (Run { until })
  | "threads" -> Ok Query_threads
  | "metrics" -> Ok Query_metrics
  | "heat" -> Ok Query_heat
  | "status" -> Ok Query_status
  | "migrate" ->
    let* tid = int_field "tid" j in
    let* dest = int_field "dest" j in
    Ok (Migrate { tid; dest })
  | "migrate-group" ->
    let* tids = int_list_field "tids" j in
    let* dest = int_field "dest" j in
    Ok (Migrate_group { tids; dest })
  | "inject-faults" ->
    let* spec = str_field "spec" j in
    (match Plan.spec_of_string spec with
     | Ok spec -> Ok (Inject_faults { spec })
     | Error e -> Error (bad (Printf.sprintf "faults spec: %s" e)))
  | "balance" ->
    let* policy = str_field "policy" j in
    (match Balancer.Policy.of_string policy with
     | Error e -> Error (bad (Printf.sprintf "policy: %s" e))
     | Ok policy ->
       let* period = opt_field "period" as_float j in
       Ok (Balance { policy; period = Option.value ~default:400. period }))
  | "checkpoint" -> Ok Checkpoint
  | "subscribe" -> Ok Subscribe
  | "unsubscribe" ->
    let* sub = int_field "sub" j in
    Ok (Unsubscribe { sub })
  | "shutdown" -> Ok Shutdown
  | other -> Error (bad (Printf.sprintf "unknown request %S" other))

let decode_request s =
  match parse_versioned s with
  | Error e -> Error (0, e)
  | Ok j ->
    (* Recover the correlation id even from otherwise-broken requests so
       the error reply still correlates. *)
    let id =
      match Json.member "id" j with
      | Some (Json.Num f) when Float.is_integer f && Float.abs f < 1e15 -> int_of_float f
      | _ -> 0
    in
    (match int_field "id" j with
     | Error e -> Error (0, e)
     | Ok _ -> (
       match decode_req_body j with
       | Ok req -> Ok (id, req)
       | Error e -> Error (id, e)))

let decode_thread j =
  let* tid = int_field "tid" j in
  let* node = int_field "node" j in
  let* state = str_field "state" j in
  let* dest = opt_field "dest" as_int j in
  Ok { Session.ti_tid = tid; ti_node = node; ti_state = state; ti_pending_dest = dest }

let decode_status j =
  let* s_time = float_field "time" j in
  let* s_domains = int_field "domains" j in
  let* s_live = int_field "live" j in
  let* s_threads = int_field "threads" j in
  let* s_migrations = int_field "migrations" j in
  let* s_groups = int_field "groups" j in
  let* s_negotiations = int_field "negotiations" j in
  let* s_aborted = int_field "aborted" j in
  let* s_mean_latency = opt_field "mean_latency" as_float j in
  let* s_faults = opt_field "faults" as_str j in
  let* s_retransmits = int_field "retransmits" j in
  let* s_duplicates = int_field "duplicates" j in
  let* s_give_ups = int_field "give_ups" j in
  let* s_checkpointing =
    match field "checkpointing" j with
    | Ok (Json.Bool b) -> Ok b
    | Ok _ -> Error (bad "checkpointing: expected a boolean")
    | Error e -> Error e
  in
  let* s_checkpoints = int_field "checkpoints" j in
  let* s_page_saves = int_field "page_saves" j in
  let* s_dedup_pages = int_field "dedup_pages" j in
  let* s_restored = int_field "restored" j in
  let* s_stranded = int_field "stranded" j in
  let* s_lost = str_list_field "lost" j in
  Ok
    (Status
       { s_time; s_domains; s_live; s_threads; s_migrations; s_groups; s_negotiations;
         s_aborted; s_mean_latency; s_faults; s_retransmits; s_duplicates;
         s_give_ups; s_checkpointing; s_checkpoints; s_page_saves;
         s_dedup_pages; s_restored; s_stranded; s_lost })

let decode_response j =
  let* name = str_field "ok" j in
  match name with
  | "welcome" ->
    let* proto = str_field "proto" j in
    let* server = str_field "server" j in
    let* nodes = int_field "nodes" j in
    let* entries = str_list_field "entries" j in
    Ok (Welcome { proto; server; nodes; entries })
  | "submitted" ->
    let* tid = int_field "tid" j in
    Ok (Submitted { tid })
  | "stepped" ->
    let* events = int_field "events" j in
    let* time = float_field "time" j in
    let* live = int_field "live" j in
    let* pending = int_field "pending" j in
    Ok (Stepped { events; time; live; pending })
  | "ran" ->
    let* time = float_field "time" j in
    let* live = int_field "live" j in
    Ok (Ran { time; live })
  | "threads" ->
    let* v = field "threads" j in
    (match v with
     | Json.Arr xs ->
       List.fold_left
         (fun acc x ->
           let* acc = acc in
           let* ti = decode_thread x in
           Ok (ti :: acc))
         (Ok []) xs
       |> Result.map (fun tis -> Threads (List.rev tis))
     | _ -> Error (bad "threads: expected an array"))
  | "metrics" ->
    let* m = field "metrics" j in
    Ok (Metrics m)
  | "heat" ->
    let* v = field "gauges" j in
    (match v with
     | Json.Obj kvs ->
       List.fold_left
         (fun acc (k, x) ->
           let* acc = acc in
           let* f = as_float k x in
           Ok ((k, f) :: acc))
         (Ok []) kvs
       |> Result.map (fun gs -> Heat (List.rev gs))
     | _ -> Error (bad "gauges: expected an object"))
  | "status" -> decode_status j
  | "migrating" -> Ok Migrating
  | "group" ->
    let* gid = int_field "gid" j in
    Ok (Group { gid })
  | "injected" ->
    let* spec = str_field "spec" j in
    Ok (Injected { spec })
  | "balancing" ->
    let* policy = str_field "policy" j in
    Ok (Balancing { policy })
  | "checkpointed" ->
    let* snapshots = int_field "snapshots" j in
    Ok (Checkpointed { snapshots })
  | "subscribed" ->
    let* sub = int_field "sub" j in
    Ok (Subscribed { sub })
  | "unsubscribed" -> Ok Unsubscribed
  | "bye" -> Ok Bye
  | other -> Error (bad (Printf.sprintf "unknown response %S" other))

let decode_frame s =
  let* j = parse_versioned s in
  match Json.member "id" j with
  | None -> (
    (* No correlation id: a subscription push. *)
    let* sub = int_field "sub" j in
    let* body = field "ev" j in
    match body with
    | Json.Obj _ -> Ok (Event { sub; body })
    | _ -> Error (bad "ev: expected an object"))
  | Some _ -> (
    let* id = int_field "id" j in
    match Json.member "err" j with
    | Some kind -> (
      let* kind = as_str "err" kind in
      let* msg = str_field "msg" j in
      match err_kind_of_string kind with
      | Some kind -> Ok (Reply (id, Error { kind; msg }))
      | None -> Error (bad (Printf.sprintf "unknown error kind %S" kind)))
    | None ->
      let* resp = decode_response j in
      Ok (Reply (id, Ok resp)))

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

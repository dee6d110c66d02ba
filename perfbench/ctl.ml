(* The ctl workload: pm2simd driven over its Unix socket by one
   closed-loop client — hello, subscribe, seeded submits, then a seeded
   request mix until the cluster is quiescent, then shutdown.

   The client logic is written once against an abstract [rpc], so the
   same script runs over the socket (the measured run) and in-process
   against a {!Pm2_svc.Session} with the daemon's configuration (the
   verification replay, and the traced pass). The simulation is
   deterministic, so both see the same replies and issue the same
   requests; their fingerprints must agree. *)

module P = Pm2_svc.Protocol
module S = Pm2_svc.Session
module Json = Pm2_obs.Json
module Event = Pm2_obs.Event

let delta_bytes = 4 * 1024 * 1024
let checkpoint_interval = 2000.
let faults = "loss=0.02"
let max_requests = 50_000

(* The daemon's configuration, as pm2simd builds it from the flags in
   {!daemon_args}. *)
let config ~seed =
  let spec =
    match Pm2_fault.Plan.spec_of_string faults with Ok s -> s | Error e -> failwith e
  in
  Pm2_core.Pm2.Config.make ~nodes:Gen.ctl_nodes
    ~fault_plan:(Pm2_fault.Plan.create ~seed spec)
    ~delta_cache_bytes:delta_bytes ~checkpoint_interval ()

let daemon_args ~socket ~seed =
  [ "--socket"; socket; "--nodes"; string_of_int Gen.ctl_nodes; "--faults"; faults;
    "--seed"; string_of_int seed; "--delta"; string_of_int delta_bytes;
    "--checkpoint-interval"; Printf.sprintf "%g" checkpoint_interval ]

(* {1 What the client observes} *)

type observed = {
  mutable wire_msgs : int;
  mutable wire_bytes : int;
  mutable lines : string list; (* guest lines, newest first *)
}

let observed () = { wire_msgs = 0; wire_bytes = 0; lines = [] }

let packet_send_name = Event.name (Event.Packet_send { src = 0; dst = 0; bytes = 0 })
let printf_name = Event.name (Event.Thread_printf { tid = 0; text = "" })

let observe_event o ev =
  match ev with
  | Event.Packet_send { bytes; _ } ->
    o.wire_msgs <- o.wire_msgs + 1;
    o.wire_bytes <- o.wire_bytes + bytes
  | Event.Thread_printf { text; _ } -> o.lines <- text :: o.lines
  | _ -> ()

(* The same, from a pushed frame's [ev] object. *)
let observe_json o body =
  let str k = Option.bind (Json.member k body) Json.to_string_val in
  match str "name" with
  | Some n when n = packet_send_name ->
    o.wire_msgs <- o.wire_msgs + 1;
    o.wire_bytes <-
      o.wire_bytes
      + int_of_float
          (Option.value ~default:0. (Option.bind (Json.member "bytes" body) Json.to_float))
  | Some n when n = printf_name -> o.lines <- Option.value ~default:"" (str "text") :: o.lines
  | _ -> ()

(* {1 The client script} *)

type script = {
  requests : int;
  failed : int; (* error replies, missing replies, faulted jobs *)
  jobs : int;
  events : int; (* engine events committed by step requests *)
  status : P.status option; (* final status *)
}

exception No_reply of string

let ready_threads tis =
  List.filter
    (fun ti -> ti.S.ti_state = "ready" && ti.S.ti_pending_dest = None)
    tis

(* [run_script ~seed ~rpc ~setup_done] drives one session to
   quiescence. [rpc] returns [None] when no reply came (the script
   stops). [setup_done] marks the end of the submits. *)
let run_script ~seed ~rpc ~setup_done =
  let requests = ref 0 and failed = ref 0 and events = ref 0 in
  let call req =
    incr requests;
    match rpc req with
    | Some (Ok r) -> Some r
    | Some (Error _) ->
      incr failed;
      None
    | None ->
      incr failed;
      raise (No_reply (P.encode_request ~id:0 req))
  in
  let jobs = Gen.ctl_jobs seed in
  let mix = Gen.ctl_mix seed in
  let nodes = Gen.ctl_nodes in
  let status = ref None in
  (try
     ignore (call P.Hello);
     ignore (call P.Subscribe);
     List.iter
       (fun (j : Gen.job) ->
         ignore (call (P.Submit { S.entry = j.j_entry; arg = j.j_arg; node = j.j_node })))
       jobs;
     setup_done ();
     let quiescent = ref false in
     let step n =
       match call (P.Step { max_events = n }) with
       | Some (P.Stepped { events = e; pending; _ }) ->
         events := !events + e;
         if pending = 0 then quiescent := true
       | _ -> ()
     in
     let fresh_ready () =
       match call P.Query_threads with Some (P.Threads tis) -> ready_threads tis | _ -> []
     in
     while (not !quiescent) && !requests < max_requests do
       match mix () with
       | Gen.A_step n -> step n
       | Gen.A_status -> ignore (call P.Query_status)
       | Gen.A_threads -> ignore (call P.Query_threads)
       | Gen.A_checkpoint -> ignore (call P.Checkpoint)
       | Gen.A_metrics -> ignore (call P.Query_metrics)
       | Gen.A_migrate off -> (
         match fresh_ready () with
         | ti :: _ ->
           ignore (call (P.Migrate { tid = ti.S.ti_tid; dest = (ti.S.ti_node + off) mod nodes }))
         | [] -> step 64)
       | Gen.A_group off -> (
         match fresh_ready () with
         | ti :: rest -> (
           let mates = List.filter (fun t -> t.S.ti_node = ti.S.ti_node) rest in
           match mates with
           | [] -> step 64
           | _ ->
             let members = ti :: List.filteri (fun i _ -> i < 3) mates in
             ignore
               (call
                  (P.Migrate_group
                     { tids = List.map (fun t -> t.S.ti_tid) members;
                       dest = (ti.S.ti_node + off) mod nodes })))
         | [] -> step 64)
     done;
     if not !quiescent then incr failed;
     (match call P.Query_status with Some (P.Status s) -> status := Some s | _ -> ());
     (match call P.Query_threads with
      | Some (P.Threads tis) ->
        List.iter
          (fun ti ->
            match ti.S.ti_state with "faulted" | "killed" -> incr failed | _ -> ())
          tis
      | _ -> ())
   with No_reply _ -> ());
  { requests = !requests; failed = !failed; jobs = List.length jobs; events = !events;
    status = !status }

let fingerprint (st : P.status option) o =
  let lines = List.rev o.lines in
  match st with
  | None -> None
  | Some s ->
    Some
      {
        Fingerprint.makespan = s.P.s_time;
        wire_bytes = o.wire_bytes;
        wire_msgs = o.wire_msgs;
        migrations = s.P.s_migrations + s.P.s_groups;
        negotiations = s.P.s_negotiations;
        lines = List.length lines;
        digest = Fingerprint.digest_lines lines;
      }

(* {1 In-process replay} *)

type replay = {
  r_script : script;
  r_fp : Fingerprint.t option;
  r_invariants : bool;
  r_session : S.t;
  r_wall_ns : int; (* the script, end to end *)
  (* per-request timings, ns *)
  decode_ns : int list;
  apply_ns : int list; (* requests other than steps *)
  encode_ns : int list;
  rtt_ns : int list; (* decode + apply + encode *)
}

(* Serve the script against an in-process session. Requests go through
   the codec both ways, as on the socket. With [ledger], step requests
   are committed one event at a time through {!Layers.step} and the
   subscriber's event encoding is charged to obs. *)
let replay ?ledger ~seed () =
  let session = S.create ~config:(config ~seed) () in
  let c = S.cluster session in
  (match ledger with
   | Some led -> Pm2_obs.Collector.attach (Pm2_core.Cluster.obs c) (Layers.sink led)
   | None -> ());
  let o = observed () in
  let decode = ref [] and apply = ref [] and encode = ref [] and rtt = ref [] in
  let next_id = ref 0 in
  let serve req =
    match req with
    | P.Subscribe ->
      let sub =
        S.subscribe session (fun ~time ~node ev ->
            let _, dt = Clock.time (fun () -> P.encode_event ~sub:0 ~time ~node ev) in
            (match ledger with Some led -> Layers.add_obs led dt | None -> ());
            observe_event o ev)
      in
      Ok (P.Subscribed { sub })
    | P.Step { max_events } when ledger <> None ->
      let led = Option.get ledger in
      let run () = S.step session ~max_events:1 in
      let n = ref 0 in
      while !n < max_events && Layers.step led c ~probe:None ~run > 0 do
        incr n
      done;
      Ok
        (P.Stepped
           { events = !n; time = S.now session; live = S.live_threads session;
             pending = S.pending_events session })
    | req -> P.apply session req
  in
  let rpc req =
    incr next_id;
    let t_rpc = Clock.now_ns () in
    let line = P.encode_request ~id:!next_id req in
    let decoded, d_ns = Clock.time (fun () -> P.decode_request line) in
    match decoded with
    | Error (_, e) -> Some (Error e)
    | Ok (id, req) ->
      let reply, a_ns = Clock.time (fun () -> serve req) in
      let wire, e_ns = Clock.time (fun () -> P.encode_reply ~id reply) in
      let r =
        match P.decode_frame wire with
        | Ok (P.Reply (_, r)) -> Some r
        | Ok (P.Event _) | Error _ -> None
      in
      let stepping = match req with P.Step _ -> true | _ -> false in
      decode := d_ns :: !decode;
      encode := e_ns :: !encode;
      rtt := (d_ns + a_ns + e_ns) :: !rtt;
      if not stepping then apply := a_ns :: !apply;
      (match ledger with
       | Some led ->
         (* steps were charged event by event; the rest is codec work on
            both sides, and the session's own work for other requests *)
         if not stepping then Layers.add_self led Layers.Session a_ns;
         Layers.add_self led Layers.Protocol (Clock.now_ns () - t_rpc - a_ns)
       | None -> ());
      r
  in
  let t0 = Clock.now_ns () in
  let script = run_script ~seed ~rpc ~setup_done:(fun () -> ()) in
  let wall_ns = Clock.now_ns () - t0 in
  (match ledger with Some led -> led.Layers.wall_ns <- wall_ns | None -> ());
  let invariants =
    match Pm2_core.Cluster.check_invariants c with () -> true | exception Failure _ -> false
  in
  {
    r_script = script;
    r_fp = fingerprint script.status o;
    r_invariants = invariants;
    r_session = session;
    r_wall_ns = wall_ns;
    decode_ns = !decode;
    apply_ns = !apply;
    encode_ns = !encode;
    rtt_ns = !rtt;
  }

(* {1 The daemon over its socket} *)

(* Daemons alive right now; killed on any exit path. *)
let live_daemons : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live_daemons := List.filter (( <> ) pid) !live_daemons

let kill_all () = List.iter reap !live_daemons

let () = at_exit kill_all

let reply_timeout = 60.

(* Received bytes not yet consumed are [data] from [pos]. *)
type conn = { fd : Unix.file_descr; mutable data : string; mutable pos : int; chunk : Bytes.t }

let rec connect path ~tries =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; data = ""; pos = 0; chunk = Bytes.create 65536 }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
    Unix.close fd;
    ignore (Unix.select [] [] [] 0.002);
    connect path ~tries:(tries - 1)

let write_all c s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring c.fd s !pos (len - !pos)
  done

(* Next line, or [None] on timeout / EOF. *)
let rec read_line c =
  match String.index_from_opt c.data c.pos '\n' with
  | Some nl ->
    let line = String.sub c.data c.pos (nl - c.pos) in
    c.pos <- nl + 1;
    Some line
  | None -> (
    match Unix.select [ c.fd ] [] [] reply_timeout with
    | [], _, _ -> None
    | _ -> (
      match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
      | 0 -> None
      | n ->
        c.data <-
          String.sub c.data c.pos (String.length c.data - c.pos) ^ Bytes.sub_string c.chunk 0 n;
        c.pos <- 0;
        read_line c))

type iteration = {
  setup_ns : int;
  wall_ns : int;
  events : int;
  rtt_ns : int list;
  attempted : int;
  failed : int;
  fp : Fingerprint.t option;
  rss_mb : float;
}

(* One measured session: launch the daemon, run the script over the
   socket, read the daemon's peak RSS, shut it down and reap it. *)
let socket_run ~daemon ~dir ~seed =
  let socket = Filename.concat dir (Printf.sprintf "ctl-%d.sock" (Unix.getpid ())) in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let t_launch = Clock.now_ns () in
  let pid =
    Unix.create_process daemon
      (Array.of_list (daemon :: daemon_args ~socket ~seed))
      Unix.stdin Unix.stderr Unix.stderr
  in
  live_daemons := pid :: !live_daemons;
  let c = connect socket ~tries:5000 in
  let o = observed () in
  let rtt = ref [] and next_id = ref 0 and shutting = ref false in
  let rpc req =
    incr next_id;
    let id = !next_id in
    let t0 = Clock.now_ns () in
    write_all c (P.encode_request ~id req ^ "\n");
    let rec await () =
      match read_line c with
      | None -> None
      | Some line -> (
        match P.decode_frame line with
        | Ok (P.Event { body; _ }) ->
          observe_json o body;
          await ()
        | Ok (P.Reply (rid, r)) when rid = id -> Some r
        | Ok (P.Reply _) | Error _ -> None)
    in
    let r = await () in
    if not !shutting then rtt := (Clock.now_ns () - t0) :: !rtt;
    r
  in
  let t_setup = ref 0 in
  let setup_done () = t_setup := Clock.now_ns () in
  let script = run_script ~seed ~rpc ~setup_done in
  let t_end = Clock.now_ns () in
  let rss_mb = Clock.peak_rss_mb (string_of_int pid) in
  shutting := true;
  let bye = match rpc P.Shutdown with Some (Ok P.Bye) -> true | _ -> false in
  Unix.close c.fd;
  let clean =
    bye
    &&
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  if clean then live_daemons := List.filter (( <> ) pid) !live_daemons else reap pid;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  {
    setup_ns = !t_setup - t_launch;
    wall_ns = t_end - !t_setup;
    events = script.events;
    rtt_ns = !rtt;
    attempted = script.requests + script.jobs + 1;
    failed = script.failed + (if clean then 0 else 1);
    fp = fingerprint script.status o;
    rss_mb;
  }

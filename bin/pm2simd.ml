(* pm2simd — the long-lived cluster service.

   One resident Pm2_svc.Session behind a Unix-domain socket speaking the
   pm2-ctl/1 line/JSON protocol (lib/svc/protocol.mli). A single-threaded
   select() loop multiplexes any number of concurrent clients: requests
   are served in arrival order against the shared cluster, subscription
   events fan out to every subscriber as they fire, and run-to-quiescence
   requests are served incrementally in bounded event slices so the
   daemon stays responsive while the simulation advances. When nothing is
   outstanding the loop blocks in select — an idle daemon burns no host
   CPU. Frames are bounded in both directions: a client that sends a
   longer line, or lets more than that many bytes of replies and events
   queue up unread, is disconnected.

     pm2simd --socket /tmp/pm2.sock --nodes 4 --faults loss=0.05 *)

open Cmdliner
module Session = Pm2_svc.Session
module Protocol = Pm2_svc.Protocol
module Lines = Pm2_svc.Lines

(* Events per stepping slice while run-to-quiescence requests are
   outstanding: small enough to keep the socket responsive, large enough
   to amortise the select round-trip. *)
let slice_events = 512

type client = {
  fd : Unix.file_descr;
  inbuf : Lines.t; (* the partial request line *)
  mutable out : Bytes.t; (* queued bytes are out[out_pos, out_len) *)
  mutable out_pos : int;
  mutable out_len : int;
  mutable over_cap : bool; (* queued past [max_frame]; dropped by [serve] *)
  mutable subs : int list; (* session subscription ids owned here *)
  mutable run_id : int option; (* id of an in-flight run-to-quiescence *)
}

type daemon = {
  session : Session.t;
  listener : Unix.file_descr;
  socket_path : string;
  clients : (Unix.file_descr, client) Hashtbl.t;
  mutable stopping : bool;
  rbuf : Bytes.t; (* every client's reads land here first *)
  frame : Buffer.t; (* every outgoing frame is encoded here first *)
}

(* Bound on a single frame; a client that exceeds it is protocol-broken
   and gets dropped (there is no line to correlate an error reply to).
   The same bound caps the bytes queued for a client that does not read. *)
let max_frame = 4 * 1024 * 1024

let queued c = c.out_len - c.out_pos

(* Append [frame] and a newline in place, so each queued byte is copied
   O(1) times. The live region moves to the front only once at least as
   many bytes have been sent as remain queued, which pays for the move;
   otherwise the buffer doubles. A client over the cap stops queueing here and is dropped by
   the select loop, never from inside an event sink or a table walk. *)
let enqueue c frame =
  let n = Buffer.length frame + 1 in
  if c.over_cap then ()
  else if queued c + n > max_frame then c.over_cap <- true
  else begin
    if c.out_len + n > Bytes.length c.out then begin
      let live = queued c in
      if c.out_pos >= live && live + n <= Bytes.length c.out then
        Bytes.blit c.out c.out_pos c.out 0 live
      else begin
        let grown = Bytes.create (max (live + n) (2 * Bytes.length c.out)) in
        Bytes.blit c.out c.out_pos grown 0 live;
        c.out <- grown
      end;
      c.out_pos <- 0;
      c.out_len <- live
    end;
    Buffer.blit frame 0 c.out c.out_len (n - 1);
    Bytes.set c.out (c.out_len + n - 1) '\n';
    c.out_len <- c.out_len + n
  end

(* Replies and event pushes are encoded into the daemon's one frame
   buffer, then queued. A reply past 64 KiB (a large threads or metrics
   list) gives that memory back. *)
let reply d c ~id result =
  Buffer.clear d.frame;
  Protocol.write_reply d.frame ~id result;
  enqueue c d.frame;
  if Buffer.length d.frame > 65536 then Buffer.reset d.frame

let drop_client d c =
  List.iter (fun s -> Session.unsubscribe d.session s) c.subs;
  c.subs <- [];
  Hashtbl.remove d.clients c.fd;
  (try Unix.close c.fd with Unix.Unix_error _ -> ())

let begin_shutdown d =
  if not d.stopping then begin
    d.stopping <- true;
    Session.shutdown d.session;
    (* Stop accepting; existing replies still drain. *)
    (try Unix.close d.listener with Unix.Unix_error _ -> ());
    Hashtbl.iter
      (fun _ c ->
        match c.run_id with
        | Some id ->
          c.run_id <- None;
          reply d c ~id (Error (Protocol.err_of_error Session.Shutting_down))
        | None -> ())
      d.clients
  end

let handle_request d c ~id req =
  match req with
  | Protocol.Subscribe ->
    (* The sink writes straight into this client's output queue; the
       select loop flushes it alongside replies. *)
    let sub = ref (-1) in
    let s =
      Session.subscribe d.session (fun ~time ~node ev ->
          Buffer.clear d.frame;
          Protocol.write_event d.frame ~sub:!sub ~time ~node ev;
          enqueue c d.frame)
    in
    sub := s;
    c.subs <- s :: c.subs;
    reply d c ~id (Ok (Protocol.Subscribed { sub = s }))
  | Protocol.Unsubscribe { sub } ->
    if List.mem sub c.subs then begin
      Session.unsubscribe d.session sub;
      c.subs <- List.filter (fun s -> s <> sub) c.subs;
      reply d c ~id (Ok Protocol.Unsubscribed)
    end
    else
      reply d c ~id
        (Error
           { Protocol.kind = Protocol.Bad_request;
             msg = Printf.sprintf "subscription %d is not owned by this client" sub })
  | Protocol.Run { until = None } when not (Session.closed d.session) ->
    (* Served incrementally: the select loop steps the engine in slices
       and replies when the queue drains, so other clients stay live. *)
    if c.run_id <> None then
      reply d c ~id
        (Error { Protocol.kind = Protocol.Bad_request; msg = "a run is already in flight" })
    else c.run_id <- Some id
  | Protocol.Shutdown ->
    reply d c ~id (Ok Protocol.Bye);
    begin_shutdown d
  | req -> reply d c ~id (Protocol.apply d.session req)

let handle_line d c line =
  if String.trim line <> "" then
    match Protocol.decode_request line with
    | Ok (id, req) -> handle_request d c ~id req
    | Error (id, err) -> reply d c ~id (Error err)

let read_client d c =
  match Unix.read c.fd d.rbuf 0 (Bytes.length d.rbuf) with
  | 0 -> drop_client d c
  | len ->
    Lines.feed c.inbuf d.rbuf 0 len (handle_line d c);
    if Lines.pending c.inbuf > max_frame then drop_client d c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> drop_client d c

(* Write until the socket refuses more: one [single_write] moves at most
   64 KiB, and a slice can queue more than that for a client that keeps
   up, which would then drift towards the cap however fast it reads. *)
let rec write_client d c =
  let len = queued c in
  if len > 0 then
    match Unix.single_write c.fd c.out c.out_pos len with
    | written ->
      c.out_pos <- c.out_pos + written;
      if c.out_pos = c.out_len then begin
        c.out_pos <- 0;
        c.out_len <- 0
      end
      else write_client d c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> drop_client d c

let accept_client d =
  match Unix.accept d.listener with
  | fd, _ ->
    Unix.set_nonblock fd;
    Hashtbl.replace d.clients fd
      {
        fd;
        inbuf = Lines.create ();
        out = Bytes.empty;
        out_pos = 0;
        out_len = 0;
        over_cap = false;
        subs = [];
        run_id = None;
      }
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Advance the shared cluster one slice and complete any run requests
   that reached quiescence. *)
let step_slice d =
  ignore (Session.step d.session ~max_events:slice_events);
  if Session.pending_events d.session = 0 then begin
    let time = Session.now d.session in
    let live = Session.live_threads d.session in
    Hashtbl.iter
      (fun _ c ->
        match c.run_id with
        | Some id ->
          c.run_id <- None;
          reply d c ~id (Ok (Protocol.Ran { time; live }))
        | None -> ())
      d.clients
  end

let serve d =
  let stop_signal = ref false in
  let on_signal _ = stop_signal := true in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let finished = ref false in
  while not !finished do
    if !stop_signal then begin_shutdown d;
    let clients = Hashtbl.fold (fun _ c acc -> c :: acc) d.clients [] in
    let slow, clients = List.partition (fun c -> c.over_cap) clients in
    List.iter (drop_client d) slow;
    let running = List.exists (fun c -> c.run_id <> None) clients in
    if d.stopping && not (List.exists (fun c -> queued c > 0) clients) then
      finished := true
    else begin
      let reads =
        (if d.stopping then [] else [ d.listener ])
        @ List.map (fun c -> c.fd) clients
      in
      let writes =
        List.filter_map (fun c -> if queued c > 0 then Some c.fd else None) clients
      in
      let timeout = if running && not d.stopping then 0. else -1. in
      match Unix.select reads writes [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | rs, ws, _ ->
        if (not d.stopping) && List.mem d.listener rs then accept_client d;
        List.iter
          (fun c -> if List.mem c.fd ws then write_client d c)
          clients;
        List.iter
          (fun c ->
            if List.mem c.fd rs && Hashtbl.mem d.clients c.fd then read_client d c)
          clients;
        if (not d.stopping) && Hashtbl.fold (fun _ c acc -> acc || c.run_id <> None) d.clients false
        then step_slice d
    end
  done;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.clients;
  Hashtbl.reset d.clients;
  (try Unix.unlink d.socket_path with Unix.Unix_error _ -> ())

(* -- cmdliner front end (the batch CLI's conventions) -- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on (created at startup, removed \
              on shutdown). A stale socket file from a crashed daemon is \
              replaced.")

let faults_arg =
  Arg.(
    value
    & opt Flags.faults_conv Pm2_fault.Plan.default_spec
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:"Initial fault-plan spec (the $(b,pm2sim run --faults) \
              grammar). The daemon always arms an enabled plan — so its \
              iso migrations always run the hardened group pipeline, a \
              lone thread as a group of one — and \
              $(b,inject-faults) requests can retarget it at runtime; the \
              default injects nothing.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Enable causal migration tracing (span events appear on the \
              subscription stream).")

(* The major GC's pace follows allocation. A fresh 64 KiB buffer per read
   used to drive it; with one read buffer per daemon the default pace
   let a session's floating garbage lift peak RSS by about 12% (2 MB on
   the perfbench ctl script). This pace keeps peak RSS within about 1%
   of where it was. *)
let space_overhead = 80

let main socket nodes scheme faults seed delta checkpoint_interval trace =
  Gc.set { (Gc.get ()) with Gc.space_overhead };
  let config =
    Flags.config ~scheme ~nodes ~faults:(Pm2_fault.Plan.create ~seed faults) ~delta
      ~tracing:trace ~checkpoint_interval ()
  in
  let session = Session.create ~config () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.bind listener (Unix.ADDR_UNIX socket) with
   | () -> ()
   | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> (
     (* A crashed daemon leaves its socket file behind; a live one
        answers connect. Replace only the stale kind. *)
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     match Unix.connect probe (Unix.ADDR_UNIX socket) with
     | () ->
       Unix.close probe;
       Unix.close listener;
       Printf.eprintf "pm2simd: %s: a daemon is already listening\n" socket;
       exit 1
     | exception Unix.Unix_error (_, _, _) ->
       Unix.close probe;
       Unix.unlink socket;
       Unix.bind listener (Unix.ADDR_UNIX socket)));
  Unix.listen listener 16;
  Unix.set_nonblock listener;
  Printf.printf "pm2simd: listening on %s (%d nodes, %s)\n%!" socket
    (Session.nodes session) Protocol.version;
  serve
    {
      session;
      listener;
      socket_path = socket;
      clients = Hashtbl.create 8;
      stopping = false;
      rbuf = Bytes.create 65536;
      frame = Buffer.create 4096;
    }

let cmd =
  let doc = "long-lived PM2 cluster service speaking the pm2-ctl/1 control protocol" in
  Cmd.v
    (Cmd.info "pm2simd" ~doc)
    Term.(
      const main $ socket_arg $ Flags.nodes_arg $ Flags.scheme_arg $ faults_arg
      $ Flags.seed_arg $ Flags.delta_arg $ Flags.checkpoint_interval_arg $ trace_arg)

let () = exit (Cmd.eval cmd)

(* End-to-end exercise of the pm2simd daemon through a real socket.

   Launches the daemon (argv.(1) is the pm2simd executable), connects two
   clients — A drives the cluster, A and B both subscribe — and scripts
   submit → run → fan-out check → checkpoint → migrate → query-metrics →
   inject-faults → error paths → slow subscriber → shutdown, printing a
   deterministic transcript that dune diffs against daemon_e2e.expected. *)

module P = Pm2_svc.Protocol
module S = Pm2_svc.Session
module Json = Pm2_obs.Json

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("daemon_e2e: " ^ m); exit 1) fmt

(* -- a tiny blocking pm2-ctl client -- *)

type conn = {
  fd : Unix.file_descr;
  mutable data : string; (* bytes received; lines before [pos] are consumed *)
  mutable pos : int;
  mutable events : int; (* event frames seen so far *)
  mutable next_id : int;
}

let connect path =
  let deadline = 400 in
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; data = ""; pos = 0; events = 0; next_id = 1 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when n < deadline ->
      Unix.close fd;
      ignore (Unix.select [] [] [] 0.05);
      go (n + 1)
    | exception e ->
      Unix.close fd;
      raise e
  in
  go 0

let write_all c s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring c.fd s !pos (len - !pos)
  done

let send_raw c line = write_all c (line ^ "\n")

(* Lines are cut at an offset into the received bytes, so a burst of
   event frames costs time linear in its size: a subscriber that copied
   the whole backlog per line would fall behind the daemon and be dropped
   as a slow reader. *)
let read_line c =
  let rec go () =
    match String.index_from_opt c.data c.pos '\n' with
    | Some nl ->
      let line = String.sub c.data c.pos (nl - c.pos) in
      c.pos <- nl + 1;
      line
    | None ->
      let bytes = Bytes.create 65536 in
      (match Unix.read c.fd bytes 0 65536 with
       | 0 -> die "daemon closed the connection"
       | n ->
         let rest = String.length c.data - c.pos in
         c.data <- String.sub c.data c.pos rest ^ Bytes.sub_string bytes 0 n;
         c.pos <- 0;
         go ())
  in
  go ()

(* Read until the daemon closes the connection, giving up after 10 s
   of silence; returns whether it closed and the number of event frames
   that arrived first. *)
let drain_events c =
  let buf = Buffer.create 65536 in
  Buffer.add_substring buf c.data c.pos (String.length c.data - c.pos);
  let bytes = Bytes.create 65536 in
  let rec go () =
    match Unix.select [ c.fd ] [] [] 10. with
    | [], _, _ -> false
    | _ -> (
      match Unix.read c.fd bytes 0 65536 with
      | 0 -> true
      | n ->
        Buffer.add_subbytes buf bytes 0 n;
        go ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true)
  in
  let closed = go () in
  List.iter
    (fun line ->
      match P.decode_frame line with
      | Ok (P.Event _) -> c.events <- c.events + 1
      | _ -> ())
    (String.split_on_char '\n' (Buffer.contents buf));
  c.data <- "";
  c.pos <- 0;
  (closed, c.events)

let rec recv c ~id =
  let line = read_line c in
  match P.decode_frame line with
  | Ok (P.Event _) ->
    c.events <- c.events + 1;
    recv c ~id
  | Ok (P.Reply (rid, r)) ->
    if rid = id then r else die "out-of-order reply (id %d, wanted %d)" rid id
  | Error e -> die "undecodable frame %S: %s" line e.P.msg

let rpc c req =
  let id = c.next_id in
  c.next_id <- id + 1;
  send_raw c (P.encode_request ~id req);
  recv c ~id

let ok c req =
  match rpc c req with
  | Ok r -> r
  | Error e -> die "request failed: %s: %s" (P.err_kind_to_string e.P.kind) e.P.msg

let expect_err c req =
  match rpc c req with
  | Ok _ -> die "request unexpectedly succeeded"
  | Error e -> e.P.kind

let yes b = if b then "yes" else "NO"

(* -- the script -- *)

let () =
  if Array.length Sys.argv < 2 then die "usage: daemon_e2e PM2SIMD_EXE";
  (* A bare filename would be PATH-searched by create_process. *)
  let exe =
    let p = Sys.argv.(1) in
    if String.contains p '/' then p else Filename.concat Filename.current_dir_name p
  in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pm2ctl-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; sock; "--nodes"; "2" |]
      Unix.stdin devnull Unix.stderr
  in
  Unix.close devnull;

  let a = connect sock in
  let b = connect sock in

  (match ok a P.Hello with
   | P.Welcome { proto; server; nodes; entries } ->
     Printf.printf "hello: %s from %s, %d nodes, entries present: %s\n" proto server
       nodes
       (yes (List.mem "pingpong" entries && List.mem "spawner" entries))
   | _ -> die "hello: wrong reply");

  (match (ok a P.Subscribe, ok b P.Subscribe) with
   | P.Subscribed _, P.Subscribed _ -> print_endline "subscribed: A and B"
   | _ -> die "subscribe: wrong reply");

  (match ok a (P.Submit { S.entry = "pingpong"; arg = 4; node = 0 }) with
   | P.Submitted _ -> print_endline "submitted pingpong: ok"
   | _ -> die "submit: wrong reply");

  (match ok a (P.Run { until = None }) with
   | P.Ran { live; _ } -> Printf.printf "run: quiescent, live %d\n" live
   | _ -> die "run: wrong reply");
  let a_events = a.events in

  (* B drained nothing during the run; a status round-trip delimits its
     backlog so the two subscribers' views can be compared. *)
  (match ok b P.Query_status with
   | P.Status _ -> ()
   | _ -> die "status: wrong reply");
  let b_events = b.events in
  Printf.printf "event fan-out: A and B agree on a nonzero event count: %s\n"
    (yes (a_events = b_events && a_events > 0));
  Unix.close b.fd;

  (match ok a (P.Submit { S.entry = "spawner"; arg = 3; node = 0 }) with
   | P.Submitted _ -> print_endline "submitted spawner: ok"
   | _ -> die "submit: wrong reply");

  (* Step one event at a time until the spawner has populated the
     cluster (each engine event runs a thread to its next block). *)
  let rec pump n =
    if n > 1000 then false
    else
      match ok a (P.Step { max_events = 1 }) with
      | P.Stepped { live; events; pending; _ } ->
        if live >= 2 then true
        else if events = 0 && pending = 0 then false
        else pump (n + 1)
      | _ -> die "step: wrong reply"
  in
  Printf.printf "stepped until 2+ threads live: %s\n" (yes (pump 0));

  (match ok a P.Checkpoint with
   | P.Checkpointed { snapshots } ->
     Printf.printf "checkpoint: snapshots > 0: %s\n" (yes (snapshots > 0))
   | _ -> die "checkpoint: wrong reply");

  let victim =
    match ok a P.Query_threads with
    | P.Threads tis -> (
      match
        List.find_opt
          (fun ti ->
            match ti.S.ti_state with
            | "ready" | "running" | "blocked" -> true
            | _ -> false)
          tis
      with
      | Some ti -> ti
      | None -> die "no live thread to migrate")
    | _ -> die "threads: wrong reply"
  in
  (match ok a (P.Migrate { tid = victim.S.ti_tid; dest = 1 - victim.S.ti_node }) with
   | P.Migrating -> print_endline "migrate: accepted"
   | _ -> die "migrate: wrong reply");

  (match ok a (P.Run { until = None }) with
   | P.Ran { live; _ } -> Printf.printf "run: quiescent, live %d\n" live
   | _ -> die "run: wrong reply");

  (match ok a P.Query_status with
   | P.Status st ->
     Printf.printf "status: migrations >= 1: %s\n" (yes (st.P.s_migrations >= 1));
     Printf.printf "status: domains: %d\n" st.P.s_domains
   | _ -> die "status: wrong reply");

  (match ok a P.Query_metrics with
   | P.Metrics (Json.Obj fields) ->
     Printf.printf "metrics: json object: %s\n" (yes (fields <> []))
   | _ -> die "metrics: wrong reply");

  (match
     ok a
       (P.Inject_faults
          { spec = { Pm2_fault.Plan.default_spec with Pm2_fault.Plan.loss = 0.05 } })
   with
   | P.Injected { spec } -> Printf.printf "inject-faults: %s\n" spec
   | _ -> die "inject: wrong reply");

  Printf.printf "bad entry -> %s\n"
    (P.err_kind_to_string
       (expect_err a (P.Submit { S.entry = "nope"; arg = 0; node = 0 })));
  Printf.printf "bad thread -> %s\n"
    (P.err_kind_to_string (expect_err a (P.Migrate { tid = 99999; dest = 1 })));

  (* Raw broken frames: the daemon must answer with a typed error on
     correlation id 0, never drop the connection. *)
  send_raw a "this is not json";
  (match recv a ~id:0 with
   | Error e -> Printf.printf "garbage frame -> %s (id 0)\n" (P.err_kind_to_string e.P.kind)
   | Ok _ -> die "garbage accepted");
  send_raw a {|{"v":"pm2-ctl/99","id":9,"req":"hello"}|};
  (match recv a ~id:0 with
   | Error e -> Printf.printf "wrong version -> %s\n" (P.err_kind_to_string e.P.kind)
   | Ok _ -> die "wrong version accepted");

  (* C subscribes and never reads. A long run streams far more than the
     daemon's 4 MiB frame bound to both subscribers: A keeps draining,
     C's queue passes the bound and the daemon disconnects it. *)
  let c = connect sock in
  (match ok c P.Subscribe with
   | P.Subscribed _ -> print_endline "subscribed: C, which never reads"
   | _ -> die "subscribe: wrong reply");
  let a_before = a.events in
  (match ok a (P.Submit { S.entry = "pingpong"; arg = 2000; node = 0 }) with
   | P.Submitted _ -> print_endline "submitted long pingpong: ok"
   | _ -> die "submit: wrong reply");
  (match ok a (P.Run { until = None }) with
   | P.Ran { live; _ } -> Printf.printf "run: quiescent, live %d\n" live
   | _ -> die "run: wrong reply");
  (match ok a P.Query_status with
   | P.Status _ -> ()
   | _ -> die "status: wrong reply");
  let a_seen = a.events - a_before in
  let closed, c_seen = drain_events c in
  Unix.close c.fd;
  Printf.printf "slow subscriber: disconnected before the stream ended: %s\n"
    (yes (closed && c_seen > 0 && c_seen < a_seen));
  (match ok a P.Query_status with
   | P.Status st -> Printf.printf "fast subscriber: still served, live %d\n" st.P.s_live
   | _ -> die "status: wrong reply");

  (match ok a P.Shutdown with
   | P.Bye -> print_endline "shutdown: bye"
   | _ -> die "shutdown: wrong reply");
  Unix.close a.fd;

  (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> print_endline "daemon exit: clean"
   | _, _ -> die "daemon exited abnormally")

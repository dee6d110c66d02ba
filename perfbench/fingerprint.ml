(* The virtual fingerprint of one run: what the simulation computed, as
   opposed to how long the host took. Host-side changes must leave it
   identical; the default seed's fingerprint of every workload is pinned
   in {!Pinned}. *)

module Cluster = Pm2_core.Cluster

type t = {
  makespan : float; (* virtual µs *)
  wire_bytes : int;
  wire_msgs : int;
  migrations : int; (* single migrations + group members *)
  negotiations : int;
  lines : int; (* guest output lines *)
  digest : string; (* MD5 of the guest lines, in order *)
}

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let to_string f =
  Printf.sprintf
    "makespan=%.3f wire_bytes=%d wire_msgs=%d migrations=%d negotiations=%d lines=%d digest=%s"
    f.makespan f.wire_bytes f.wire_msgs f.migrations f.negotiations f.lines f.digest

let equal a b = String.equal (to_string a) (to_string b)

let migrations c =
  List.length (Cluster.migrations c)
  + List.fold_left
      (fun n g -> n + List.length g.Cluster.g_members)
      0 (Cluster.group_migrations c)

let of_cluster c ~lines =
  let net = Cluster.network c in
  {
    makespan = Pm2_sim.Engine.now (Cluster.engine c);
    wire_bytes = Pm2_net.Network.bytes_sent net;
    wire_msgs = Pm2_net.Network.messages_sent net;
    migrations = migrations c;
    negotiations = Pm2_core.Negotiation.count (Cluster.negotiation c);
    lines = List.length lines;
    digest = digest_lines lines;
  }

(* The key of a self-check line: its first two words ("c <x0>"). *)
let line_key line =
  match String.index_opt line ' ' with
  | None -> line
  | Some i -> (
    match String.index_from_opt line (i + 1) ' ' with
    | None -> line
    | Some j -> String.sub line 0 j)

(* Operations whose self-check failed: a thread fails unless each of its
   predicted lines was printed exactly once, verbatim. *)
let failed_checks ~(expect : string list list) ~(printed : string list) =
  let seen = Hashtbl.create 1024 in
  List.iter (fun l -> Hashtbl.add seen (line_key l) l) printed;
  List.fold_left
    (fun failed lines ->
      let ok =
        List.for_all (fun l -> Hashtbl.find_all seen (line_key l) = [ l ]) lines
      in
      if ok then failed else failed + 1)
    0 expect

(* Agreement of several runs' fingerprints ([None]: the run produced
   none): every run against the first, and the first against [pinned]
   when given. Returns the number of disagreeing runs — all of them when
   the pinned value differs — and the reference rendering. *)
let disagreements ?pinned (fps : t option list) =
  let render = Option.map to_string in
  let reference = match fps with [] -> None | first :: _ -> render first in
  let pinned_ok =
    match pinned with None -> true | Some p -> reference = Some p
  in
  let bad = List.length (List.filter (fun f -> f = None || render f <> reference) fps) in
  ((if pinned_ok then bad else List.length fps), Option.value ~default:"none" reference)

(* Phi-style failure detector over periodic HBEA beacons, in virtual
   time. Pure state machine: the cluster feeds it [heard] on each beacon
   that survives the network and polls [verdict] on its monitor tick.

   Thresholds are expressed in missed intervals. A peer whose silence
   exceeds [suspect_after] intervals is Suspected; past [dead_after] it
   is Dead. Each time a suspected peer proves alive again, its personal
   scale doubles (capped) — the backoff that keeps a jittery link from
   flapping the detector. *)

type verdict = Alive | Suspected | Dead

type peer = {
  mutable last : float; (* virtual time of the last beacon *)
  mutable scale : float; (* per-peer backoff multiplier, >= 1 *)
  mutable suspected : bool; (* currently past the suspicion threshold *)
}

type t = {
  interval : float;
  suspect_after : int;
  dead_after : int;
  max_scale : float;
  peers : peer array;
}

let create ?(suspect_after = 3) ?(dead_after = 8) ~nodes ~interval ~now () =
  if nodes <= 0 then invalid_arg "Heartbeat.create: nodes must be positive";
  if interval <= 0. then invalid_arg "Heartbeat.create: interval must be positive";
  if suspect_after < 1 || dead_after <= suspect_after then
    invalid_arg "Heartbeat.create: need 1 <= suspect_after < dead_after";
  {
    interval;
    suspect_after;
    dead_after;
    max_scale = 8.;
    peers =
      Array.init nodes (fun _ ->
          { last = now; scale = 1.; suspected = false });
  }

let heard t ~node ~now =
  let p = t.peers.(node) in
  if p.suspected then begin
    (* False suspicion: the peer was merely slow. Back off. *)
    p.scale <- Float.min (p.scale *. 2.) t.max_scale;
    p.suspected <- false
  end;
  p.last <- Float.max p.last now

(* A restart (or initial baseline) resets the silence clock without
   touching the backoff scale. *)
let reset t ~node ~now =
  let p = t.peers.(node) in
  p.last <- now;
  p.suspected <- false

let verdict t ~node ~now =
  let p = t.peers.(node) in
  let silent = now -. p.last in
  if silent >= t.interval *. float_of_int t.dead_after *. p.scale then Dead
  else if silent >= t.interval *. float_of_int t.suspect_after *. p.scale then begin
    p.suspected <- true;
    Suspected
  end
  else Alive

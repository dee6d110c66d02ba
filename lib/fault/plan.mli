(** A seeded, deterministic fault-injection plan.

    The plan is the single source of truth for every injected failure:
    per-message loss, duplication, reordering and delay jitter, payload
    corruption, transient link partitions, and node kill/restart
    schedules. It is consulted by {!Pm2_net.Network.send} behind one
    enabled-branch guard (same discipline as {!Pm2_obs.Collector.null}):
    with {!none} — the default everywhere — no code path changes and no
    random draw is made, so fault-free runs are byte-identical to a build
    without the subsystem.

    Determinism: decisions are drawn from a private splitmix64 stream
    seeded at {!create}. The simulator's event engine is itself
    deterministic, so the same seed and the same spec reproduce the same
    faults, the same retransmissions and the same trace, event for
    event. *)

(** {1 Fault specification} *)

type partition = {
  pa : int;
  pb : int; (* the two ends of the severed link (both directions) *)
  from_t : float;
  until_t : float; (* virtual-time window, µs *)
}

type kill = {
  victim : int;
  at : float; (* virtual time of the kill, µs *)
  restart : float option; (* virtual time of the restart, if any *)
}

type spec = {
  loss : float; (* per-message drop probability, 0..1 *)
  dup : float; (* per-message duplication probability, 0..1 *)
  corrupt : float; (* per-copy payload-corruption probability, 0..1 *)
  delay : float; (* mean extra delivery jitter, µs (exponential) *)
  reorder : float; (* probability of a large extra delay, 0..1 *)
  partitions : partition list;
  kills : kill list;
  crashes : kill list;
      (* full crash-restart windows: unlike [kills] (interface-only), a
         crash destroys the node's in-memory state — see
         {!Pm2_core.Cluster} for the recovery machinery *)
}

(** All probabilities zero, no partitions, no kills, no crashes. *)
val default_spec : spec

(** Canonical rendering of the grammar below; [""] for {!default_spec}. *)
val spec_to_string : spec -> string

(** Parses the [--faults] spec grammar:

    {v
SPEC  := ITEM ("," ITEM)*  |  ""
ITEM  := loss=P | dup=P | corrupt=P | reorder=P   (P a float in 0..1)
       | delay=US                                  (mean jitter, µs)
       | part=A-B\@T0-T1      (link A<->B severed during [T0,T1))
       | kill=N\@T            (node N's interface dies at T, forever)
       | kill=N\@T0-T1        (dies at T0, restarts at T1; T1 = T0 is a
                               degenerate no-op window)
       | crash=N\@T           (node N crashes at T: full state loss)
       | crash=N\@T0-T1       (crashes at T0, rejoins empty at T1 > T0)
    v}

    The empty string is a valid spec: it enables the failure-hardened
    paths (every iso migration through the probe/verdict group pipeline,
    reliable delivery, negotiation leases) without injecting any
    fault. *)
val spec_of_string : string -> (spec, string) result

(** {1 Plans} *)

type t

(** The disabled plan: {!enabled} is [false] and nothing is ever
    consulted. This is the default of every [?faults] argument. *)
val none : t

(** [create ?seed spec] is an enabled plan drawing from a fresh splitmix64
    stream. [seed] defaults to 42. *)
val create : ?seed:int -> spec -> t

val enabled : t -> bool
val spec : t -> spec

(** [set_spec t sp] swaps the spec of an {e enabled} plan in place — the
    runtime fault-injection path of the service tier ([inject_faults]
    over the wire). The plan's random stream and statistics continue
    across the swap, so a given seed still reproduces a given interleaved
    schedule. Messages already routed are unaffected.
    @raise Invalid_argument on a disabled plan (notably {!none}): the
    hardened protocols are selected at cluster creation, so faults can
    only be injected into a cluster armed with a [create]d plan. *)
val set_spec : t -> spec -> unit

val seed : t -> int

(** {1 Node life cycle} *)

(** [node_alive t ~node ~now] is [false] while [node] is down per the kill
    or crash schedule. For a [kill], local computation is unaffected: the
    fault model is fail-stop of the interconnect interface. For a [crash],
    the node's in-memory state is destroyed at the crash instant and the
    node rejoins empty at the restart (see DESIGN §14). Degenerate
    [kill=N\@T-T] windows never count as an outage. *)
val node_alive : t -> node:int -> now:float -> bool

(** [node_crashed t ~node ~now] is [true] while [node] is inside a crash
    window: state destroyed and not yet restarted. *)
val node_crashed : t -> node:int -> now:float -> bool

(** [killed_during t ~node ~from_ ~until] is the earliest instant in
    [[from_, until)] at which [node] is dead (killed or crashed), if any —
    the test a negotiation uses to decide whether its requester survives
    the critical section. Zero-length windows are skipped. *)
val killed_during : t -> node:int -> from_:float -> until:float -> float option

(** {1 Per-message routing} *)

type drop_reason =
  | Loss
  | Partitioned
  | Node_down of int

type delivery = {
  extra_delay : float; (* added to the modelled transfer time *)
  corrupted : bool; (* deliver a mutated copy *)
}

type routed =
  | Deliver of delivery list (* one entry per copy; head is the original *)
  | Dropped of drop_reason

(** [route t ~now ~src ~dst] draws the fate of one message. Exactly the
    probabilities with a non-zero setting consume draws, in a fixed
    order, so decisions are reproducible from the seed. *)
val route : t -> now:float -> src:int -> dst:int -> routed

(** [corrupt_copy t payload] is a copy of [payload] with one byte
    flipped (position and mask drawn from the plan's stream). *)
val corrupt_copy : t -> Bytes.t -> Bytes.t

(** {1 Statistics} *)

type stats = {
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable reordered : int;
}

val stats : t -> stats

(** [note_drop] / …: the network layer records what it actually injected
    so the CLI can print a summary line. *)
val note_drop : t -> unit

val note_duplicate : t -> unit
val note_corrupt : t -> unit

(** One-line summary for reports, e.g.
    ["seed=7 dropped=12 duplicated=3 corrupted=0 reordered=5"]. *)
val summary : t -> string

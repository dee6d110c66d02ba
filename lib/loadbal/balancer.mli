(** Dynamic load balancing on top of preemptive migration.

    The paper's motivation (§1–2): "a generic module implemented outside
    the running application could balance the load by migrating the
    application threads. The threads are unaware of their being migrated."
    This module is that generic module: it periodically observes each
    node's run-queue length and, according to a policy, requests preemptive
    migrations of runnable threads from overloaded to underloaded nodes —
    exercising exactly the transparency property the iso-address scheme
    provides. *)

type policy =
  | Threshold of { high : int; low : int }
      (* a node with load > high sheds threads to the least-loaded node
         while that node's load < low *)
  | Group_threshold of { high : int; low : int; limit : int }
      (* like [Threshold], but sheds up to [limit] threads per round as ONE
         {!Pm2_core.Cluster.migrate_group} batch: a single negotiation and
         a single packet train instead of one handshake per thread *)
  | Least_loaded
      (* move one thread per period from the most- to the least-loaded
         node when the spread exceeds 1 *)
  | Round_robin_spread
      (* spread the threads of the most-loaded node round-robin (the
         static policy of naive runtimes; kept as a baseline) *)
  | Cache_affinity
      (* [Least_loaded] with a delta-migration placement hint: among
         destinations within one thread of the minimum load, prefer one
         that already holds a residual image of the migrating thread
         ({!Pm2_core.Cluster.delta_affinity}), so the move ships content
         hashes instead of pages. Identical to least-loaded when delta
         migration is disabled. *)
  | Access_imbalance of { ratio : float; min_pages : int }
      (* telemetry-driven placement: each period the balancer refreshes
         the cluster's access-heat feed ({!Pm2_core.Cluster.refresh_heat}
         — pages stored per thread during the last observation window)
         and, when the hottest node's heat is at least [ratio] times the
         coldest's, moves the single hottest thread there. Threads below
         [min_pages] of heat never move. Balances write bandwidth rather
         than run-queue length — the two disagree exactly on skewed-access
         workloads, where a few threads do most of the writing. *)

(** The typed policy-specification API shared by every front end — the
    pm2sim CLI, the pm2simd daemon and the [pm2-ctl/1] wire protocol all
    parse and print policies through this one grammar:

    {v
    least-loaded | spread | cache-affinity
    | threshold:HIGH:LOW
    | group-threshold:HIGH:LOW:LIMIT
    | access-imbalance[:RATIO:MINPAGES]   (defaults 2:1)
    v}

    [of_string (to_string p) = Ok p] for every policy; parse errors list
    the valid policies. {!Policy.to_string} is the one printed form of a
    policy. *)
module Policy : sig
  type nonrec t = policy

  val of_string : string -> (t, string) result

  (** Canonical rendering of the grammar above; round-trips through
      {!of_string}. *)
  val to_string : t -> string

  (** One-line list of the valid policy forms (the text parse errors
      embed). *)
  val grammar : string
end

type stats = {
  mutable decisions : int; (* balancing rounds that migrated something *)
  mutable migrations_requested : int;
  mutable groups_requested : int; (* group migrations issued (Group_threshold) *)
  mutable retries : int;
      (* aborted migrations re-requested towards another node *)
}

type t

(** [attach cluster ~policy ~period] installs a balancer that wakes every
    [period] virtual µs while the cluster has live threads. Returns the
    balancer handle (for stats).

    Fault awareness: nodes whose interface is down (see
    {!Pm2_core.Cluster.node_alive}) are excluded as both sources and
    destinations, and the balancer registers itself as the cluster's
    migration-abort handler — a migration that fails mid-flight is retried
    towards the next-best alive node when that still improves balance. *)
val attach : Pm2_core.Cluster.t -> policy:policy -> period:float -> t

val stats : t -> stats

(** [imbalance cluster] is [max load - min load] across nodes, a simple
    scalar the experiments report. *)
val imbalance : Pm2_core.Cluster.t -> int

(** The typed event taxonomy of the observability layer.

    Every instrumented operation of the runtime — slot bookkeeping, block
    allocation (both the node-local [malloc] heap and the migratable
    iso-address heap), the four migration phases, the slot-negotiation
    protocol and the network — is described by one variant. Events are
    stamped with virtual time and the emitting node by the
    {!Collector}; the payloads below carry everything else a sink needs
    (byte counts, slot counts, modelled durations in µs). *)

type heap_kind =
  | Local (* the node-local malloc heap (does not migrate) *)
  | Iso (* the iso-address block layer (migrates with the thread) *)

(** The causal-span taxonomy of the tracing layer: one [Migration] root
    span per traced migration, with the pipeline phases as children.
    Destination-side spans parent through the (trace, span) context
    carried on the wire (codec frame / train metadata). *)
type span_kind =
  | Migration
  | Negotiate
  | Probe
  | Pack
  | Train
  | Unpack
  | Commit
  | Rollback
  | Delta_refetch

(** The decomposition of one migration, in order: freeze + copy-out
    ([Pack]), wire transfer ([Send]), mmap + copy-in at the destination
    ([Remap]), re-enqueue ([Restart]). *)
type migration_phase =
  | Pack
  | Send
  | Remap
  | Restart

type t =
  | Slot_reserve of { slot : int; n : int; cache_hit : bool }
      (** A node handed [n] contiguous slots starting at [slot] to a
          thread. [cache_hit]: served from the mmap cache. *)
  | Slot_release of { slot : int; cached : bool }
      (** A thread returned [slot] to the visited node; [cached]: kept
          mapped in the slot cache. *)
  | Slot_transfer of { slot : int; seller : int; buyer : int }
      (** Negotiation moved ownership of free [slot] between nodes. *)
  | Block_alloc of { heap : heap_kind; addr : int; bytes : int }
  | Block_free of { heap : heap_kind; addr : int; bytes : int }
  | Block_split of { heap : heap_kind; addr : int; bytes : int }
      (** A free block was split; [addr]/[bytes] describe the remainder. *)
  | Block_coalesce of { heap : heap_kind; addr : int; bytes : int }
      (** Two free blocks merged; [addr]/[bytes] describe the result. *)
  | Migration_phase of {
      tid : int;
      phase : migration_phase;
      bytes : int; (* wire image size *)
      slots : int; (* slots carried by the thread *)
      dur : float; (* modelled phase duration, µs *)
    }
  | Pack_slot of { tid : int; slot : int; bytes : int }
      (** One slot copied into the wire image ([bytes] = its share). *)
  | Unpack_slot of { tid : int; slot : int; bytes : int }
  | Neg_request of { requester : int; n : int }
  | Neg_round of { requester : int; peer : int; bytes : int }
      (** One gather/scatter exchange with [peer] inside a negotiation. *)
  | Neg_grant of { requester : int; start : int; n : int; bought : int; dur : float }
  | Neg_deny of { requester : int; n : int; dur : float }
  | Packet_send of { src : int; dst : int; bytes : int }
  | Packet_deliver of { src : int; dst : int; bytes : int }
  | Fault_inject of { kind : fault_kind; src : int; dst : int; bytes : int }
      (** The fault plan struck one message (emitted by the network). *)
  | Node_kill of { node : int }
      (** [node]'s network interface died (fail-stop fault model). *)
  | Node_restart of { node : int }
  | Net_retransmit of { src : int; dst : int; seq : int; attempt : int; bytes : int }
      (** The reliable layer resent message [seq]; [attempt] counts from 2. *)
  | Net_dup_suppress of { src : int; dst : int; seq : int }
      (** A duplicate copy of [seq] reached the receiver and was ignored. *)
  | Net_give_up of { src : int; dst : int; seq : int; attempts : int }
      (** Retransmission exhausted its attempt budget; the sender's
          failure continuation runs. *)
  | Migration_abort of { tid : int; src : int; dst : int; reason : string }
      (** A single-thread migration gave up; the thread resumes on
          [src]. The cluster reports a lone thread's abort as a
          [Group_migration_abort] of a group of one; this constructor
          stays in the schema for consumers that match on it. *)
  | Migration_rollback of { tid : int; node : int; slots : int }
      (** The packed image was remapped into the source's own space after
          a post-pack failure. *)
  | Neg_abort of { requester : int; n : int; lease_until : float }
      (** The requester died inside the negotiation critical section; its
          lock lease expires at [lease_until]. *)
  | Group_migration_start of { gid : int; src : int; dst : int; members : int }
      (** Group [gid] of [members] threads leaves [src] for [dst] over one
          pipeline (one handshake, one packet train). *)
  | Group_migration_phase of {
      gid : int;
      phase : migration_phase;
      members : int;
      bytes : int; (* v2 wire image size (elided pages excluded) *)
      slots : int; (* slots carried by the whole group *)
      dur : float; (* modelled phase duration, µs *)
    }
  | Group_migration_commit of { gid : int; dst : int; members : int; bytes : int }
      (** Every member of [gid] restarted on [dst]. *)
  | Group_migration_abort of { gid : int; src : int; dst : int; reason : string }
      (** The group pipeline failed; {e all} members resume on [src]
          (atomic rollback — no partially migrated group). *)
  | Train_send of { src : int; dst : int; train : int; frags : int; bytes : int }
      (** The reliable layer launched packet train [train]: [bytes] of
          payload cut into [frags] fragments, acknowledged as one unit. *)
  | Train_retransmit of { src : int; dst : int; train : int; attempt : int; bytes : int }
      (** The whole unacknowledged train was resent; [attempt] counts
          from 2 (receivers drop fragments they already hold). *)
  | Train_ack of { src : int; dst : int; train : int }
      (** The destination assembled the full train and acknowledged it. *)
  | Delta_hit of { tid : int; pages : int }
      (** Delta migration shipped [pages] of [tid]'s image as cached
          hashes instead of raw bytes. *)
  | Delta_miss of { tid : int; pages : int }
      (** Delta migration had to ship [pages] of [tid]'s image verbatim
          (no usable residual knowledge at the destination). *)
  | Delta_evict of { tid : int; bytes : int }
      (** The residual image cache evicted [tid]'s retained image
          ([bytes]) to stay inside its byte budget. *)
  | Span_end of {
      trace : int; (* trace id: one per migration *)
      span : int; (* span id, unique across the run *)
      parent : int; (* parent span id; -1 on the root *)
      kind : span_kind;
      start : float; (* virtual start time, µs *)
      dur : float; (* virtual duration, µs *)
      host_us : float; (* host wall-clock spent inside the span *)
      note : string;
    }
      (** A causal span closed. Emitted at the span's virtual end time by
          the {!Span} tracer; flows through every sink like any other
          event (the legacy trace sink ignores it). *)
  | Thread_printf of { tid : int; text : string }
      (** One [pm2_printf] output line (the legacy trace format). *)
  | Node_crash of { node : int; threads : int }
      (** [node] lost its full in-memory state; [threads] of its threads
          are stranded awaiting recovery. *)
  | Node_suspected of { node : int; by : int }
      (** Observer [by] missed enough heartbeats to suspect [node]. *)
  | Node_dead of { node : int; by : int }
      (** Observer [by] declared [node] dead; failover begins. *)
  | Checkpoint of {
      tid : int;
      node : int;
      bytes : int; (* incremental image bytes written to the store *)
      full_bytes : int; (* what a from-scratch image would have cost *)
      new_pages : int; (* pages not already in the content pool *)
    }  (** One thread image snapshotted into the {!Image_store}. *)
  | Thread_restore of { tid : int; node : int; from_node : int; gen : int }
      (** [tid], last seen on [from_node] (incarnation [gen]), was
          reinstated on [node] from its latest checkpoint. *)
  | Thread_lost of { tid : int; node : int; reason : string }
      (** [tid] could not be recovered after [node]'s crash. *)
  | Delta_invalidate of { node : int; peer : int; entries : int }
      (** [node] dropped [entries] residual-knowledge entries about
          [peer] after [peer]'s crash/death. *)

(** How the fault plan interfered with a message. *)
and fault_kind =
  | Drop_loss
  | Drop_partition
  | Drop_dead
  | Duplicate
  | Corrupt

val phase_name : migration_phase -> string
val span_kind_name : span_kind -> string

(** Dot-separated taxonomy key, e.g. ["migration.pack"] — the metric name
    used by the {!Metrics} registry. *)
val name : t -> string

(** [write w ev] writes [ev]'s wire fields into the object [w] has open:
    ["name"] (its {!name}), then the payload fields in a fixed order.
    This is the one definition of each event's fields; the JSON-lines
    stream, the flight recorder and pm2-ctl/1 event pushes put their
    stamps in front of it. *)
val write : Json.writer -> t -> unit

(** The payload fields alone, without ["name"] — the Chrome exporter's
    [args]. *)
val write_fields : Json.writer -> t -> unit

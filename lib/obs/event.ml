type heap_kind =
  | Local
  | Iso

(* The causal-span taxonomy: one [Migration] root per traced migration,
   with the pipeline phases as children. Destination-side spans are
   parented through the trace context carried on the wire. Declared
   before [migration_phase] so the unqualified [Pack] constructor keeps
   meaning the migration phase everywhere below. *)
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

type migration_phase =
  | Pack
  | Send
  | Remap
  | Restart

type t =
  | Slot_reserve of { slot : int; n : int; cache_hit : bool }
  | Slot_release of { slot : int; cached : bool }
  | Slot_transfer of { slot : int; seller : int; buyer : int }
  | Block_alloc of { heap : heap_kind; addr : int; bytes : int }
  | Block_free of { heap : heap_kind; addr : int; bytes : int }
  | Block_split of { heap : heap_kind; addr : int; bytes : int }
  | Block_coalesce of { heap : heap_kind; addr : int; bytes : int }
  | Migration_phase of {
      tid : int;
      phase : migration_phase;
      bytes : int;
      slots : int;
      dur : float;
    }
  | Pack_slot of { tid : int; slot : int; bytes : int }
  | Unpack_slot of { tid : int; slot : int; bytes : int }
  | Neg_request of { requester : int; n : int }
  | Neg_round of { requester : int; peer : int; bytes : int }
  | Neg_grant of { requester : int; start : int; n : int; bought : int; dur : float }
  | Neg_deny of { requester : int; n : int; dur : float }
  | Packet_send of { src : int; dst : int; bytes : int }
  | Packet_deliver of { src : int; dst : int; bytes : int }
  | Fault_inject of { kind : fault_kind; src : int; dst : int; bytes : int }
  | Node_kill of { node : int }
  | Node_restart of { node : int }
  | Net_retransmit of { src : int; dst : int; seq : int; attempt : int; bytes : int }
  | Net_dup_suppress of { src : int; dst : int; seq : int }
  | Net_give_up of { src : int; dst : int; seq : int; attempts : int }
  | Migration_abort of { tid : int; src : int; dst : int; reason : string }
  | Migration_rollback of { tid : int; node : int; slots : int }
  | Neg_abort of { requester : int; n : int; lease_until : float }
  | Group_migration_start of { gid : int; src : int; dst : int; members : int }
  | Group_migration_phase of {
      gid : int;
      phase : migration_phase;
      members : int;
      bytes : int;
      slots : int;
      dur : float;
    }
  | Group_migration_commit of { gid : int; dst : int; members : int; bytes : int }
  | Group_migration_abort of { gid : int; src : int; dst : int; reason : string }
  | Train_send of { src : int; dst : int; train : int; frags : int; bytes : int }
  | Train_retransmit of { src : int; dst : int; train : int; attempt : int; bytes : int }
  | Train_ack of { src : int; dst : int; train : int }
  | Delta_hit of { tid : int; pages : int }
  | Delta_miss of { tid : int; pages : int }
  | Delta_evict of { tid : int; bytes : int }
  | Span_end of {
      trace : int; (* trace id: one per migration *)
      span : int; (* span id, unique across the run *)
      parent : int; (* parent span id; -1 on the root *)
      kind : span_kind;
      start : float; (* virtual start, µs *)
      dur : float; (* virtual duration, µs *)
      host_us : float; (* host wall-clock inside the span *)
      note : string;
    }
  | Thread_printf of { tid : int; text : string }
  | Node_crash of { node : int; threads : int }
  | Node_suspected of { node : int; by : int }
  | Node_dead of { node : int; by : int }
  | Checkpoint of {
      tid : int;
      node : int;
      bytes : int;
      full_bytes : int;
      new_pages : int;
    }
  | Thread_restore of { tid : int; node : int; from_node : int; gen : int }
  | Thread_lost of { tid : int; node : int; reason : string }
  | Delta_invalidate of { node : int; peer : int; entries : int }

and fault_kind =
  | Drop_loss
  | Drop_partition
  | Drop_dead
  | Duplicate
  | Corrupt

let phase_name = function
  | Pack -> "pack"
  | Send -> "send"
  | Remap -> "remap"
  | Restart -> "restart"

let span_kind_name = function
  | Migration -> "migration"
  | Negotiate -> "negotiate"
  | Probe -> "probe"
  | (Pack : span_kind) -> "pack"
  | Train -> "train"
  | Unpack -> "unpack"
  | Commit -> "commit"
  | Rollback -> "rollback"
  | Delta_refetch -> "delta_refetch"

(* Literals, not concatenations: the metrics sink and every event
   writer ask for the name of each event. *)
let name = function
  | Slot_reserve _ -> "slot.reserve"
  | Slot_release _ -> "slot.release"
  | Slot_transfer _ -> "slot.transfer"
  | Block_alloc { heap = Local; _ } -> "heap.local.alloc"
  | Block_alloc { heap = Iso; _ } -> "heap.iso.alloc"
  | Block_free { heap = Local; _ } -> "heap.local.free"
  | Block_free { heap = Iso; _ } -> "heap.iso.free"
  | Block_split { heap = Local; _ } -> "heap.local.split"
  | Block_split { heap = Iso; _ } -> "heap.iso.split"
  | Block_coalesce { heap = Local; _ } -> "heap.local.coalesce"
  | Block_coalesce { heap = Iso; _ } -> "heap.iso.coalesce"
  | Migration_phase { phase = Pack; _ } -> "migration.pack"
  | Migration_phase { phase = Send; _ } -> "migration.send"
  | Migration_phase { phase = Remap; _ } -> "migration.remap"
  | Migration_phase { phase = Restart; _ } -> "migration.restart"
  | Pack_slot _ -> "migration.pack_slot"
  | Unpack_slot _ -> "migration.unpack_slot"
  | Neg_request _ -> "negotiation.request"
  | Neg_round _ -> "negotiation.round"
  | Neg_grant _ -> "negotiation.grant"
  | Neg_deny _ -> "negotiation.deny"
  | Packet_send _ -> "net.send"
  | Packet_deliver _ -> "net.deliver"
  | Fault_inject { kind = Drop_loss; _ } -> "fault.drop.loss"
  | Fault_inject { kind = Drop_partition; _ } -> "fault.drop.partition"
  | Fault_inject { kind = Drop_dead; _ } -> "fault.drop.dead"
  | Fault_inject { kind = Duplicate; _ } -> "fault.dup"
  | Fault_inject { kind = Corrupt; _ } -> "fault.corrupt"
  | Node_kill _ -> "node.kill"
  | Node_restart _ -> "node.restart"
  | Net_retransmit _ -> "net.retransmit"
  | Net_dup_suppress _ -> "net.dup_suppress"
  | Net_give_up _ -> "net.give_up"
  | Migration_abort _ -> "migration.abort"
  | Migration_rollback _ -> "migration.rollback"
  | Neg_abort _ -> "negotiation.abort"
  | Group_migration_start _ -> "group_migration.start"
  | Group_migration_phase { phase = Pack; _ } -> "group_migration.pack"
  | Group_migration_phase { phase = Send; _ } -> "group_migration.send"
  | Group_migration_phase { phase = Remap; _ } -> "group_migration.remap"
  | Group_migration_phase { phase = Restart; _ } -> "group_migration.restart"
  | Group_migration_commit _ -> "group_migration.commit"
  | Group_migration_abort _ -> "group_migration.abort"
  | Train_send _ -> "net.train_send"
  | Train_retransmit _ -> "net.train_retransmit"
  | Train_ack _ -> "net.train_ack"
  | Delta_hit _ -> "delta.hit"
  | Delta_miss _ -> "delta.miss"
  | Delta_evict _ -> "delta.evict"
  | Span_end { kind = Migration; _ } -> "span.migration"
  | Span_end { kind = Negotiate; _ } -> "span.negotiate"
  | Span_end { kind = Probe; _ } -> "span.probe"
  | Span_end { kind = (Pack : span_kind); _ } -> "span.pack"
  | Span_end { kind = Train; _ } -> "span.train"
  | Span_end { kind = Unpack; _ } -> "span.unpack"
  | Span_end { kind = Commit; _ } -> "span.commit"
  | Span_end { kind = Rollback; _ } -> "span.rollback"
  | Span_end { kind = Delta_refetch; _ } -> "span.delta_refetch"
  | Thread_printf _ -> "thread.printf"
  | Node_crash _ -> "node.crash"
  | Node_suspected _ -> "node.suspected"
  | Node_dead _ -> "node.dead"
  | Checkpoint _ -> "recover.checkpoint"
  | Thread_restore _ -> "recover.restore"
  | Thread_lost _ -> "recover.lost"
  | Delta_invalidate _ -> "delta.invalidate"

let i = Json.int_field
let f = Json.num_field
let s = Json.str_field
let b = Json.bool_field

(* The one definition of each event's wire fields and their order: the
   JSON-lines stream, the flight recorder, pm2-ctl/1 event pushes and the
   Chrome exporter's [args] all write them through here. It allocates
   nothing of its own. *)
let write_fields w ev =
  match ev with
  | Slot_reserve { slot; n; cache_hit } ->
    i w "slot" slot; i w "n" n; b w "cache_hit" cache_hit
  | Slot_release { slot; cached } -> i w "slot" slot; b w "cached" cached
  | Slot_transfer { slot; seller; buyer } ->
    i w "slot" slot; i w "seller" seller; i w "buyer" buyer
  | Block_alloc { addr; bytes; _ } | Block_free { addr; bytes; _ }
  | Block_split { addr; bytes; _ } | Block_coalesce { addr; bytes; _ } ->
    i w "addr" addr; i w "bytes" bytes
  | Migration_phase { tid; bytes; slots; dur; _ } ->
    i w "tid" tid; i w "bytes" bytes; i w "slots" slots; f w "dur" dur
  | Pack_slot { tid; slot; bytes } | Unpack_slot { tid; slot; bytes } ->
    i w "tid" tid; i w "slot" slot; i w "bytes" bytes
  | Neg_request { requester; n } -> i w "requester" requester; i w "n" n
  | Neg_round { requester; peer; bytes } ->
    i w "requester" requester; i w "peer" peer; i w "bytes" bytes
  | Neg_grant { requester; start; n; bought; dur } ->
    i w "requester" requester; i w "start" start; i w "n" n; i w "bought" bought; f w "dur" dur
  | Neg_deny { requester; n; dur } -> i w "requester" requester; i w "n" n; f w "dur" dur
  | Packet_send { src; dst; bytes } | Packet_deliver { src; dst; bytes }
  | Fault_inject { src; dst; bytes; _ } ->
    i w "src" src; i w "dst" dst; i w "bytes" bytes
  | Node_kill { node } | Node_restart { node } -> i w "node" node
  | Net_retransmit { src; dst; seq; attempt; bytes } ->
    i w "src" src; i w "dst" dst; i w "seq" seq; i w "attempt" attempt; i w "bytes" bytes
  | Net_dup_suppress { src; dst; seq } -> i w "src" src; i w "dst" dst; i w "seq" seq
  | Net_give_up { src; dst; seq; attempts } ->
    i w "src" src; i w "dst" dst; i w "seq" seq; i w "attempts" attempts
  | Migration_abort { tid; src; dst; reason } ->
    i w "tid" tid; i w "src" src; i w "dst" dst; s w "reason" reason
  | Migration_rollback { tid; node; slots } -> i w "tid" tid; i w "node" node; i w "slots" slots
  | Neg_abort { requester; n; lease_until } ->
    i w "requester" requester; i w "n" n; f w "lease_until" lease_until
  | Group_migration_start { gid; src; dst; members } ->
    i w "gid" gid; i w "src" src; i w "dst" dst; i w "members" members
  | Group_migration_phase { gid; members; bytes; slots; dur; _ } ->
    i w "gid" gid; i w "members" members; i w "bytes" bytes; i w "slots" slots; f w "dur" dur
  | Group_migration_commit { gid; dst; members; bytes } ->
    i w "gid" gid; i w "dst" dst; i w "members" members; i w "bytes" bytes
  | Group_migration_abort { gid; src; dst; reason } ->
    i w "gid" gid; i w "src" src; i w "dst" dst; s w "reason" reason
  | Train_send { src; dst; train; frags; bytes } ->
    i w "src" src; i w "dst" dst; i w "train" train; i w "frags" frags; i w "bytes" bytes
  | Train_retransmit { src; dst; train; attempt; bytes } ->
    i w "src" src; i w "dst" dst; i w "train" train; i w "attempt" attempt; i w "bytes" bytes
  | Train_ack { src; dst; train } -> i w "src" src; i w "dst" dst; i w "train" train
  | Delta_hit { tid; pages } | Delta_miss { tid; pages } -> i w "tid" tid; i w "pages" pages
  | Delta_evict { tid; bytes } -> i w "tid" tid; i w "bytes" bytes
  | Span_end { trace; span; parent; kind; start; dur; host_us; note } ->
    i w "trace" trace; i w "span" span; i w "parent" parent; s w "kind" (span_kind_name kind);
    f w "start" start; f w "dur" dur; f w "host_us" host_us;
    if note <> "" then s w "note" note
  | Thread_printf { tid; text } -> i w "tid" tid; s w "text" text
  | Node_crash { node; threads } -> i w "node" node; i w "threads" threads
  | Node_suspected { node; by } | Node_dead { node; by } -> i w "node" node; i w "by" by
  | Checkpoint { tid; node; bytes; full_bytes; new_pages } ->
    i w "tid" tid; i w "node" node; i w "bytes" bytes; i w "full_bytes" full_bytes;
    i w "new_pages" new_pages
  | Thread_restore { tid; node; from_node; gen } ->
    i w "tid" tid; i w "node" node; i w "from_node" from_node; i w "gen" gen
  | Thread_lost { tid; node; reason } -> i w "tid" tid; i w "node" node; s w "reason" reason
  | Delta_invalidate { node; peer; entries } ->
    i w "node" node; i w "peer" peer; i w "entries" entries

let write w ev =
  Json.str_field w "name" (name ev);
  write_fields w ev

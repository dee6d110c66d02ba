module H = Pm2_util.Stats.Histogram

type node_registry = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, H.t) Hashtbl.t;
}

type t = {
  nodes : (int, node_registry) Hashtbl.t;
  bounds : float array;
}

let create ?(bounds = H.default_bounds) () = { nodes = Hashtbl.create 8; bounds }

let registry t node =
  match Hashtbl.find_opt t.nodes node with
  | Some r -> r
  | None ->
    let r = { counters = Hashtbl.create 16; histograms = Hashtbl.create 16 } in
    Hashtbl.replace t.nodes node r;
    r

let incr t ~node ?(by = 1) name =
  let r = registry t node in
  match Hashtbl.find_opt r.counters name with
  | Some c -> c := !c + by
  | None -> Hashtbl.replace r.counters name (ref by)

let observe t ~node name v =
  let r = registry t node in
  let h =
    match Hashtbl.find_opt r.histograms name with
    | Some h -> h
    | None ->
      let h = H.create ~bounds:t.bounds () in
      Hashtbl.replace r.histograms name h;
      h
  in
  H.add h v

let counter t ~node name =
  match Hashtbl.find_opt t.nodes node with
  | None -> 0
  | Some r ->
    (match Hashtbl.find_opt r.counters name with Some c -> !c | None -> 0)

let histogram t ~node name =
  Option.bind (Hashtbl.find_opt t.nodes node) (fun r ->
      Hashtbl.find_opt r.histograms name)

let node_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [] |> List.sort compare

let total_counter t name =
  Hashtbl.fold
    (fun _ r acc ->
       match Hashtbl.find_opt r.counters name with Some c -> acc + !c | None -> acc)
    t.nodes 0

let merged_histogram t name =
  Hashtbl.fold
    (fun _ r acc ->
       match Hashtbl.find_opt r.histograms name with
       | None -> acc
       | Some h ->
         (match acc with None -> Some h | Some m -> Some (H.merge m h)))
    t.nodes None

(* -- the sink: event -> counters / histograms -- *)

let on_event t ~node (ev : Event.t) =
  let key = Event.name ev in
  match ev with
  | Slot_reserve { n; cache_hit; _ } ->
    incr t ~node key;
    incr t ~node ~by:n "slot.reserved_slots";
    if cache_hit then incr t ~node "slot.cache_hit"
  | Slot_release { cached; _ } ->
    incr t ~node key;
    if cached then incr t ~node "slot.release_cached"
  | Slot_transfer { seller; buyer; _ } ->
    incr t ~node:seller "slot.sold";
    incr t ~node:buyer "slot.bought"
  | Block_alloc { bytes; _ } | Block_free { bytes; _ } ->
    incr t ~node key;
    observe t ~node (key ^ "_bytes") (float_of_int bytes)
  | Block_split _ | Block_coalesce _ -> incr t ~node key
  | Migration_phase { phase; bytes; slots; dur; _ } ->
    incr t ~node key;
    observe t ~node (key ^ "_us") dur;
    (match phase with
     | Event.Pack ->
       observe t ~node "migration.bytes" (float_of_int bytes);
       observe t ~node "migration.slots" (float_of_int slots)
     | _ -> ())
  | Pack_slot { bytes; _ } | Unpack_slot { bytes; _ } ->
    incr t ~node key;
    observe t ~node (key ^ "_bytes") (float_of_int bytes)
  | Neg_request _ | Neg_round _ -> incr t ~node key
  | Neg_grant { bought; dur; _ } ->
    incr t ~node key;
    incr t ~node ~by:bought "negotiation.slots_bought";
    observe t ~node "negotiation.us" dur
  | Neg_deny { dur; _ } ->
    incr t ~node key;
    observe t ~node "negotiation.us" dur
  | Packet_send { bytes; _ } ->
    incr t ~node key;
    incr t ~node ~by:bytes "net.send_bytes";
    observe t ~node "net.packet_bytes" (float_of_int bytes)
  | Packet_deliver _ -> incr t ~node key
  | Fault_inject { bytes; _ } ->
    incr t ~node key;
    incr t ~node "fault.injected";
    incr t ~node ~by:bytes "fault.affected_bytes"
  | Node_kill _ | Node_restart _ -> incr t ~node key
  | Net_retransmit { bytes; _ } ->
    incr t ~node key;
    incr t ~node ~by:bytes "net.retransmit_bytes"
  | Net_dup_suppress _ | Net_give_up _ -> incr t ~node key
  | Migration_abort _ -> incr t ~node key
  | Migration_rollback { slots; _ } ->
    incr t ~node key;
    incr t ~node ~by:slots "migration.rollback_slots"
  | Neg_abort _ -> incr t ~node key
  | Group_migration_start { members; _ } ->
    incr t ~node key;
    incr t ~node ~by:members "group_migration.members"
  | Group_migration_phase { phase; bytes; slots; dur; _ } ->
    incr t ~node key;
    observe t ~node (key ^ "_us") dur;
    (match phase with
     | Event.Pack ->
       observe t ~node "group_migration.bytes" (float_of_int bytes);
       observe t ~node "group_migration.slots" (float_of_int slots)
     | _ -> ())
  | Group_migration_commit { bytes; _ } ->
    incr t ~node key;
    incr t ~node ~by:bytes "group_migration.commit_bytes"
  | Group_migration_abort _ -> incr t ~node key
  | Train_send { frags; bytes; _ } ->
    incr t ~node key;
    incr t ~node ~by:frags "net.train_frags";
    incr t ~node ~by:bytes "net.train_bytes";
    observe t ~node "net.train_payload_bytes" (float_of_int bytes)
  | Train_retransmit { bytes; _ } ->
    incr t ~node key;
    incr t ~node ~by:bytes "net.train_retransmit_bytes"
  | Train_ack _ -> incr t ~node key
  | Delta_hit { pages; _ } ->
    incr t ~node key;
    incr t ~node ~by:pages "delta.hit_pages"
  | Delta_miss { pages; _ } ->
    incr t ~node key;
    incr t ~node ~by:pages "delta.miss_pages"
  | Delta_evict { bytes; _ } ->
    incr t ~node key;
    incr t ~node ~by:bytes "delta.evict_bytes"
  | Span_end { dur; host_us; _ } ->
    incr t ~node key;
    observe t ~node (key ^ "_us") dur;
    observe t ~node "span.host_us" host_us
  | Thread_printf _ -> incr t ~node key
  | Node_crash { threads; _ } ->
    incr t ~node key;
    incr t ~node ~by:threads "recover.stranded_threads"
  | Node_suspected _ | Node_dead _ -> incr t ~node key
  | Checkpoint { bytes; full_bytes; new_pages; _ } ->
    incr t ~node key;
    incr t ~node ~by:bytes "recover.checkpoint_bytes";
    incr t ~node ~by:full_bytes "recover.checkpoint_full_bytes";
    incr t ~node ~by:new_pages "recover.checkpoint_new_pages";
    observe t ~node "recover.checkpoint_image_bytes" (float_of_int bytes)
  | Thread_restore _ | Thread_lost _ -> incr t ~node key
  | Delta_invalidate { entries; _ } ->
    incr t ~node key;
    incr t ~node ~by:entries "delta.invalidated_entries"

let sink t = Sink.make ~name:"metrics" (fun ~time:_ ~node ev -> on_event t ~node ev)

(* -- rendering -- *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let pct h p = match H.percentile h p with Some v -> v | None -> 0.

let report t =
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match node_ids t with
   | [] -> addf "metrics: no events recorded\n"
   | ids ->
     List.iter
       (fun id ->
          let r = registry t id in
          addf "node %d:\n" id;
          if Hashtbl.length r.counters > 0 then begin
            addf "  counters:\n";
            List.iter (fun (k, c) -> addf "    %-32s %d\n" k !c) (sorted_bindings r.counters)
          end;
          if Hashtbl.length r.histograms > 0 then begin
            addf "  histograms:                        n      p50      p95      p99      max\n";
            List.iter
              (fun (k, h) ->
                 addf "    %-30s %5d %8.1f %8.1f %8.1f %8.1f\n" k (H.count h)
                   (pct h 50.) (pct h 95.) (pct h 99.) (H.max_value h))
              (sorted_bindings r.histograms)
          end)
       ids);
  Buffer.contents buf

let to_json t =
  let obj render tbl =
    Json.Obj (List.map (fun (k, v) -> (k, render v)) (sorted_bindings tbl))
  in
  let histogram h =
    Json.Obj
      [ ("n", Json.Num (float_of_int (H.count h)));
        ("mean", Json.Num (H.mean h));
        ("p50", Json.Num (pct h 50.));
        ("p95", Json.Num (pct h 95.));
        ("p99", Json.Num (pct h 99.));
        ("max", Json.Num (if H.count h = 0 then 0. else H.max_value h)) ]
  in
  Json.Obj
    (List.map
       (fun id ->
          let r = registry t id in
          ( Printf.sprintf "node%d" id,
            Json.Obj
              [ ("counters", obj (fun c -> Json.Num (float_of_int !c)) r.counters);
                ("histograms", obj histogram r.histograms) ] ))
       (node_ids t))

module Error = struct
  type t =
    | Slots of Slot_manager.error
    | Heap of Pm2_heap.Malloc.error
    | Negotiation of Negotiation.error
    | Relocation of { tid : int; slot : int; stage : Relocation.stage; reason : string }
    | Lost of { tid : int; node : int; reason : string }

  let to_string = function
    | Slots e -> "slots: " ^ Slot_manager.error_to_string e
    | Heap e -> "heap: " ^ Pm2_heap.Malloc.error_to_string e
    | Negotiation e -> "negotiation: " ^ Negotiation.error_to_string e
    | Relocation { tid; slot; stage; reason } ->
      Printf.sprintf "relocation (tid=%d, slot=0x%x, %s): %s" tid slot
        (Relocation.stage_name stage) reason
    | Lost { tid; node; reason } ->
      Printf.sprintf "lost (tid=%d, node=%d): %s" tid node reason

  let of_exn = function
    | Relocation.Error { tid; slot; stage; reason } ->
      Some (Relocation { tid; slot; stage; reason })
    | Pm2_heap.Malloc.Out_of_memory -> Some (Heap Pm2_heap.Malloc.Heap_exhausted)
    | _ -> None
end

module Config = struct
  type t = Cluster.config

  let make ?(nodes = 2) ?slot_size ?distribution ?cache_capacity ?scheme ?packing
      ?quantum ?fit ?prebuy ?cost ?seed ?fault_plan ?sinks ?delta_cache_bytes
      ?tracing ?checkpoint_interval ?net_max_attempts () =
    let d = Cluster.default_config ~nodes in
    let v o ~default = Option.value o ~default in
    {
      Cluster.nodes;
      slot_size = v slot_size ~default:d.Cluster.slot_size;
      distribution = v distribution ~default:d.Cluster.distribution;
      cache_capacity = v cache_capacity ~default:d.Cluster.cache_capacity;
      scheme = v scheme ~default:d.Cluster.scheme;
      packing = v packing ~default:d.Cluster.packing;
      quantum = v quantum ~default:d.Cluster.quantum;
      fit = v fit ~default:d.Cluster.fit;
      prebuy = v prebuy ~default:d.Cluster.prebuy;
      cost = v cost ~default:d.Cluster.cost;
      seed = v seed ~default:d.Cluster.seed;
      faults = v fault_plan ~default:d.Cluster.faults;
      sinks = v sinks ~default:d.Cluster.sinks;
      delta_cache_bytes = v delta_cache_bytes ~default:d.Cluster.delta_cache_bytes;
      tracing = v tracing ~default:d.Cluster.tracing;
      checkpoint_interval =
        v checkpoint_interval ~default:d.Cluster.checkpoint_interval;
      net_max_attempts = v net_max_attempts ~default:d.Cluster.net_max_attempts;
      engine_kind = d.Cluster.engine_kind;
    }
end

(** Crash-recovery losses as typed errors. *)
let lost_threads cluster =
  List.map
    (fun (l : Cluster.lost_record) ->
      Error.Lost { tid = l.Cluster.l_tid; node = l.Cluster.l_node; reason = l.Cluster.l_reason })
    (Cluster.lost_threads cluster)

let build f =
  let b = Pm2_mvm.Asm.create () in
  f b;
  Pm2_mvm.Asm.assemble b

let launch ?config program ~spawns =
  let nodes =
    (* At least two nodes: every paper scenario migrates to node 1. *)
    List.fold_left (fun acc (node, _, _) -> max acc (node + 1)) 2 spawns
  in
  let config =
    match config with Some c -> c | None -> Cluster.default_config ~nodes
  in
  let cluster = Cluster.create config program in
  List.iter
    (fun (node, entry, arg) -> ignore (Cluster.spawn cluster ~node ~entry ~arg ()))
    spawns;
  cluster

let run_to_completion ?config ?until program ~entry ?(arg = 0) () =
  let config =
    match config with Some c -> c | None -> Cluster.default_config ~nodes:2
  in
  let cluster = launch ~config program ~spawns:[ (0, entry, arg) ] in
  ignore (Cluster.run ?until cluster);
  Pm2_sim.Trace.lines (Cluster.trace cluster)

let mean_migration_latency cluster =
  match Cluster.migrations cluster with
  | [] -> None
  | ms ->
    Some
      (Pm2_util.Stats.mean
         (List.map (fun m -> m.Cluster.resumed -. m.Cluster.started) ms))

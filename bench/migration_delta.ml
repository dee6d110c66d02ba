(* Delta migration: the residual-cache payoff on repeated hops. Eight
   host threads on node 0 each carry a fully written 64 KB isomalloc'd
   block — the worst case for zero-page elision, so any wire saving on
   later hops is the delta cache's alone. The group ping-pongs between
   nodes 0 and 1; between hops each thread dirties exactly one payload
   page. The first hop ships everything; from the second hop on the v3
   codec ships content hashes for every page the destination still
   retains and raw bytes only for the dirtied ones. A delta-disabled run
   of the identical workload gives the baseline. The second scenario
   corrupts one retained page between hops and shows the RDLT/RFUL
   fallback re-fetching it — commit, never a wrong image. *)

open Pm2_core
module Table = Pm2_support.Table
module As = Pm2_vmem.Address_space
module Network = Pm2_net.Network

let group_size = 8
let payload = 64 * 1024
let page = Pm2_vmem.Layout.page_size
let hops = 6
let cache_budget = 8 * 1024 * 1024

let fill_word i p = 0xde17a + (i * 1000) + p

let populated ~delta () =
  let c = Harness.cluster ~nodes:2 ~delta_cache_bytes:delta () in
  let env = Cluster.host_env c 0 in
  let space = Cluster.node_space c 0 in
  let ths =
    List.init group_size (fun i ->
        let th = Cluster.host_thread c ~node:0 in
        match Iso_heap.isomalloc env th payload with
        | None -> failwith "migration_delta: iso-address area exhausted"
        | Some addr ->
          for p = 0 to (payload / page) - 1 do
            As.store_word space (addr + (p * page)) (fill_word i p);
            As.store_word space (addr + (p * page) + 256) p
          done;
          (th, addr))
  in
  ignore (Cluster.drain_charges c 0);
  (c, ths)

let hop c ths ~dest =
  let before = Network.bytes_sent (Cluster.network c) in
  (match Cluster.migrate_group c (List.map fst ths) ~dest with
   | Ok _ -> ()
   | Error e -> failwith ("migration_delta: " ^ e));
  ignore (Cluster.run c);
  Network.bytes_sent (Cluster.network c) - before

(* One word into one payload page per thread: the next hop's delta. *)
let dirty c ths ~node ~round =
  let space = Cluster.node_space c node in
  List.iteri
    (fun i (_, addr) ->
      let p = (i + round) mod (payload / page) in
      As.store_word space (addr + (p * page) + 512) (0xd1d + round + i))
    ths

let verify c ths =
  List.iteri
    (fun i ((th : Thread.t), addr) ->
      let space = Cluster.node_space c th.Thread.node in
      for p = 0 to (payload / page) - 1 do
        if As.load_word space (addr + (p * page)) <> fill_word i p then
          failwith "migration_delta: payload corrupted in flight"
      done)
    ths

(* Run the ping-pong and return per-hop wire bytes plus the group
   records. [delta = 0] is the v2 baseline. *)
let pingpong ~delta =
  let c, ths = populated ~delta () in
  let wire =
    List.init hops (fun h ->
        let dest = 1 - (h mod 2) in
        let bytes = hop c ths ~dest in
        dirty c ths ~node:dest ~round:h;
        bytes)
  in
  verify c ths;
  Cluster.check_invariants c;
  (wire, Cluster.group_migrations c, Cluster.delta_fallbacks c)

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Corrupt one retained page between hops: the destination's Cached
   restore fails its hash check and the page travels again via
   RDLT/RFUL. The payload must arrive intact and the group commit. *)
let fallback () =
  let c, ths = populated ~delta:cache_budget () in
  ignore (hop c ths ~dest:1);
  dirty c ths ~node:1 ~round:0;
  let (th : Thread.t), addr = List.hd ths in
  let victim = (addr + (7 * page)) / page * page in
  let corrupted =
    Delta_cache.corrupt_page (Cluster.delta_cache c 0) ~tid:th.Thread.id ~addr:victim
  in
  if not corrupted then failwith "migration_delta: nothing to corrupt";
  ignore (hop c ths ~dest:0);
  let intact =
    try
      verify c ths;
      true
    with Failure _ -> false
  in
  Cluster.check_invariants c;
  (Cluster.delta_fallbacks c, Cluster.aborted_groups c, intact)

let run () =
  Harness.section
    (Printf.sprintf
       "T4: delta migration: %d-hop ping-pong, %d threads x %d KB, 1 dirty page/hop"
       hops group_size (payload / 1024));
  let base_wire, _, _ = pingpong ~delta:0 in
  let delta_wire, groups, clean_fallbacks = pingpong ~delta:cache_budget in
  let steady l = List.filteri (fun i _ -> i > 0) l |> List.map float_of_int in
  let base_steady = mean (steady base_wire) in
  let delta_steady = mean (steady delta_wire) in
  let reduction = 1. -. (delta_steady /. base_steady) in
  let t = Table.create [ "hop"; "v2 baseline (B)"; "v3 delta (B)"; "cached pages" ] in
  List.iteri
    (fun i g ->
      Table.add_rowf t "%d|%d|%d|%d" (i + 1) (List.nth base_wire i) (List.nth delta_wire i)
        g.Cluster.g_cached_pages)
    groups;
  Table.print t;
  let cached_total =
    List.fold_left (fun acc g -> acc + g.Cluster.g_cached_pages) 0 groups
  in
  Harness.note "steady-state (hops 2-%d) wire: %.0f B vs %.0f B -> %.0f%% reduction" hops
    base_steady delta_steady (reduction *. 100.);
  Harness.note "%d pages travelled as 8-byte hashes instead of %d-byte pages" cached_total
    page;
  if reduction < 0.60 then
    Harness.note "WARNING: steady-state reduction below the 60%% acceptance bar!";
  Report.record ~suite:"migration-delta" ~name:"ping-pong"
    ~params:
      [
        ("threads", string_of_int group_size);
        ("payload", string_of_int payload);
        ("hops", string_of_int hops);
        ("dirty_pages_per_hop", "1");
        ("cache_budget", string_of_int cache_budget);
      ]
    [
      ("wire_bytes_first_hop", float_of_int (List.hd delta_wire));
      ("wire_bytes_steady_v2", base_steady);
      ("wire_bytes_steady_v3", delta_steady);
      ("byte_reduction_steady", reduction);
      ("cached_pages_total", float_of_int cached_total);
      ("fallback_pages_clean", float_of_int clean_fallbacks);
    ];
  if reduction < 0.60 then
    failwith "migration_delta: steady-state wire reduction below 60%";
  if clean_fallbacks <> 0 then
    failwith "migration_delta: clean run should never need the fallback";
  let fallback_pages, aborted, intact = fallback () in
  let t = Table.create [ "hash-mismatch fallback"; "value" ] in
  Table.add_rowf t "pages re-fetched via RDLT/RFUL|%d" fallback_pages;
  Table.add_rowf t "groups aborted|%d" aborted;
  Table.add_rowf t "payload intact after fallback|%s" (if intact then "yes" else "NO");
  Table.print t;
  Report.record ~suite:"migration-delta" ~name:"hash-mismatch-fallback"
    ~params:[ ("threads", string_of_int group_size); ("corrupted_pages", "1") ]
    [
      ("fallback_pages", float_of_int fallback_pages);
      ("groups_aborted", float_of_int aborted);
      ("payload_intact", if intact then 1. else 0.);
    ];
  if fallback_pages < 1 || not intact || aborted <> 0 then
    failwith "migration_delta: corrupted residual was not recovered by the fallback";
  Harness.note "the corrupted page failed its hash check and was re-sent in full"

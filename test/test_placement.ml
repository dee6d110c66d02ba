(* Pinned placement of both heaps. One seeded sequence of operations runs
   on [Malloc], and one on [Iso_heap] under each fit strategy; each run
   is reduced to a digest of everything it makes observable: the
   addresses returned, the running virtual charge, the events emitted,
   the pages each operation stored to, and the heap's final bytes
   (stale free-list links included). A blocks-only hop of a fragmented
   iso heap pins the destination's slot bytes and the order of its
   rebuilt free lists. The expected digests come from the three separate
   free-list implementations that [Blockfmt] replaced; a change that
   keeps the invariants but moves a block, a charge, an event or a store
   fails here. *)

module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout
module Cm = Pm2_sim.Cost_model
module Obs = Pm2_obs
module B = Pm2_heap.Blockfmt
module Malloc = Pm2_heap.Malloc
module Prng = Pm2_util.Prng
open Pm2_core

let empty_program = Pm2.build (fun _ -> ())

(* The observable record of one run. *)
type log = {
  buf : Buffer.t;
  mutable charge : float;
}

let recorder () =
  let log = { buf = Buffer.create 65536; charge = 0. } in
  let obs = Obs.Collector.create ~now:(fun () -> 0.) () in
  Obs.Collector.attach obs
    (Obs.Sink.make ~name:"placement" (fun ~time:_ ~node ev ->
         Printf.bprintf log.buf "ev %d " node;
         Obs.Event.write (Obs.Json.writer log.buf) ev;
         Buffer.add_char log.buf '\n'));
  (log, obs, fun c -> log.charge <- log.charge +. c)

(* One operation's result: what it returned, the charge so far, and how
   many pages of [ranges] it stored to. *)
let record log space ranges what addr =
  let dirty =
    List.fold_left (fun n (a, size) -> n + As.dirty_in_epoch space ~addr:a ~size) 0 ranges
  in
  Printf.bprintf log.buf "%s 0x%x %h dirty=%d\n" what addr log.charge dirty

let digest_bytes log space ranges =
  List.iter
    (fun (a, size) ->
       Printf.bprintf log.buf "mem 0x%x %s\n" a
         (Digest.to_hex (Digest.bytes (As.load_bytes space a size))))
    ranges

let digest log = Digest.to_hex (Digest.string (Buffer.contents log.buf))

let pick rng l = List.nth l (Prng.int rng (List.length l))

let remove x l = List.filter (fun y -> y <> x) l

(* -- Malloc -- *)

let malloc_size rng =
  match Prng.int rng 20 with
  | 0 -> Prng.int_in rng 65536 300_000
  | n when n < 6 -> Prng.int_in rng 257 4096
  | _ -> Prng.int_in rng 1 256

let malloc_run () =
  let log, obs, charge = recorder () in
  let space = As.create ~node:0 () in
  let h = Malloc.create ~obs space Cm.default ~charge in
  let rng = Prng.create ~seed:26 in
  let live = ref [] in
  let arena () = [ (Layout.heap_base, Malloc.heap_bytes h) ] in
  for _ = 1 to 600 do
    As.advance_epoch space;
    if !live = [] || Prng.int rng 100 < 55 then begin
      let a = Malloc.malloc_exn h (malloc_size rng) in
      live := a :: !live;
      record log space (arena ()) "malloc" a
    end
    else if Prng.int rng 50 = 0 then begin
      (* a payload address that is not live is refused, untouched *)
      let a = pick rng !live + 8 in
      let refused = Result.is_error (Malloc.free h a) in
      record log space (arena ()) (if refused then "refused" else "freed") a
    end
    else begin
      let a = pick rng !live in
      live := remove a !live;
      Malloc.free_exn h a;
      record log space (arena ()) "free" a
    end
  done;
  Malloc.check_invariants h;
  digest_bytes log space (arena ());
  digest log

(* -- Iso_heap -- *)

let iso_size rng =
  match Prng.int rng 20 with
  | 0 -> Prng.int_in rng 65536 200_000
  | 1 | 2 -> Prng.int_in rng 8193 60_000
  | n when n < 8 -> Prng.int_in rng 513 8192
  | _ -> Prng.int_in rng 1 512

let iso_run fit () =
  let log, obs, charge = recorder () in
  let c = Cluster.create (Cluster.default_config ~nodes:2) empty_program in
  let th = Cluster.host_thread c ~node:0 in
  let env = { (Cluster.host_env c 0) with Iso_heap.fit; obs; charge } in
  let space = env.Iso_heap.space in
  let rng = Prng.create ~seed:(match fit with Iso_heap.First_fit -> 261 | Best_fit -> 262) in
  let live = ref [] in
  let ranges () = Migration.slot_ranges space th in
  for _ = 1 to 600 do
    As.advance_epoch space;
    let r = Prng.int rng 100 in
    if !live = [] || r < 45 then begin
      let a = Option.get (Iso_heap.isomalloc env th (iso_size rng)) in
      live := a :: !live;
      record log space (ranges ()) "isomalloc" a
    end
    else if r < 50 then begin
      let a =
        Option.get (Iso_heap.isocalloc env th ~count:(Prng.int_in rng 1 16) ~size:(iso_size rng))
      in
      live := a :: !live;
      record log space (ranges ()) "isocalloc" a
    end
    else if r < 70 then begin
      let a = pick rng !live in
      let a' = Option.get (Iso_heap.isorealloc env th a (iso_size rng)) in
      live := a' :: remove a !live;
      record log space (ranges ()) "isorealloc" a'
    end
    else begin
      let a = pick rng !live in
      live := remove a !live;
      Iso_heap.isofree env th a;
      record log space (ranges ()) "isofree" a
    end
  done;
  Iso_heap.check_invariants env th;
  Cluster.check_invariants c;
  digest_bytes log space (ranges ());
  digest log

(* -- blocks-only hop -- *)

(* A slot's free list, in list order. *)
let free_list space slot =
  let rec walk b acc = if b = 0 then List.rev acc else walk (B.read_next_free space b) (b :: acc) in
  walk (Slot_header.read_free_head space slot) []

let hop_run () =
  let log, _, _ = recorder () in
  let c =
    Cluster.create
      { (Cluster.default_config ~nodes:2) with Cluster.packing = Migration.Blocks_only }
      empty_program
  in
  let th = Cluster.host_thread c ~node:0 in
  let env = Cluster.host_env c 0 in
  let rng = Prng.create ~seed:263 in
  let blocks = List.init 120 (fun _ -> Option.get (Iso_heap.isomalloc env th (iso_size rng))) in
  (* free about half, scattered, so every slot keeps several gaps *)
  List.iter (fun a -> if Prng.int rng 2 = 0 then Iso_heap.isofree env th a) blocks;
  Cluster.host_migrate c th ~dest:1;
  let space = Cluster.node_space c 1 in
  let ranges = Migration.slot_ranges space th in
  digest_bytes log space ranges;
  List.iter
    (fun (slot, _) ->
       if Slot_header.read_kind space slot = Slot_header.Data then begin
         let l = free_list space slot in
         Alcotest.(check bool) "rebuilt free list ascends" true (List.sort compare l = l);
         Printf.bprintf log.buf "free 0x%x [%s]\n" slot
           (String.concat ";" (List.map (Printf.sprintf "0x%x") l))
       end)
    ranges;
  Iso_heap.check_invariants (Cluster.host_env c 1) th;
  digest log

let pinned name expected run () = Alcotest.(check string) name expected (run ())

let tests =
  [
    Alcotest.test_case "malloc placement pinned" `Quick
      (pinned "malloc" "73ceb50ba3060f67c7a5e8ceecd80d56" malloc_run);
    Alcotest.test_case "isomalloc first-fit placement pinned" `Quick
      (pinned "first-fit" "316c8afd3c30a3dd525bf0e64e138f61" (iso_run Iso_heap.First_fit));
    Alcotest.test_case "isomalloc best-fit placement pinned" `Quick
      (pinned "best-fit" "be8b762f02edd3021cea2077d3bb2011" (iso_run Iso_heap.Best_fit));
    Alcotest.test_case "blocks-only hop rebuild pinned" `Quick
      (pinned "hop" "09e6b909b117c0437de7bd6395cffc0a" hop_run);
  ]

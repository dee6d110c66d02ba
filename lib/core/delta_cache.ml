module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout

(* One node's residual-image cache for delta migration.

   Two kinds of state, both keyed by thread id:

   - {e residual images}: page copies this node kept when a thread left
     (or, transiently, while it is the source of an in-flight transfer).
     These are what a later inbound delta reconstructs [Cached] pages
     from, and what the full-resend fallback serves. Images of in-flight
     transfers are {e pinned}: the byte budget never evicts them, because
     rollback correctness depends on them until the transfer settles.

   - {e knowledge}: per (thread, peer) page-hash maps recording what this
     node believes [peer] retains for the thread — refreshed wholesale
     every time the thread arrives from [peer]. Knowledge is advisory:
     stale entries only cost a fallback round-trip, never correctness. *)

type image = {
  mutable pages : (int, Bytes.t) Hashtbl.t; (* page addr -> page copy *)
  mutable bytes : int;
  mutable pinned : bool;
  mutable stamp : int; (* LRU clock value of last touch *)
}

type t = {
  budget : int; (* byte budget for unpinned images; 0 = delta disabled *)
  images : (int, image) Hashtbl.t; (* tid -> retained image *)
  knowledge : (int * int, (int, int) Hashtbl.t) Hashtbl.t;
      (* (tid, peer) -> page addr -> hash *)
  mutable total_bytes : int;
  mutable clock : int;
  on_evict : tid:int -> bytes:int -> unit;
}

let create ?(on_evict = fun ~tid:_ ~bytes:_ -> ()) ~budget () =
  if budget < 0 then invalid_arg "Delta_cache.create: negative budget";
  {
    budget;
    images = Hashtbl.create 16;
    knowledge = Hashtbl.create 16;
    total_bytes = 0;
    clock = 0;
    on_evict;
  }

let enabled t = t.budget > 0

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let images t = Hashtbl.length t.images

let drop_image t ~tid =
  match Hashtbl.find_opt t.images tid with
  | None -> ()
  | Some img ->
    t.total_bytes <- t.total_bytes - img.bytes;
    Hashtbl.remove t.images tid

(* Evict least-recently-touched unpinned images until the unpinned total
   fits the budget. Pinned images are untouchable (rollback safety), so
   the cache can transiently exceed its budget while transfers are in
   flight. *)
let enforce_budget t =
  let unpinned_bytes () =
    Hashtbl.fold (fun _ img acc -> if img.pinned then acc else acc + img.bytes) t.images 0
  in
  let rec evict () =
    if unpinned_bytes () > t.budget then begin
      let victim =
        Hashtbl.fold
          (fun tid img acc ->
            if img.pinned then acc
            else
              match acc with
              | Some (_, best) when best.stamp <= img.stamp -> acc
              | _ -> Some (tid, img))
          t.images None
      in
      match victim with
      | None -> ()
      | Some (tid, img) ->
        drop_image t ~tid;
        t.on_evict ~tid ~bytes:img.bytes;
        evict ()
    end
  in
  evict ()

let retain t ~tid pages =
  if not (enabled t) then ()
  else begin
    drop_image t ~tid;
    let tbl = Hashtbl.create (max 16 (List.length pages)) in
    let bytes = ref 0 in
    List.iter
      (fun (addr, page) ->
        if Bytes.length page <> Layout.page_size then
          invalid_arg "Delta_cache.retain: not a page-sized buffer";
        Hashtbl.replace tbl addr page;
        bytes := !bytes + Layout.page_size)
      pages;
    let img = { pages = tbl; bytes = !bytes; pinned = true; stamp = tick t } in
    Hashtbl.replace t.images tid img;
    t.total_bytes <- t.total_bytes + img.bytes;
    enforce_budget t
  end

let unpin t ~tid =
  (match Hashtbl.find_opt t.images tid with
   | Some img ->
     img.pinned <- false;
     img.stamp <- tick t
   | None -> ());
  enforce_budget t

let lookup_page t ~tid ~addr =
  match Hashtbl.find_opt t.images tid with
  | None -> None
  | Some img ->
    img.stamp <- tick t;
    Hashtbl.find_opt img.pages addr

let record_knowledge t ~tid ~peer pages =
  if enabled t then begin
    let tbl = Hashtbl.create (max 16 (List.length pages)) in
    List.iter (fun (addr, hash) -> Hashtbl.replace tbl addr hash) pages;
    Hashtbl.replace t.knowledge (tid, peer) tbl
  end

let known t ~tid ~peer =
  match Hashtbl.find_opt t.knowledge (tid, peer) with
  | None -> fun _ -> None
  | Some tbl -> fun addr -> Hashtbl.find_opt tbl addr

let has_knowledge t ~tid ~peer = Hashtbl.mem t.knowledge (tid, peer)

let drop_thread t ~tid =
  drop_image t ~tid;
  let stale =
    Hashtbl.fold
      (fun ((tid', _) as k) _ acc -> if tid' = tid then k :: acc else acc)
      t.knowledge []
  in
  List.iter (Hashtbl.remove t.knowledge) stale

(* A crashed (or declared-dead) peer retains nothing: any knowledge
   recorded about it would make a source ship hashes the destination can
   no longer resolve — still correct (the fallback re-fetches), but a
   guaranteed miss round-trip per run. Returns how many (thread, peer)
   maps were dropped, for the delta.invalidate metric. *)
let drop_peer t ~peer =
  let stale =
    Hashtbl.fold
      (fun ((_, peer') as k) _ acc -> if peer' = peer then k :: acc else acc)
      t.knowledge []
  in
  List.iter (Hashtbl.remove t.knowledge) stale;
  List.length stale

(* Test hook: flip one byte of a retained page so the next [Cached]
   restore fails its hash check — exercises the fallback protocol. *)
let corrupt_page t ~tid ~addr =
  match Hashtbl.find_opt t.images tid with
  | None -> false
  | Some img ->
    (match Hashtbl.find_opt img.pages addr with
     | None -> false
     | Some page ->
       Bytes.set page 0 (Char.chr (Char.code (Bytes.get page 0) lxor 0xff));
       true)

let check t =
  let sum = Hashtbl.fold (fun _ img acc -> acc + img.bytes) t.images 0 in
  if sum <> t.total_bytes then
    failwith
      (Printf.sprintf "Delta_cache.check: byte accounting drift (%d tracked, %d actual)"
         t.total_bytes sum);
  Hashtbl.iter
    (fun tid img ->
      let actual = Hashtbl.length img.pages * Layout.page_size in
      if actual <> img.bytes then
        failwith
          (Printf.sprintf "Delta_cache.check: image tid=%d claims %dB, holds %dB" tid
             img.bytes actual))
    t.images;
  let unpinned =
    Hashtbl.fold (fun _ img acc -> if img.pinned then acc else acc + img.bytes) t.images 0
  in
  if unpinned > t.budget then
    failwith
      (Printf.sprintf "Delta_cache.check: unpinned images (%dB) exceed budget (%dB)"
         unpinned t.budget)

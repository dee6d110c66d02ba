module Layout = Pm2_vmem.Layout

(* One pooled page of content. [refs] counts occurrences across every
   stored snapshot's hash list (a page referenced by five checkpoints —
   or five times by one checkpoint — carries five refs); it reaches zero
   only when the last referencing snapshot is superseded or dropped. *)
type pooled = { page : Bytes.t; mutable refs : int }

type entry = {
  e_tid : int;
  e_node : int; (* node the thread lived on at snapshot time *)
  e_gen : int; (* that node's incarnation number at snapshot time *)
  e_at : float; (* virtual time of the snapshot, µs *)
  e_frame : Bytes.t; (* v3 codec group-of-one image *)
  e_ranges : (int * int) list; (* (addr, size) slot ranges, for the probe *)
  e_hashes : int list; (* content refs, one per non-zero page *)
}

type t = {
  pool : (int, pooled) Hashtbl.t; (* page hash -> content *)
  entries : (int, entry) Hashtbl.t; (* tid -> latest snapshot *)
  mutable saves : int;
  mutable dedup_pages : int; (* page saves served by the pool *)
}

let create () =
  { pool = Hashtbl.create 64; entries = Hashtbl.create 16; saves = 0; dedup_pages = 0 }

let has_page t ~hash = Hashtbl.mem t.pool hash

let find_page t ~hash =
  match Hashtbl.find_opt t.pool hash with Some p -> Some p.page | None -> None

let decref t hash =
  match Hashtbl.find_opt t.pool hash with
  | None -> ()
  | Some p ->
    p.refs <- p.refs - 1;
    if p.refs <= 0 then Hashtbl.remove t.pool hash

(* Incref or insert; returns [true] iff the page was new to the pool.
   Only a new page is read. *)
let incref t hash read =
  match Hashtbl.find_opt t.pool hash with
  | Some p ->
    p.refs <- p.refs + 1;
    false
  | None ->
    Hashtbl.replace t.pool hash { page = read (); refs = 1 };
    true

let save t ~tid ~node ~gen ~at ~frame ~ranges ~pages =
  let new_pages = ref 0 in
  List.iter
    (fun (hash, read) ->
      if incref t hash read then incr new_pages else t.dedup_pages <- t.dedup_pages + 1)
    pages;
  (* Supersede the previous snapshot only after the new pages are pinned,
     so shared content never transits through refcount zero. *)
  (match Hashtbl.find_opt t.entries tid with
  | Some old -> List.iter (decref t) old.e_hashes
  | None -> ());
  Hashtbl.replace t.entries tid
    {
      e_tid = tid;
      e_node = node;
      e_gen = gen;
      e_at = at;
      e_frame = frame;
      e_ranges = ranges;
      e_hashes = List.map fst pages;
    };
  t.saves <- t.saves + 1;
  !new_pages

let latest t ~tid = Hashtbl.find_opt t.entries tid

let drop t ~tid =
  match Hashtbl.find_opt t.entries tid with
  | None -> ()
  | Some e ->
    List.iter (decref t) e.e_hashes;
    Hashtbl.remove t.entries tid

let entries t = Hashtbl.length t.entries

let saves t = t.saves

let dedup_pages t = t.dedup_pages

let pool_pages t = Hashtbl.length t.pool

let pool_bytes t =
  Hashtbl.fold (fun _ p acc -> acc + Bytes.length p.page) t.pool 0

let frame_bytes t =
  Hashtbl.fold (fun _ e acc -> acc + Bytes.length e.e_frame) t.entries 0

let bytes t = pool_bytes t + frame_bytes t

let page_size = Layout.page_size

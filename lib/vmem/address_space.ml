type addr = Layout.addr

exception Segfault of { addr : addr; node : int; what : string }

(* Everything recorded about one mapped page. [data] is the [untouched]
   sentinel until the page is first read or written through a page
   handle; [stored] is the epoch of the last store, or [-1] if no store
   has touched the page since it was mapped; [hash] is the v3 content
   hash of [data], or [-1] when none has been taken since the last
   store. *)
type page = {
  mutable data : Bytes.t;
  mutable stored : int;
  mutable hash : int;
}

(* Page indices are non-negative and come in runs, so the index itself
   spreads them over the buckets: no call to the polymorphic hash per
   probe. Nothing iterates the table, so its order never shows. *)
module Pages = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash p = p land max_int
end)

type t = {
  node : int;
  pages : page Pages.t; (* page index -> its record *)
  mutable mmap_calls : int;
  mutable resident : int; (* mapped pages whose [data] is allocated *)
  (* One-entry page cache: guest word/byte accesses show heavy page
     locality (stack frames, header walks), so memoizing the last-touched
     page turns most accesses into a compare instead of a Hashtbl probe.
     [last.data] is always allocated. [-1] = empty. Invalidated whenever
     a page is removed ([munmap]/[scrub_range]); [mmap] never replaces an
     existing page so it cannot stale the cache. *)
  mutable last_page : int;
  mutable last : page;
  (* Access epochs for placement telemetry: [advance_epoch] opens a new
     observation window, and [dirty_in_epoch] counts the pages of a range
     whose last store falls inside the current window — the "heat" the
     access-imbalance balancer feeds on. Epoch 0 is the whole pre-history,
     so heat reads 0 until a window has been opened. *)
  mutable epoch : int;
}

(* Contents of a mapped page that nothing has accessed yet, told apart by
   physical equality. A thread hop then pays for the pages the thread
   uses, not for every page its slots span. *)
let untouched = Bytes.create 0

(* The record every page is mapped to: [mmap] allocates nothing per page,
   and a page gets a record of its own on its first access or store.
   Never written. *)
let fresh = { data = untouched; stored = -1; hash = -1 }

let create ~node () =
  {
    node;
    pages = Pages.create 1024;
    mmap_calls = 0;
    resident = 0;
    last_page = -1;
    last = fresh;
    epoch = 0;
  }

let node t = t.node

let segv t addr what = raise (Segfault { addr; node = t.node; what })

let check_aligned what ~addr ~size =
  if not (Layout.is_page_aligned addr) || not (Layout.is_page_aligned size) || size <= 0 then
    invalid_arg (Printf.sprintf "Address_space.%s: unaligned range (0x%x, %d)" what addr size)

let mmap t ~addr ~size =
  check_aligned "mmap" ~addr ~size;
  let first = Layout.page_of_addr addr in
  let n = size / Layout.page_size in
  for p = first to first + n - 1 do
    if Pages.mem t.pages p then
      invalid_arg (Printf.sprintf "Address_space.mmap: page 0x%x already mapped"
                     (Layout.addr_of_page p))
  done;
  for p = first to first + n - 1 do
    Pages.replace t.pages p fresh
  done;
  t.mmap_calls <- t.mmap_calls + 1

(* Page buffers a space let go of, kept for the next page any space
   allocates: a thread hop moves its buffers rather than freeing them,
   so without this cache every page a spawn or a slot acquisition first
   touches would be a fresh allocation from the system. Process-wide
   and bounded; a buffer in it belongs to no space. *)
let spare = Array.make 512 untouched

let spares = ref 0

let recycle b =
  if !spares < Array.length spare then begin
    spare.(!spares) <- b;
    incr spares
  end

(* A zero-filled page buffer. *)
let new_buffer () =
  if !spares = 0 then Bytes.make Layout.page_size '\000'
  else begin
    decr spares;
    let b = spare.(!spares) in
    spare.(!spares) <- untouched;
    Bytes.fill b 0 Layout.page_size '\000';
    b
  end

let drop_page t p =
  let r = Pages.find t.pages p in
  if r.data != untouched then begin
    t.resident <- t.resident - 1;
    recycle r.data
  end;
  Pages.remove t.pages p

let munmap t ~addr ~size =
  check_aligned "munmap" ~addr ~size;
  let first = Layout.page_of_addr addr in
  let n = size / Layout.page_size in
  for p = first to first + n - 1 do
    if not (Pages.mem t.pages p) then
      invalid_arg (Printf.sprintf "Address_space.munmap: page 0x%x not mapped"
                     (Layout.addr_of_page p))
  done;
  for p = first to first + n - 1 do
    drop_page t p
  done;
  t.last_page <- -1

let is_mapped t a = Pages.mem t.pages (Layout.page_of_addr a)

let range_mapped t ~addr ~size =
  let first = Layout.page_of_addr addr in
  let last = Layout.page_of_addr (addr + size - 1) in
  let rec loop p = p > last || (Pages.mem t.pages p && loop (p + 1)) in
  size = 0 || loop first

let range_unmapped t ~addr ~size =
  let first = Layout.page_of_addr addr in
  let last = Layout.page_of_addr (addr + size - 1) in
  let rec loop p = p > last || ((not (Pages.mem t.pages p)) && loop (p + 1)) in
  size = 0 || loop first

let scrub_range t ~addr ~size =
  let first = Layout.page_of_addr addr in
  let last = Layout.page_of_addr (addr + size - 1) in
  let n = ref 0 in
  if size > 0 then begin
    for p = first to last do
      if Pages.mem t.pages p then begin
        drop_page t p;
        incr n
      end
    done;
    t.last_page <- -1
  end;
  !n

let mapped_pages t = Pages.length t.pages

let resident_pages t = t.resident

let mmap_calls t = t.mmap_calls

(* Page [p]'s record [r] as one that may be written: the shared [fresh]
   record is swapped for a page-private one. *)
let[@inline] own t p r =
  if r != fresh then r
  else begin
    let r = { data = untouched; stored = -1; hash = -1 } in
    Pages.replace t.pages p r;
    r
  end

(* Page [p], found in the table as [r], becomes the cached page; an
   untouched one gets its zero-filled buffer first. *)
let[@inline] materialise t p r =
  let r = own t p r in
  if r.data == untouched then begin
    r.data <- new_buffer ();
    t.resident <- t.resident + 1
  end;
  t.last_page <- p;
  t.last <- r;
  r

let record t what a =
  let p = Layout.page_of_addr a in
  if p = t.last_page then t.last
  else
    match Pages.find_opt t.pages p with
    | Some r -> materialise t p r
    | None -> segv t a what

(* The mark of a store: stamp the current epoch and drop the hash. *)
let[@inline] mark t r =
  r.stored <- t.epoch;
  r.hash <- -1

let page t what a = (record t what a).data

(* The store-path twin of [page]: same lookup, plus the store mark. *)
let wpage t what a =
  let r = record t what a in
  mark t r;
  r.data

let page_dirty t a =
  match Pages.find_opt t.pages (Layout.page_of_addr a) with
  | Some r -> r.stored >= 0
  | None -> false

let advance_epoch t = t.epoch <- t.epoch + 1

let epoch t = t.epoch

let dirty_in_epoch t ~addr ~size =
  if size = 0 || t.epoch = 0 then 0
  else begin
    let first = Layout.page_of_addr addr in
    let last = Layout.page_of_addr (addr + size - 1) in
    let n = ref 0 in
    for p = first to last do
      match Pages.find_opt t.pages p with
      | Some r when r.stored = t.epoch -> incr n
      | _ -> ()
    done;
    !n
  end

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* [len] bytes of [b] from [pos] are all zero. Unchecked reads, so the
   caller guarantees the range lies inside [b]. Four words per step, then
   the odd tail bytes: this scan runs over every zero chunk a migration
   unpacks, and a bounds-checked word loop ran about 3x slower. *)
let is_zero_sub b ~pos ~len =
  let stop = pos + len in
  let i = ref pos and zero = ref true in
  while !zero && !i + 32 <= stop do
    let j = !i in
    if Int64.logor
         (Int64.logor (get64u b j) (get64u b (j + 8)))
         (Int64.logor (get64u b (j + 16)) (get64u b (j + 24)))
       <> 0L
    then zero := false;
    i := j + 32
  done;
  while !zero && !i < stop do
    if Bytes.unsafe_get b !i <> '\000' then zero := false;
    incr i
  done;
  !zero

let page_is_zero t a =
  match Pages.find_opt t.pages (Layout.page_of_addr a) with
  | None -> segv t a "is_zero"
  | Some r ->
    (* Untouched, or never stored to since mapping: still the zero fill
       from [mmap]. A stored page is scanned, so a store of zeros reads
       as zero. *)
    r.data == untouched
    || r.stored < 0
    || is_zero_sub r.data ~pos:0 ~len:Layout.page_size

(* Splitmix64 finalizer: FNV-1a alone mixes low bits poorly for 8-byte
   word input; the finalizer spreads every input bit over the whole
   word, which keeps the truncation to 62 bits collision-resistant. *)
let splitmix_mix h =
  let h = Int64.logxor h (Int64.shift_right_logical h 30) in
  let h = Int64.mul h 0xbf58476d1ce4e5b9L in
  let h = Int64.logxor h (Int64.shift_right_logical h 27) in
  let h = Int64.mul h 0x94d049bb133111ebL in
  Int64.logxor h (Int64.shift_right_logical h 31)

let page_bytes_hash bytes =
  if Bytes.length bytes <> Layout.page_size then
    invalid_arg "Address_space.page_bytes_hash: not a page-sized buffer";
  let h = ref 0xcbf29ce484222325L in
  let words = Layout.page_size / 8 in
  for i = 0 to words - 1 do
    h := Int64.mul (Int64.logxor !h (Bytes.get_int64_le bytes (i * 8))) 0x100000001b3L
  done;
  Int64.to_int (Int64.logand (splitmix_mix !h) 0x3FFFFFFFFFFFFFFFL)

let zero_page_hash = page_bytes_hash (Bytes.make Layout.page_size '\000')

let page_hash t a =
  match Pages.find_opt t.pages (Layout.page_of_addr a) with
  | None -> segv t a "page_hash"
  | Some r when r.data == untouched -> zero_page_hash
  | Some r ->
    if r.hash < 0 then r.hash <- page_bytes_hash r.data;
    r.hash

(* ===== moving pages between spaces =====

   Every node's space lives in one process, so a page changes owner by
   moving its record from one table to the other: no byte is copied. A
   taken record is in no table, so each buffer has exactly one owner at
   any time. *)

type pages = { base : addr; recs : page array }

let take t ~addr ~size =
  check_aligned "take" ~addr ~size;
  let first = Layout.page_of_addr addr in
  let recs =
    Array.init (size / Layout.page_size) (fun i ->
        match Pages.find t.pages (first + i) with
        | r -> r
        | exception Not_found ->
          invalid_arg (Printf.sprintf "Address_space.take: page 0x%x not mapped"
                         (Layout.addr_of_page (first + i))))
  in
  Array.iteri
    (fun i r ->
      if r.data != untouched then t.resident <- t.resident - 1;
      Pages.remove t.pages (first + i))
    recs;
  t.last_page <- -1;
  { base = addr; recs }

let nonzero_buffers { base; recs } =
  let out = ref [] in
  for i = Array.length recs - 1 downto 0 do
    let r = recs.(i) in
    if r.data != untouched && r.stored >= 0
       && not (is_zero_sub r.data ~pos:0 ~len:Layout.page_size)
    then out := (base + (i * Layout.page_size), r.data) :: !out
  done;
  !out

(* [adopt] leaves each page as [mmap] and a [store_sub] of every listed
   range would: bytes outside the ranges read zero, a page a non-empty
   range touches carries the store mark, and any other page is the
   shared untouched record. A taken buffer is kept, with its unlisted
   bytes cleared, only where a range touches it. *)
let adopt t ~ranges { base; recs } =
  let n = Array.length recs in
  let first = Layout.page_of_addr base in
  let limit = base + (n * Layout.page_size) in
  ignore
    (List.fold_left
       (fun from (a, len) ->
         if len < 0 || a < from || a + len > limit then
           invalid_arg (Printf.sprintf "Address_space.adopt: bad range (0x%x, %d)" a len);
         a + len)
       base ranges);
  for p = first to first + n - 1 do
    if Pages.mem t.pages p then
      invalid_arg (Printf.sprintf "Address_space.adopt: page 0x%x already mapped"
                     (Layout.addr_of_page p))
  done;
  let rest = ref (List.filter (fun (_, len) -> len > 0) ranges) in
  for i = 0 to n - 1 do
    let lo = base + (i * Layout.page_size) in
    let hi = lo + Layout.page_size in
    (* Ranges ending at or before this page are done with. *)
    let rec skip = function (a, len) :: tl when a + len <= lo -> skip tl | l -> l in
    rest := skip !rest;
    let r = recs.(i) in
    let shipped = match !rest with (a, _) :: _ -> a < hi | [] -> false in
    let r =
      if not shipped then begin
        if r.data != untouched then recycle r.data;
        fresh
      end
      else begin
        let r = if r == fresh then { data = untouched; stored = -1; hash = -1 } else r in
        if r.data != untouched then begin
          (* Clear the gaps between the ranges' parts inside the page. *)
          let rec clear from = function
            | (a, len) :: tl when a < hi ->
              let s = max a lo in
              if s > from then Bytes.fill r.data (from - lo) (s - from) '\000';
              clear (min (a + len) hi) tl
            | _ -> if hi > from then Bytes.fill r.data (from - lo) (hi - from) '\000'
          in
          clear lo !rest;
          t.resident <- t.resident + 1
        end;
        mark t r;
        r
      end
    in
    Pages.add t.pages (first + i) r
  done;
  t.mmap_calls <- t.mmap_calls + 1

(* Raw page handles for the MVM execution engine's inlined load/store
   fast path. [page_for_read]/[page_for_write] are exactly the internal
   [page]/[wpage] lookups (including the store mark on the write side);
   the returned buffer aliases the live page and is valid only until the
   next [munmap]/[scrub_range], so callers must drop their handle at
   every point such a call could run (the engine keeps them only within
   one uninterrupted run-until-event slice, where the guest cannot
   unmap). *)
let page_for_read t a = page t "load" a

let page_for_write t a = wpage t "store" a

let load_u8 t a = Char.code (Bytes.get (page t "load" a) (a land (Layout.page_size - 1)))

let store_u8 t a v =
  Bytes.set (wpage t "store" a) (a land (Layout.page_size - 1)) (Char.chr (v land 0xff))

(* Word accesses are frequent; fast-path the common case where the whole
   word lies inside one page. *)
let load_word t a =
  let off = a land (Layout.page_size - 1) in
  if off <= Layout.page_size - 8 then begin
    let p = page t "load" a in
    Int64.to_int (Bytes.get_int64_le p off)
  end
  else begin
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor load_u8 t (a + i)
    done;
    !v
  end

let store_word t a v =
  let off = a land (Layout.page_size - 1) in
  if off <= Layout.page_size - 8 then begin
    let p = wpage t "store" a in
    Bytes.set_int64_le p off (Int64.of_int v)
  end
  else
    (* [asr]: the bytes of the sign-extended 64-bit word, the same ones
       the in-page path writes. *)
    for i = 0 to 7 do
      store_u8 t (a + i) ((v asr (8 * i)) land 0xff)
    done

let load_bytes t a len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let addr = a + !pos in
    let off = addr land (Layout.page_size - 1) in
    let chunk = min (len - !pos) (Layout.page_size - off) in
    let p = page t "load" addr in
    Bytes.blit p off out !pos chunk;
    pos := !pos + chunk
  done;
  out

let store_bytes t a b =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let addr = a + !pos in
    let off = addr land (Layout.page_size - 1) in
    let chunk = min (len - !pos) (Layout.page_size - off) in
    let p = wpage t "store" addr in
    Bytes.blit b !pos p off chunk;
    pos := !pos + chunk
  done

(* A chunk of zeros stored into an untouched page leaves it unallocated:
   the page already reads as zero. It still takes the store mark, so
   epochs, the v2 manifest and the v3 hashes see the store. The check
   runs only when the one-entry page cache misses. *)
let store_sub t a b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Address_space.store_sub";
  let done_ = ref 0 in
  while !done_ < len do
    let addr = a + !done_ in
    let off = addr land (Layout.page_size - 1) in
    let chunk = min (len - !done_) (Layout.page_size - off) in
    let src = pos + !done_ in
    let p = Layout.page_of_addr addr in
    if p = t.last_page then begin
      mark t t.last;
      Bytes.blit b src t.last.data off chunk
    end
    else begin
      match Pages.find_opt t.pages p with
      | None -> segv t addr "store"
      | Some r when r.data == untouched && is_zero_sub b ~pos:src ~len:chunk ->
        mark t (own t p r)
      | Some r ->
        let r = materialise t p r in
        mark t r;
        Bytes.blit b src r.data off chunk
    end;
    done_ := !done_ + chunk
  done

(* Reads from an untouched page write zeros into [dst] and leave the
   page unallocated; the check runs only when the page cache misses. *)
let load_into t ~addr ~len dst ~pos =
  if pos < 0 || len < 0 || pos + len > Bytes.length dst then
    invalid_arg "Address_space.load_into";
  let done_ = ref 0 in
  while !done_ < len do
    let a = addr + !done_ in
    let off = a land (Layout.page_size - 1) in
    let chunk = min (len - !done_) (Layout.page_size - off) in
    let at = pos + !done_ in
    let p = Layout.page_of_addr a in
    if p = t.last_page then Bytes.blit t.last.data off dst at chunk
    else begin
      match Pages.find_opt t.pages p with
      | None -> segv t a "load"
      | Some r when r.data == untouched -> Bytes.fill dst at chunk '\000'
      | Some r -> Bytes.blit (materialise t p r).data off dst at chunk
    end;
    done_ := !done_ + chunk
  done


let load_cstring t a =
  let buf = Buffer.create 32 in
  let rec loop i =
    if i >= 4096 then Buffer.contents buf
    else begin
      let c = load_u8 t (a + i) in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        loop (i + 1)
      end
    end
  in
  loop 0

let fill t ~addr ~size byte =
  let c = Char.chr (byte land 0xff) in
  let pos = ref 0 in
  while !pos < size do
    let a = addr + !pos in
    let off = a land (Layout.page_size - 1) in
    let chunk = min (size - !pos) (Layout.page_size - off) in
    let p = wpage t "store" a in
    Bytes.fill p off chunk c;
    pos := !pos + chunk
  done

(* Page-run copy between two (possibly identical) spaces: blit directly
   between the source and destination pages, chunking at whichever page
   boundary comes first, with no intermediate allocation. Only safe for
   non-overlapping ranges. *)
let blit_disjoint ~src ~src_addr ~dst ~dst_addr ~size =
  let pos = ref 0 in
  while !pos < size do
    let sa = src_addr + !pos and da = dst_addr + !pos in
    let soff = sa land (Layout.page_size - 1) in
    let doff = da land (Layout.page_size - 1) in
    let chunk =
      min (size - !pos) (min (Layout.page_size - soff) (Layout.page_size - doff))
    in
    let sp = page src "load" sa in
    let dp = wpage dst "store" da in
    Bytes.blit sp soff dp doff chunk;
    pos := !pos + chunk
  done

let copy_within t ~src ~dst ~size =
  if size > 0 then begin
    if src + size <= dst || dst + size <= src then
      blit_disjoint ~src:t ~src_addr:src ~dst:t ~dst_addr:dst ~size
    else
      (* Overlapping ranges keep the original copy-via-temporary
         semantics. *)
      store_bytes t dst (load_bytes t src size)
  end

let blit ~src ~src_addr ~dst ~dst_addr ~size =
  if size > 0 then begin
    if src != dst then blit_disjoint ~src ~src_addr ~dst ~dst_addr ~size
    else copy_within src ~src:src_addr ~dst:dst_addr ~size
  end

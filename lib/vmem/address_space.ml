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

(* The table maps chunks of 16 pages, 64 KB: one default slot, so a
   slot's map, unmap or hop probes it once. *)
let chunk_shift = 4

let chunk_pages = 1 lsl chunk_shift

let chunk_mask = chunk_pages - 1

(* One table entry: the records of the chunk's pages, [absent] where a
   page is unmapped, and how many are mapped. A chunk leaves the table
   when its last page is unmapped. *)
type chunk = {
  recs : page array;
  mutable live : int;
}

type t = {
  node : int;
  dir : chunk array array; (* the table: see [chunk] *)
  mutable mapped : int;
  mutable mmap_calls : int;
  mutable resident : int; (* mapped pages whose [data] is allocated *)
  (* One-entry page cache: guest word/byte accesses show heavy page
     locality (stack frames, header walks), so memoizing the last-touched
     page turns most accesses into a compare instead of a table probe.
     [last.data] is always allocated. [-1] = empty. Invalidated whenever
     a page is removed ([munmap]/[scrub_range]/[take]); [mmap] never
     replaces an existing page so it cannot stale the cache. *)
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

(* The record of an unmapped page, told apart from [fresh] by physical
   equality. It reads as a page no store has touched, so [page_dirty]
   and [dirty_in_epoch] need no test for it. Never written. *)
let absent = { data = untouched; stored = -1; hash = -1 }

(* What a probe for a chunk the table lacks finds: every page [absent].
   Never written. *)
let no_chunk = { recs = Array.make chunk_pages absent; live = 0 }

(* The table is a two-level radix tree on the chunk index: a directory
   of blocks, each the entries of 256 chunks (16 MB). A probe is two
   array reads, with no hash and no exception. A block is allocated by
   the first map inside it and kept. The directory spans the layout up
   to the top of the process stack, so nothing is mapped above it.
   Nothing iterates the table. *)
let block_shift = 8

let block_mask = (1 lsl block_shift) - 1

let top_page = Layout.page_of_addr (Layout.stack_base + Layout.stack_size)

let dir_blocks = ((top_page - 1) lsr (chunk_shift + block_shift)) + 1

(* A block no map has reached: every chunk [no_chunk]. Never written. *)
let no_block = Array.make (1 lsl block_shift) no_chunk

let create ~node () =
  {
    node;
    dir = Array.make dir_blocks no_block;
    mapped = 0;
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

(* Chunk [c]: [no_chunk] if no page of it is mapped. A negative [c]
   reads as a huge block index, so it misses too. *)
let[@inline] chunk t c =
  let b = c lsr block_shift in
  if b < dir_blocks then Array.unsafe_get (Array.unsafe_get t.dir b) (c land block_mask)
  else no_chunk

(* Enter [ch] as chunk [c], which lies under the stack top. *)
let file_chunk t c ch =
  let b = c lsr block_shift in
  if t.dir.(b) == no_block then t.dir.(b) <- Array.make (1 lsl block_shift) no_chunk;
  t.dir.(b).(c land block_mask) <- ch

let remove_chunk t c = t.dir.(c lsr block_shift).(c land block_mask) <- no_chunk

(* The record of page [p]: [absent] if it is unmapped. *)
let[@inline] lookup t p =
  Array.unsafe_get (chunk t (p lsr chunk_shift)).recs (p land chunk_mask)

(* The pages of [first .. last] that lie in chunk [c]. *)
let[@inline] chunk_lo first c = Int.max first (c lsl chunk_shift)

let[@inline] chunk_hi last c = Int.min last ((c lsl chunk_shift) lor chunk_mask)

(* How many pages of [first .. last] are mapped: one probe per chunk, and
   no page scan where the run spans a whole chunk. *)
let mapped_in t ~first ~last =
  let n = ref 0 in
  for c = first lsr chunk_shift to last lsr chunk_shift do
    let ch = chunk t c in
    let lo = chunk_lo first c and hi = chunk_hi last c in
    if hi - lo = chunk_mask then n := !n + ch.live
    else
      for p = lo to hi do
        if Array.unsafe_get ch.recs (p land chunk_mask) != absent then incr n
      done
  done;
  !n

(* The first page from [p] on whose being mapped is [mapped]: the page an
   error message names. *)
let rec first_where t ~mapped p =
  if (lookup t p != absent) = mapped then p else first_where t ~mapped (p + 1)

let refuse t what ~mapped first =
  invalid_arg
    (Printf.sprintf "Address_space.%s: page 0x%x %s" what
       (Layout.addr_of_page (first_where t ~mapped first))
       (if mapped then "already mapped" else "not mapped"))

(* Chunk [c], entered in the table if it is not there yet. *)
let chunk_for_map t c =
  let ch = chunk t c in
  if ch != no_chunk then ch
  else begin
    let ch = { recs = Array.make chunk_pages absent; live = 0 } in
    file_chunk t c ch;
    ch
  end

let mmap t ~addr ~size =
  check_aligned "mmap" ~addr ~size;
  let first = Layout.page_of_addr addr in
  let last = first + (size / Layout.page_size) - 1 in
  if last >= top_page then
    invalid_arg
      (Printf.sprintf "Address_space.mmap: range (0x%x, %d) above the stack top" addr size);
  if mapped_in t ~first ~last > 0 then refuse t "mmap" ~mapped:true first;
  for c = first lsr chunk_shift to last lsr chunk_shift do
    let ch = chunk_for_map t c in
    let lo = chunk_lo first c and hi = chunk_hi last c in
    Array.fill ch.recs (lo land chunk_mask) (hi - lo + 1) fresh;
    ch.live <- ch.live + (hi - lo + 1)
  done;
  t.mapped <- t.mapped + (last - first + 1);
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

(* Unmap the pages [lo .. hi] of chunk [c], found as [ch], whichever of
   them are mapped, and return how many were. *)
let drop_pages t c ch ~lo ~hi =
  let n = ref 0 in
  for p = lo to hi do
    let i = p land chunk_mask in
    let r = Array.unsafe_get ch.recs i in
    if r != absent then begin
      if r.data != untouched then begin
        t.resident <- t.resident - 1;
        recycle r.data
      end;
      ch.recs.(i) <- absent;
      incr n
    end
  done;
  ch.live <- ch.live - !n;
  if ch.live = 0 then remove_chunk t c;
  t.mapped <- t.mapped - !n;
  !n

let munmap t ~addr ~size =
  check_aligned "munmap" ~addr ~size;
  let first = Layout.page_of_addr addr in
  let last = first + (size / Layout.page_size) - 1 in
  if mapped_in t ~first ~last <> last - first + 1 then refuse t "munmap" ~mapped:false first;
  for c = first lsr chunk_shift to last lsr chunk_shift do
    ignore (drop_pages t c (chunk t c) ~lo:(chunk_lo first c) ~hi:(chunk_hi last c))
  done;
  t.last_page <- -1

let is_mapped t a = lookup t (Layout.page_of_addr a) != absent

let range_mapped t ~addr ~size =
  let first = Layout.page_of_addr addr in
  let last = Layout.page_of_addr (addr + size - 1) in
  size = 0 || mapped_in t ~first ~last = last - first + 1

let range_unmapped t ~addr ~size =
  size = 0
  || mapped_in t ~first:(Layout.page_of_addr addr) ~last:(Layout.page_of_addr (addr + size - 1))
     = 0

let scrub_range t ~addr ~size =
  if size <= 0 then 0
  else begin
    let first = Layout.page_of_addr addr in
    let last = Layout.page_of_addr (addr + size - 1) in
    let n = ref 0 in
    for c = first lsr chunk_shift to last lsr chunk_shift do
      let ch = chunk t c in
      if ch != no_chunk then
        n := !n + drop_pages t c ch ~lo:(chunk_lo first c) ~hi:(chunk_hi last c)
    done;
    t.last_page <- -1;
    !n
  end

let mapped_pages t = t.mapped

let resident_pages t = t.resident

let mmap_calls t = t.mmap_calls

(* Record [r], slot [i] of [recs], as one that may be written: the
   shared [fresh] record is swapped for a page-private one. *)
let[@inline] own recs i r =
  if r != fresh then r
  else begin
    let r = { data = untouched; stored = -1; hash = -1 } in
    Array.unsafe_set recs i r;
    r
  end

(* Page [p], found as [r] at slot [i] of its chunk's [recs], becomes the
   cached page; an untouched one gets its zero-filled buffer first. *)
let[@inline] materialise t p recs i r =
  let r = own recs i r in
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
  else begin
    let recs = (chunk t (p lsr chunk_shift)).recs and i = p land chunk_mask in
    let r = Array.unsafe_get recs i in
    if r == absent then segv t a what else materialise t p recs i r
  end

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

let page_dirty t a = (lookup t (Layout.page_of_addr a)).stored >= 0

let advance_epoch t = t.epoch <- t.epoch + 1

let epoch t = t.epoch

let dirty_in_epoch t ~addr ~size =
  if size = 0 || t.epoch = 0 then 0
  else begin
    let first = Layout.page_of_addr addr in
    let last = Layout.page_of_addr (addr + size - 1) in
    let n = ref 0 in
    for c = first lsr chunk_shift to last lsr chunk_shift do
      let recs = (chunk t c).recs in
      for p = chunk_lo first c to chunk_hi last c do
        if (Array.unsafe_get recs (p land chunk_mask)).stored = t.epoch then incr n
      done
    done;
    !n
  end

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* [len] bytes of [b] from [pos] are all zero. Unchecked reads, so the
   caller guarantees the range lies inside [b]. Four words per step, then
   the odd tail bytes: this scan runs over every zero run a migration
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
  let r = lookup t (Layout.page_of_addr a) in
  if r == absent then segv t a "is_zero"
  else
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
  let r = lookup t (Layout.page_of_addr a) in
  if r == absent then segv t a "page_hash"
  else if r.data == untouched then zero_page_hash
  else begin
    if r.hash < 0 then r.hash <- page_bytes_hash r.data;
    r.hash
  end

(* ===== moving pages between spaces =====

   Every node's space lives in one process, so a page changes owner by
   moving its record from one table to the other: no byte is copied. A
   taken record is in no table, so each buffer has exactly one owner at
   any time. *)

(* [chunks.(j)] holds the taken records of the [j]th chunk the range
   spans, laid out as in the table: [absent] outside the range. A chunk
   the range spans whole is handed over as it was, record array and all. *)
type pages = { base : addr; size : int; chunks : page array array }

let take t ~addr ~size =
  check_aligned "take" ~addr ~size;
  let first = Layout.page_of_addr addr in
  let last = first + (size / Layout.page_size) - 1 in
  if mapped_in t ~first ~last <> last - first + 1 then refuse t "take" ~mapped:false first;
  let c0 = first lsr chunk_shift in
  let chunks = Array.make ((last lsr chunk_shift) - c0 + 1) no_chunk.recs in
  for c = c0 to last lsr chunk_shift do
    let ch = chunk t c in
    let lo = chunk_lo first c and hi = chunk_hi last c in
    let recs =
      if hi - lo = chunk_mask then begin
        remove_chunk t c;
        ch.recs
      end
      else begin
        let recs = Array.make chunk_pages absent in
        for p = lo to hi do
          let i = p land chunk_mask in
          recs.(i) <- ch.recs.(i);
          ch.recs.(i) <- absent
        done;
        ch.live <- ch.live - (hi - lo + 1);
        if ch.live = 0 then remove_chunk t c;
        recs
      end
    in
    for p = lo to hi do
      if (Array.unsafe_get recs (p land chunk_mask)).data != untouched then
        t.resident <- t.resident - 1
    done;
    chunks.(c - c0) <- recs
  done;
  t.mapped <- t.mapped - (last - first + 1);
  t.last_page <- -1;
  { base = addr; size; chunks }

let nonzero_buffers { base; size; chunks } =
  let first = Layout.page_of_addr base in
  let out = ref [] in
  for p = first + (size / Layout.page_size) - 1 downto first do
    let r = chunks.((p lsr chunk_shift) - (first lsr chunk_shift)).(p land chunk_mask) in
    if r.data != untouched && r.stored >= 0
       && not (is_zero_sub r.data ~pos:0 ~len:Layout.page_size)
    then out := (Layout.addr_of_page p, r.data) :: !out
  done;
  !out

(* [ranges] are ascending, disjoint and end by [limit], from [from] on. *)
let rec check_ranges ~limit from = function
  | [] -> ()
  | (a, len) :: tl ->
    if len < 0 || a < from || a + len > limit then
      invalid_arg (Printf.sprintf "Address_space.adopt: bad range (0x%x, %d)" a len);
    check_ranges ~limit (a + len) tl

(* [ranges] less the empty ones and those ending by [lo]. *)
let rec drop_done lo = function
  | (a, len) :: tl when len = 0 || a + len <= lo -> drop_done lo tl
  | l -> l

(* Zero the bytes of the page [lo, hi), buffer [data], that no range
   covers, from [from] on. *)
let rec clear_gaps data ~lo ~hi from = function
  | (a, len) :: tl when a < hi ->
    let s = Int.max a lo in
    if s > from then Bytes.fill data (from - lo) (s - from) '\000';
    clear_gaps data ~lo ~hi (Int.min (a + len) hi) tl
  | _ -> if hi > from then Bytes.fill data (from - lo) (hi - from) '\000'

(* What the taken record [r] of the page [lo, hi) is adopted as, given
   the [ranges] not yet passed. *)
let landed t r ~lo ~hi ranges =
  match ranges with
  | (a, _) :: _ when a < hi ->
    let r = if r == fresh then { data = untouched; stored = -1; hash = -1 } else r in
    if r.data != untouched then begin
      clear_gaps r.data ~lo ~hi lo ranges;
      t.resident <- t.resident + 1
    end;
    mark t r;
    r
  | _ ->
    if r.data != untouched then recycle r.data;
    fresh

(* [adopt] leaves each page as [mmap] and a [store_sub] of every listed
   range would: bytes outside the ranges read zero, a page a non-empty
   range touches carries the store mark, and any other page is the
   shared untouched record. A taken buffer is kept, with its unlisted
   bytes cleared, only where a range touches it. A taken chunk array
   becomes the table's where no page of its chunk is mapped in [t]. *)
let adopt t ~ranges { base; size; chunks } =
  check_ranges ~limit:(base + size) base ranges;
  let first = Layout.page_of_addr base in
  let last = first + (size / Layout.page_size) - 1 in
  if mapped_in t ~first ~last > 0 then refuse t "adopt" ~mapped:true first;
  let c0 = first lsr chunk_shift in
  let rest = ref ranges in
  for c = c0 to last lsr chunk_shift do
    let recs = chunks.(c - c0) in
    let lo = chunk_lo first c and hi = chunk_hi last c in
    for p = lo to hi do
      let i = p land chunk_mask in
      let plo = Layout.addr_of_page p in
      rest := drop_done plo !rest;
      recs.(i) <- landed t recs.(i) ~lo:plo ~hi:(plo + Layout.page_size) !rest
    done;
    let ch = chunk t c in
    if ch == no_chunk then file_chunk t c { recs; live = hi - lo + 1 }
    else begin
      Array.blit recs (lo land chunk_mask) ch.recs (lo land chunk_mask) (hi - lo + 1);
      ch.live <- ch.live + (hi - lo + 1)
    end
  done;
  t.mapped <- t.mapped + (last - first + 1);
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
    let run = min (len - !pos) (Layout.page_size - off) in
    let p = page t "load" addr in
    Bytes.blit p off out !pos run;
    pos := !pos + run
  done;
  out

let store_bytes t a b =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let addr = a + !pos in
    let off = addr land (Layout.page_size - 1) in
    let run = min (len - !pos) (Layout.page_size - off) in
    let p = wpage t "store" addr in
    Bytes.blit b !pos p off run;
    pos := !pos + run
  done

(* A run of zeros stored into an untouched page leaves it unallocated:
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
    let run = min (len - !done_) (Layout.page_size - off) in
    let src = pos + !done_ in
    let p = Layout.page_of_addr addr in
    if p = t.last_page then begin
      mark t t.last;
      Bytes.blit b src t.last.data off run
    end
    else begin
      let recs = (chunk t (p lsr chunk_shift)).recs and i = p land chunk_mask in
      let r = Array.unsafe_get recs i in
      if r == absent then segv t addr "store"
      else if r.data == untouched && is_zero_sub b ~pos:src ~len:run then mark t (own recs i r)
      else begin
        let r = materialise t p recs i r in
        mark t r;
        Bytes.blit b src r.data off run
      end
    end;
    done_ := !done_ + run
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
    let run = min (len - !done_) (Layout.page_size - off) in
    let at = pos + !done_ in
    let p = Layout.page_of_addr a in
    if p = t.last_page then Bytes.blit t.last.data off dst at run
    else begin
      let recs = (chunk t (p lsr chunk_shift)).recs and i = p land chunk_mask in
      let r = Array.unsafe_get recs i in
      if r == absent then segv t a "load"
      else if r.data == untouched then Bytes.fill dst at run '\000'
      else Bytes.blit (materialise t p recs i r).data off dst at run
    end;
    done_ := !done_ + run
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
    let run = min (size - !pos) (Layout.page_size - off) in
    let p = wpage t "store" a in
    Bytes.fill p off run c;
    pos := !pos + run
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
    let run =
      min (size - !pos) (min (Layout.page_size - soff) (Layout.page_size - doff))
    in
    let sp = page src "load" sa in
    let dp = wpage dst "store" da in
    Bytes.blit sp soff dp doff run;
    pos := !pos + run
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

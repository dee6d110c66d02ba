module Layout = Pm2_vmem.Layout
module As = Pm2_vmem.Address_space

(* -- Layout -- *)

let test_layout_constants () =
  Alcotest.(check int) "page size" 4096 Layout.page_size;
  Alcotest.(check int) "iso area is 3.5 GB" (3584 * 1024 * 1024) Layout.iso_size;
  Alcotest.(check int) "iso area slot count" 57344 (Layout.iso_size / (64 * 1024));
  Alcotest.(check bool) "segments ordered" true
    (Layout.code_base < Layout.data_base
     && Layout.data_base < Layout.heap_base
     && Layout.heap_base + Layout.heap_max_size <= Layout.iso_base
     && Layout.iso_base + Layout.iso_size <= Layout.stack_base)

let test_layout_alignment () =
  Alcotest.(check bool) "iso_base aligned" true (Layout.is_page_aligned Layout.iso_base);
  Alcotest.(check int) "align down" 0x2000 (Layout.page_align_down 0x2fff);
  Alcotest.(check int) "align up" 0x3000 (Layout.page_align_up 0x2001);
  Alcotest.(check int) "align up exact" 0x2000 (Layout.page_align_up 0x2000);
  Alcotest.(check int) "page_of_addr" 2 (Layout.page_of_addr 0x2abc);
  Alcotest.(check int) "addr_of_page" 0x2000 (Layout.addr_of_page 2)

let test_layout_membership () =
  Alcotest.(check bool) "iso member" true (Layout.in_iso_area Layout.iso_base);
  Alcotest.(check bool) "iso non-member" false
    (Layout.in_iso_area (Layout.iso_base + Layout.iso_size));
  Alcotest.(check bool) "heap member" true (Layout.in_heap Layout.heap_base);
  Alcotest.(check bool) "heap non-member" false (Layout.in_heap Layout.iso_base)

(* -- Address_space -- *)

let space () = As.create ~node:0 ()

let test_mmap_read_write () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  Alcotest.(check bool) "mapped" true (As.is_mapped sp 0x10000);
  Alcotest.(check bool) "mapped 2nd page" true (As.is_mapped sp 0x11000);
  Alcotest.(check bool) "not mapped" false (As.is_mapped sp 0x12000);
  Alcotest.(check int) "zero-filled" 0 (As.load_word sp 0x10100);
  As.store_word sp 0x10100 0x123456789abcd;
  Alcotest.(check int) "word roundtrip" 0x123456789abcd (As.load_word sp 0x10100);
  As.store_u8 sp 0x10000 0xfe;
  Alcotest.(check int) "byte roundtrip" 0xfe (As.load_u8 sp 0x10000)

let test_negative_word () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:4096;
  As.store_word sp 0x10008 (-42);
  Alcotest.(check int) "negative word" (-42) (As.load_word sp 0x10008)

let test_cross_page_word () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  (* A word straddling the page boundary at 0x11000. *)
  As.store_word sp 0x10ffc 0x1122334455667788;
  Alcotest.(check int) "straddling word" 0x1122334455667788 (As.load_word sp 0x10ffc)

let test_segfault () =
  let sp = space () in
  let check_segv f =
    match f () with
    | exception As.Segfault { addr; node; _ } ->
      Alcotest.(check int) "faulting node" 0 node;
      Alcotest.(check bool) "addr in range" true (addr >= 0x20000);
      true
    | _ -> false
  in
  Alcotest.(check bool) "load faults" true (check_segv (fun () -> As.load_word sp 0x20000));
  Alcotest.(check bool) "store faults" true
    (check_segv (fun () -> As.store_word sp 0x20000 1; 0))

let test_mmap_overlap_rejected () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  Alcotest.(check bool) "overlap rejected" true
    (try As.mmap sp ~addr:0x11000 ~size:4096; false
     with Invalid_argument _ -> true);
  (* The failed mmap must not have mapped anything partially. *)
  Alcotest.(check bool) "no partial map" false (As.is_mapped sp 0x12000)

let test_mmap_alignment_rejected () =
  let sp = space () in
  Alcotest.(check bool) "unaligned addr" true
    (try As.mmap sp ~addr:0x10001 ~size:4096; false with Invalid_argument _ -> true);
  Alcotest.(check bool) "unaligned size" true
    (try As.mmap sp ~addr:0x10000 ~size:100; false with Invalid_argument _ -> true)

let test_munmap () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  As.munmap sp ~addr:0x10000 ~size:4096;
  Alcotest.(check bool) "first page gone" false (As.is_mapped sp 0x10000);
  Alcotest.(check bool) "second page stays" true (As.is_mapped sp 0x11000);
  Alcotest.(check bool) "double munmap rejected" true
    (try As.munmap sp ~addr:0x10000 ~size:4096; false with Invalid_argument _ -> true);
  Alcotest.(check int) "mapped pages" 1 (As.mapped_pages sp)

let test_untouched_pages_unallocated () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:(16 * 4096);
  Alcotest.(check int) "all mapped" 16 (As.mapped_pages sp);
  Alcotest.(check int) "none allocated" 0 (As.resident_pages sp);
  Alcotest.(check bool) "untouched page is zero" true (As.page_is_zero sp 0x13000);
  Alcotest.(check int) "the zero test allocates nothing" 0 (As.resident_pages sp);
  As.store_word sp 0x12008 7;
  Alcotest.(check int) "untouched page loads zero" 0 (As.load_word sp 0x15000);
  Alcotest.(check int) "one store, one load: two pages" 2 (As.resident_pages sp);
  As.munmap sp ~addr:0x10000 ~size:(4 * 4096);
  Alcotest.(check int) "unmapping frees the stored page" 1 (As.resident_pages sp);
  Alcotest.(check int) "twelve pages stay mapped" 12 (As.mapped_pages sp)

(* Page-run copies against untouched pages: reads produce zeros and
   stores of zeros record the store, and neither allocates. *)
let test_untouched_page_runs () =
  let pg = Layout.page_size in
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:(8 * pg);
  As.advance_epoch sp;
  let dst = Bytes.make (3 * pg) 'x' in
  As.load_into sp ~addr:(0x10000 + 100) ~len:(2 * pg) dst ~pos:5;
  Alcotest.(check bool) "zeros copied out" true
    (Bytes.for_all (( = ) '\000') (Bytes.sub dst 5 (2 * pg)));
  Alcotest.(check char) "bytes around the region untouched" 'x' (Bytes.get dst 4);
  Alcotest.(check int) "reading untouched pages allocates nothing" 0 (As.resident_pages sp);
  let zeros = Bytes.make (2 * pg) '\000' in
  As.store_sub sp 0x12000 zeros ~pos:0 ~len:(2 * pg);
  Alcotest.(check int) "storing zeros allocates nothing" 0 (As.resident_pages sp);
  (* The same store on a reference space that materialises the pages. *)
  let ref_sp = space () in
  As.mmap ref_sp ~addr:0x10000 ~size:(8 * pg);
  As.advance_epoch ref_sp;
  As.fill ref_sp ~addr:0x12000 ~size:(2 * pg) 0;
  List.iter
    (fun a ->
      let name what = Printf.sprintf "%s at 0x%x" what a in
      Alcotest.(check bool) (name "dirty") (As.page_dirty ref_sp a) (As.page_dirty sp a);
      Alcotest.(check bool) (name "zero") (As.page_is_zero ref_sp a) (As.page_is_zero sp a);
      Alcotest.(check int) (name "hash") (As.page_hash ref_sp a) (As.page_hash sp a))
    [ 0x11000; 0x12000; 0x13000 ];
  Alcotest.(check int) "epoch heat"
    (As.dirty_in_epoch ref_sp ~addr:0x10000 ~size:(8 * pg))
    (As.dirty_in_epoch sp ~addr:0x10000 ~size:(8 * pg));
  Alcotest.(check int) "the checks allocate nothing" 0 (As.resident_pages sp);
  (* Non-zero bytes allocate exactly the page they land on; zeros stored
     over a live page (the cached one) overwrite it. *)
  let data = Bytes.make 16 '\007' in
  As.store_sub sp 0x14ff8 data ~pos:0 ~len:8;
  Alcotest.(check int) "a non-zero store allocates its page" 1 (As.resident_pages sp);
  As.store_sub sp 0x14ff8 zeros ~pos:0 ~len:8;
  Alcotest.(check int) "zeros over a live page are written" 0 (As.load_word sp 0x14ff8);
  Alcotest.(check bool) "and the page reads as zero" true (As.page_is_zero sp 0x14000);
  Alcotest.(check bool) "unmapped store faults" true
    (match As.store_sub sp 0x30000 zeros ~pos:0 ~len:8 with
     | () -> false
     | exception As.Segfault _ -> true)

let test_remap_after_munmap () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:4096;
  As.store_word sp 0x10000 99;
  As.munmap sp ~addr:0x10000 ~size:4096;
  As.mmap sp ~addr:0x10000 ~size:4096;
  Alcotest.(check int) "fresh pages are zero" 0 (As.load_word sp 0x10000);
  Alcotest.(check int) "mmap_calls counted" 2 (As.mmap_calls sp)

(* Pages dirtied and then freed, by [munmap] and by [scrub_range], must
   come back all zero when another space maps and touches the same
   range, whatever the freed buffers became. The stores of zero mark the
   pages dirty, so [page_is_zero] and [page_hash] read the page contents
   instead of answering from the clean-page shortcut. *)
let test_freed_pages_zeroed () =
  let a = space () and b = As.create ~node:1 () in
  let base = 0x10000 and size = 2 * Layout.page_size in
  As.mmap a ~addr:base ~size;
  As.fill a ~addr:base ~size 0xAB;
  Alcotest.(check int) "source resident" 2 (As.resident_pages a);
  As.munmap a ~addr:base ~size:Layout.page_size;
  Alcotest.(check int) "scrubbed" 1
    (As.scrub_range a ~addr:(base + Layout.page_size) ~size:Layout.page_size);
  Alcotest.(check int) "source resident after unmap" 0 (As.resident_pages a);
  As.mmap b ~addr:base ~size;
  let zero_hash = As.page_bytes_hash (Bytes.make Layout.page_size '\000') in
  for pg = 0 to 1 do
    let page = base + (pg * Layout.page_size) in
    for w = 0 to (Layout.page_size / 8) - 1 do
      let v = As.load_word b (page + (8 * w)) in
      if v <> 0 then Alcotest.failf "page %d word %d reads 0x%x" pg w v
    done;
    As.store_u8 b (page + 17) 0;
    Alcotest.(check bool) (Printf.sprintf "page %d zero" pg) true (As.page_is_zero b page);
    Alcotest.(check int) (Printf.sprintf "page %d hash" pg) zero_hash (As.page_hash b page)
  done;
  Alcotest.(check int) "destination resident" 2 (As.resident_pages b);
  Alcotest.(check int) "source still empty" 0 (As.resident_pages a)

let test_bytes_roundtrip () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:(3 * 4096);
  let data = Bytes.init 9000 (fun i -> Char.chr (i mod 256)) in
  As.store_bytes sp 0x10100 data;
  Alcotest.(check bytes) "cross-page bytes" data (As.load_bytes sp 0x10100 9000)

let test_range_mapped () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  Alcotest.(check bool) "full range" true (As.range_mapped sp ~addr:0x10000 ~size:8192);
  Alcotest.(check bool) "partial range" false (As.range_mapped sp ~addr:0x10000 ~size:12288);
  Alcotest.(check bool) "empty range" true (As.range_mapped sp ~addr:0x50000 ~size:0)

let test_cstring () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:4096;
  As.store_bytes sp 0x10000 (Bytes.of_string "hello\000world");
  Alcotest.(check string) "cstring stops at NUL" "hello" (As.load_cstring sp 0x10000);
  Alcotest.(check string) "offset cstring" "world" (As.load_cstring sp 0x10006)

let test_fill_and_copy () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:8192;
  As.fill sp ~addr:0x10000 ~size:16 0xab;
  Alcotest.(check int) "filled" 0xab (As.load_u8 sp 0x1000f);
  As.copy_within sp ~src:0x10000 ~dst:0x11000 ~size:16;
  Alcotest.(check int) "copied" 0xab (As.load_u8 sp 0x1100f)

let test_blit_across_spaces () =
  let a = As.create ~node:0 () and b = As.create ~node:1 () in
  As.mmap a ~addr:0x10000 ~size:4096;
  As.mmap b ~addr:0x10000 ~size:4096;
  As.store_word a 0x10010 777;
  As.blit ~src:a ~src_addr:0x10000 ~dst:b ~dst_addr:0x10000 ~size:4096;
  Alcotest.(check int) "iso-address blit" 777 (As.load_word b 0x10010)

(* The table maps 16-page chunks: a page the chunk's other pages keep in
   the table is still unmapped, and counts as such. *)
let test_hole_in_live_chunk () =
  let sp = space () in
  As.mmap sp ~addr:0x10000 ~size:(4 * Layout.page_size);
  As.mmap sp ~addr:0x16000 ~size:Layout.page_size;
  let segv f = match f () with _ -> false | exception As.Segfault _ -> true in
  Alcotest.(check bool) "load faults" true (segv (fun () -> As.load_word sp 0x14000));
  Alcotest.(check bool) "store faults" true (segv (fun () -> As.store_word sp 0x15008 1; 0));
  Alcotest.(check bool) "zero test faults" true
    (segv (fun () -> Bool.to_int (As.page_is_zero sp 0x14000)));
  Alcotest.(check bool) "hash faults" true (segv (fun () -> As.page_hash sp 0x1f000));
  Alcotest.(check bool) "hole unmapped" false (As.is_mapped sp 0x15000);
  Alcotest.(check bool) "hole clean" false (As.page_dirty sp 0x15000);
  Alcotest.(check bool) "run over the hole" false
    (As.range_mapped sp ~addr:0x13000 ~size:(2 * Layout.page_size));
  Alcotest.(check bool) "hole alone" true
    (As.range_unmapped sp ~addr:0x14000 ~size:(2 * Layout.page_size));
  Alcotest.(check int) "mapped pages" 5 (As.mapped_pages sp);
  Alcotest.(check int) "scrub the chunk" 5
    (As.scrub_range sp ~addr:0x10000 ~size:(16 * Layout.page_size));
  Alcotest.(check int) "nothing left" 0 (As.mapped_pages sp)

(* Nothing maps above the stack top, where the table ends; any address
   at all reads as unmapped. *)
let test_beyond_the_layout () =
  let sp = space () in
  let top = Layout.stack_base + Layout.stack_size in
  As.mmap sp ~addr:(top - Layout.page_size) ~size:Layout.page_size;
  Alcotest.(check bool) "above the top rejected" true
    (try As.mmap sp ~addr:top ~size:Layout.page_size; false with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative rejected" true
    (try As.mmap sp ~addr:(-65536) ~size:Layout.page_size; false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "only the last page below the top" 1 (As.mapped_pages sp);
  List.iter
    (fun a ->
      Alcotest.(check bool) (Printf.sprintf "0x%x unmapped" a) false (As.is_mapped sp a);
      Alcotest.(check bool) (Printf.sprintf "0x%x faults" a) true
        (match As.load_word sp a with _ -> false | exception As.Segfault _ -> true))
    [ top; max_int land lnot 7; -8 ]

(* Minor words per call of [f], over [calls] calls. *)
let words_per_call calls f =
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let slot = 64 * 1024

(* A slot hop moves one table entry: [take] hands over the chunk's
   records and [adopt] files them, with no per-page work that allocates.
   Both spaces map 200 other slots, so the table is not trivially small. *)
let test_hop_allocation () =
  let a = space () and b = As.create ~node:1 () in
  for k = 1 to 200 do
    As.mmap a ~addr:(Layout.iso_base + (k * slot)) ~size:slot;
    As.mmap b ~addr:(Layout.iso_base + ((k + 200) * slot)) ~size:slot
  done;
  let base = Layout.iso_base in
  As.mmap a ~addr:base ~size:slot;
  As.fill a ~addr:base ~size:slot 0x5a;
  let ranges = [ (base, slot) ] in
  let hop src dst = As.adopt dst ~ranges (As.take src ~addr:base ~size:slot) in
  hop a b;
  hop b a;
  let w = words_per_call 100 (fun () -> hop a b; hop b a) /. 2. in
  if w > 96. then Alcotest.failf "a slot hop allocates %.1f minor words" w;
  Alcotest.(check int) "contents travelled" 0x5a (As.load_u8 a (base + slot - 1));
  Alcotest.(check int) "pages stay resident" 16 (As.resident_pages a);
  let w =
    words_per_call 100 (fun () ->
        As.mmap b ~addr:base ~size:slot;
        As.munmap b ~addr:base ~size:slot)
  in
  if w > 32. then Alcotest.failf "mmap + munmap of a slot allocates %.1f minor words" w

let prop_word_roundtrip =
  QCheck2.Test.make ~name:"store_word/load_word roundtrips at any aligned offset"
    QCheck2.Gen.(pair (int_range 0 4088) int)
    (fun (off, v) ->
       let sp = space () in
       As.mmap sp ~addr:0x10000 ~size:8192;
       let addr = 0x10000 + off in
       As.store_word sp addr v;
       As.load_word sp addr = v)

(* -- model test: the page table against a naive reference --

   The reference allocates every page eagerly, keeps one dirty epoch per
   page and memoizes nothing. Random operation sequences run on both
   over a window of [window] pages; after each operation the two must
   agree on every observation, and [resident_pages] must stay within the
   pages the reference saw touched. *)

module Model = struct
  type page = { bytes : Bytes.t; mutable stored : int; mutable touched : bool }

  type t = { pages : (int, page) Hashtbl.t; mutable epoch : int }

  exception Segv

  let create () = { pages = Hashtbl.create 16; epoch = 0 }

  let pg = Layout.page_size

  let find m a =
    match Hashtbl.find_opt m.pages (a / pg) with
    | Some r -> r
    | None -> raise Segv

  (* An access to [len] bytes at [a] may allocate any mapped page it
     spans, whichever byte faults first. *)
  let touch m a len =
    for p = a / pg to (a + max len 1 - 1) / pg do
      Option.iter (fun r -> r.touched <- true) (Hashtbl.find_opt m.pages p)
    done

  let load m a = Bytes.get (find m a).bytes (a mod pg)

  let store m a c =
    let r = find m a in
    r.stored <- m.epoch;
    Bytes.set r.bytes (a mod pg) c

  let pages_of ~addr ~size = List.init (size / pg) (fun i -> (addr / pg) + i)

  let mmap m ~addr ~size =
    let ps = pages_of ~addr ~size in
    if List.exists (Hashtbl.mem m.pages) ps then invalid_arg "mapped";
    List.iter
      (fun p ->
        Hashtbl.replace m.pages p { bytes = Bytes.make pg '\000'; stored = -1; touched = false })
      ps

  let munmap m ~addr ~size =
    let ps = pages_of ~addr ~size in
    if not (List.for_all (Hashtbl.mem m.pages) ps) then invalid_arg "unmapped";
    List.iter (Hashtbl.remove m.pages) ps

  let scrub m ~addr ~size =
    List.fold_left
      (fun n p ->
        if Hashtbl.mem m.pages p then begin
          Hashtbl.remove m.pages p;
          n + 1
        end
        else n)
      0 (pages_of ~addr ~size)

  (* [munmap], handing back the records in address order. *)
  let take m ~addr ~size =
    let ps = pages_of ~addr ~size in
    if not (List.for_all (Hashtbl.mem m.pages) ps) then invalid_arg "unmapped";
    let recs = List.map (Hashtbl.find m.pages) ps in
    List.iter (Hashtbl.remove m.pages) ps;
    recs

  (* [mmap], then each range's bytes stored from the taken records. A
     page keeps the taken page's allocation only where a range lands. *)
  let adopt m ~addr ~ranges recs =
    let size = pg * List.length recs in
    mmap m ~addr ~size;
    let taken = Array.of_list recs in
    List.iter
      (fun (a, len) ->
        for i = a to a + len - 1 do
          let src = taken.((i - addr) / pg) in
          store m i (Bytes.get src.bytes (i mod pg));
          if src.touched then (find m i).touched <- true
        done)
      ranges
end

(* 48 pages from the middle of a 16-page table chunk: the window spans
   two partial chunks and two whole ones, so runs split, fill and empty
   chunks. *)
let window = 48
let page = Layout.page_size
let window_base = 0x18000

type op =
  | Mmap of int * int (* first page of the window, page count *)
  | Munmap of int * int
  | Scrub of int * int
  | Store_word of int * int (* window offset, value *)
  | Fill of int * int * int (* window offset, length, byte *)
  | Store_sub of int * string (* window offset, bytes *)
  | Load_into of int * int (* window offset, length *)
  | Load_word of int
  | Advance_epoch
  | Page_hash of int (* page of the window *)
  | Raw_write of int * int (* window offset, byte: page_for_write + Bytes.set *)
  | On_b of op (* the same operation on the second space *)
  | Hop of bool * int * int * int list
      (* towards the second space?, first page, page count, cut points:
         [take] the run from one space and [adopt] it in the other with
         the ranges between successive cut points *)
  | Take of int * int (* [take] from the first space, keep the non-zero buffers *)

let rec show_op = function
  | Mmap (p, n) -> Printf.sprintf "mmap %d+%d" p n
  | Munmap (p, n) -> Printf.sprintf "munmap %d+%d" p n
  | Scrub (p, n) -> Printf.sprintf "scrub %d+%d" p n
  | Store_word (o, v) -> Printf.sprintf "store_word %#x %d" o v
  | Fill (o, n, b) -> Printf.sprintf "fill %#x %d %d" o n b
  | Store_sub (o, b) ->
    Printf.sprintf "store_sub %#x %d %s" o (String.length b)
      (if String.for_all (( = ) '\000') b then "zeros" else "data")
  | Load_into (o, n) -> Printf.sprintf "load_into %#x %d" o n
  | Load_word o -> Printf.sprintf "load_word %#x" o
  | Advance_epoch -> "advance_epoch"
  | Page_hash p -> Printf.sprintf "page_hash %d" p
  | Raw_write (o, b) -> Printf.sprintf "raw_write %#x %d" o b
  | On_b op -> "b:" ^ show_op op
  | Hop (ab, p, n, cuts) ->
    Printf.sprintf "hop %s %d+%d [%s]" (if ab then "a->b" else "b->a") p n
      (String.concat "," (List.map string_of_int cuts))
  | Take (p, n) -> Printf.sprintf "take %d+%d" p n

let gen_op =
  let open QCheck2.Gen in
  let page_no = int_range 0 (window - 1) in
  (* offsets cluster at page edges, where words straddle and chunks split *)
  let offset =
    oneof
      [
        int_range 0 ((window * page) - 1);
        map2 (fun p o -> (p * page) + o) page_no (oneofl [ 0; 8; 4088; 4092; 4095 ]);
      ]
  in
  let length = oneof [ int_range 0 64; int_range 0 (3 * page) ] in
  (* runs start anywhere or on a chunk edge (window pages 8, 24, 40) and
     reach 20 pages, a whole chunk and more *)
  let run =
    map2
      (fun p n -> (p, n))
      (oneof [ page_no; oneofl [ 8; 24; 40 ] ])
      (oneof [ int_range 1 3; int_range 1 20; pure 16 ])
  in
  let cut =
    oneof
      [
        int_range 0 (3 * page);
        int_range 0 (20 * page);
        map (fun o -> o * page) (int_range 0 20);
        oneofl [ 8; 4088; 4104 ];
      ]
  in
  let one_side =
  frequency
    [
      (3, map (fun (p, n) -> Mmap (p, n)) run);
      (1, map (fun (p, n) -> Munmap (p, n)) run);
      (1, map (fun (p, n) -> Scrub (p, n)) run);
      (3, map2 (fun o v -> Store_word (o, v)) offset int);
      (2, map3 (fun o n b -> Fill (o, n, b)) offset length (int_range 0 255));
      ( 3,
        map3
          (fun o n zeros ->
            Store_sub (o, if zeros then String.make n '\000' else String.init n (fun i -> Char.chr (1 + (i mod 255)))))
          offset length bool );
      (2, map2 (fun o n -> Load_into (o, n)) offset length);
      (2, map (fun o -> Load_word o) offset);
      (1, pure Advance_epoch);
      (1, map (fun p -> Page_hash p) page_no);
      (2, map2 (fun o b -> Raw_write (o, b)) offset (int_range 0 255));
    ]
  in
  frequency
    [
      (6, one_side);
      (3, map (fun op -> On_b op) one_side);
      ( 2,
        map3
          (fun ab (p, n) cuts -> Hop (ab, p, n, cuts))
          bool run (list_size (int_range 0 6) cut) );
      (1, map (fun (p, n) -> Take (p, n)) run);
    ]

type outcome = Unit | Int of int | Str of string | Segv | Invalid

let outcome f =
  match f () with
  | r -> r
  | exception (As.Segfault _ | Model.Segv) -> Segv
  | exception Invalid_argument _ -> Invalid

let show_outcome = function
  | Unit -> "()"
  | Int n -> string_of_int n
  | Str s -> Printf.sprintf "%d bytes" (String.length s)
  | Segv -> "segfault"
  | Invalid -> "invalid_argument"

let range p n = (window_base + (p * page), n * page)

(* The ranges a [Hop] adopts: successive pairs of its cut points,
   clipped to the run and sorted, so they are ascending and disjoint. *)
let hop_ranges ~addr ~size cuts =
  let rec pairs = function
    | a :: b :: tl -> (addr + a, b - a) :: pairs tl
    | _ -> []
  in
  pairs (List.sort compare (List.map (fun c -> min c size) cuts))

(* The non-zero buffers [Take] keeps, as one observable string. *)
let show_buffers l =
  String.concat "" (List.map (fun (a, b) -> Printf.sprintf "%x:%s" a (Bytes.to_string b)) l)

let rec run_real (sa, sb) op =
  let sp = sa in
  let a o = window_base + o in
  outcome (fun () ->
      match op with
      | On_b op -> run_real (sb, sa) op
      | Hop (ab, p, n, cuts) ->
        let addr, size = range p n in
        let src, dst = if ab then (sa, sb) else (sb, sa) in
        As.adopt dst ~ranges:(hop_ranges ~addr ~size cuts) (As.take src ~addr ~size);
        Unit
      | Take (p, n) ->
        let addr, size = range p n in
        Str (show_buffers (As.nonzero_buffers (As.take sa ~addr ~size)))
      | Mmap (p, n) ->
        let addr, size = range p n in
        As.mmap sp ~addr ~size;
        Unit
      | Munmap (p, n) ->
        let addr, size = range p n in
        As.munmap sp ~addr ~size;
        Unit
      | Scrub (p, n) ->
        let addr, size = range p n in
        Int (As.scrub_range sp ~addr ~size)
      | Store_word (o, v) ->
        As.store_word sp (a o) v;
        Unit
      | Fill (o, n, b) ->
        As.fill sp ~addr:(a o) ~size:n b;
        Unit
      | Store_sub (o, b) ->
        let buf = Bytes.of_string ("pad" ^ b) in
        As.store_sub sp (a o) buf ~pos:3 ~len:(String.length b);
        Unit
      | Load_into (o, n) ->
        let dst = Bytes.make (n + 2) 'x' in
        As.load_into sp ~addr:(a o) ~len:n dst ~pos:1;
        Str (Bytes.to_string dst)
      | Load_word o -> Int (As.load_word sp (a o))
      | Advance_epoch ->
        As.advance_epoch sp;
        Unit
      | Page_hash p -> Int (As.page_hash sp (window_base + (p * page)))
      | Raw_write (o, b) ->
        let bytes = As.page_for_write sp (a o) in
        Bytes.set bytes ((a o) land (page - 1)) (Char.chr b);
        Unit)

let rec run_model (ma, mb) op =
  let m = ma in
  let a o = window_base + o in
  let store_all addr s = String.iteri (fun i c -> Model.store m (addr + i) c) s in
  (match op with
   | Store_word (o, _) | Load_word o -> Model.touch m (a o) 8
   | Fill (o, n, _) | Load_into (o, n) -> Model.touch m (a o) n
   | Store_sub (o, b) -> Model.touch m (a o) (String.length b)
   | Raw_write (o, _) -> Model.touch m (a o) 1
   | Mmap _ | Munmap _ | Scrub _ | Advance_epoch | Page_hash _ | On_b _ | Hop _ | Take _ -> ());
  outcome (fun () ->
      match op with
      | On_b op -> run_model (mb, ma) op
      | Hop (ab, p, n, cuts) ->
        let addr, size = range p n in
        let src, dst = if ab then (ma, mb) else (mb, ma) in
        Model.adopt dst ~addr ~ranges:(hop_ranges ~addr ~size cuts) (Model.take src ~addr ~size);
        Unit
      | Take (p, n) ->
        let addr, size = range p n in
        let recs = Model.take m ~addr ~size in
        Str
          (show_buffers
             (List.concat
                (List.mapi
                   (fun i r ->
                     if Bytes.for_all (( = ) '\000') r.Model.bytes then []
                     else [ (addr + (i * page), r.Model.bytes) ])
                   recs)))
      | Mmap (p, n) ->
        let addr, size = range p n in
        Model.mmap m ~addr ~size;
        Unit
      | Munmap (p, n) ->
        let addr, size = range p n in
        Model.munmap m ~addr ~size;
        Unit
      | Scrub (p, n) ->
        let addr, size = range p n in
        Int (Model.scrub m ~addr ~size)
      | Store_word (o, v) ->
        let w = Bytes.create 8 in
        Bytes.set_int64_le w 0 (Int64.of_int v);
        store_all (a o) (Bytes.to_string w);
        Unit
      | Fill (o, n, b) ->
        store_all (a o) (String.make n (Char.chr b));
        Unit
      | Store_sub (o, b) ->
        store_all (a o) b;
        Unit
      | Load_into (o, n) ->
        Str ("x" ^ String.init n (fun i -> Model.load m (a o + i)) ^ "x")
      | Load_word o ->
        let w = Bytes.init 8 (fun i -> Model.load m (a o + i)) in
        Int (Int64.to_int (Bytes.get_int64_le w 0))
      | Advance_epoch ->
        m.Model.epoch <- m.Model.epoch + 1;
        Unit
      | Page_hash p ->
        let r = Model.find m (window_base + (p * page)) in
        Int (As.page_bytes_hash r.Model.bytes)
      | Raw_write (o, b) ->
        Model.store m (a o) (Char.chr b);
        Unit)

(* Every observation of the page table agrees with the reference. The
   observers used here allocate no page, so untouched pages stay
   untouched across checks. *)
let agree sp m =
  let fail fmt = Printf.ksprintf failwith fmt in
  if As.mapped_pages sp <> Hashtbl.length m.Model.pages then fail "mapped_pages";
  if As.epoch sp <> m.Model.epoch then fail "epoch";
  let current r = m.Model.epoch > 0 && r.Model.stored = m.Model.epoch in
  for p = 0 to window - 1 do
    let addr = window_base + (p * page) in
    match Hashtbl.find_opt m.Model.pages (addr / page) with
    | None ->
      if As.is_mapped sp addr then fail "page %d mapped" p;
      if As.page_dirty sp addr then fail "unmapped page %d dirty" p;
      if As.dirty_in_epoch sp ~addr ~size:page <> 0 then fail "unmapped page %d hot" p
    | Some r ->
      if not (As.is_mapped sp addr) then fail "page %d not mapped" p;
      if As.page_dirty sp addr <> (r.Model.stored >= 0) then fail "page_dirty %d" p;
      if As.page_is_zero sp addr <> Bytes.for_all (( = ) '\000') r.Model.bytes then
        fail "page_is_zero %d" p;
      if As.page_hash sp addr <> As.page_bytes_hash r.Model.bytes then fail "page_hash %d" p;
      if As.dirty_in_epoch sp ~addr ~size:page <> Bool.to_int (current r) then
        fail "dirty_in_epoch %d" p
  done;
  let in_window p = p >= window_base / page && p < (window_base / page) + window in
  let hot =
    Hashtbl.fold (fun p r n -> n + Bool.to_int (in_window p && current r)) m.Model.pages 0
  in
  if As.dirty_in_epoch sp ~addr:window_base ~size:(window * page) <> hot then
    fail "dirty_in_epoch over the window";
  let touched = Hashtbl.fold (fun _ r n -> n + Bool.to_int r.Model.touched) m.Model.pages 0 in
  if As.resident_pages sp > touched then
    fail "resident_pages %d > %d touched" (As.resident_pages sp) touched

let prop_page_table_model =
  QCheck2.Test.make ~name:"page table agrees with the eager reference" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck2.Gen.(list_size (int_range 1 60) gen_op)
    (fun ops ->
      let sa = space () and sb = As.create ~node:1 () in
      let ma = Model.create () and mb = Model.create () in
      List.iteri
        (fun i op ->
          let real = run_real (sa, sb) op and model = run_model (ma, mb) op in
          if real <> model then
            QCheck2.Test.fail_reportf "step %d (%s): got %s, reference %s" i (show_op op)
              (show_outcome real) (show_outcome model);
          List.iter
            (fun (side, sp, m) ->
              try agree sp m
              with Failure what ->
                QCheck2.Test.fail_reportf "step %d (%s): %s disagrees on space %s" i
                  (show_op op) what side)
            [ ("a", sa, ma); ("b", sb, mb) ])
        ops;
      true)

let tests =
  [
    Alcotest.test_case "layout constants (Fig. 5)" `Quick test_layout_constants;
    Alcotest.test_case "layout alignment helpers" `Quick test_layout_alignment;
    Alcotest.test_case "layout membership" `Quick test_layout_membership;
    Alcotest.test_case "mmap/read/write" `Quick test_mmap_read_write;
    Alcotest.test_case "negative word values" `Quick test_negative_word;
    Alcotest.test_case "word across page boundary" `Quick test_cross_page_word;
    Alcotest.test_case "segfault on unmapped access" `Quick test_segfault;
    Alcotest.test_case "mmap overlap rejected" `Quick test_mmap_overlap_rejected;
    Alcotest.test_case "mmap alignment rejected" `Quick test_mmap_alignment_rejected;
    Alcotest.test_case "munmap partial" `Quick test_munmap;
    Alcotest.test_case "untouched pages stay unallocated" `Quick
      test_untouched_pages_unallocated;
    Alcotest.test_case "page runs over untouched pages" `Quick test_untouched_page_runs;
    Alcotest.test_case "remap zero-fills" `Quick test_remap_after_munmap;
    Alcotest.test_case "freed pages come back zeroed" `Quick test_freed_pages_zeroed;
    Alcotest.test_case "bytes roundtrip across pages" `Quick test_bytes_roundtrip;
    Alcotest.test_case "range_mapped" `Quick test_range_mapped;
    Alcotest.test_case "cstring loading" `Quick test_cstring;
    Alcotest.test_case "fill and copy_within" `Quick test_fill_and_copy;
    Alcotest.test_case "blit across spaces" `Quick test_blit_across_spaces;
    Alcotest.test_case "hole in a live chunk" `Quick test_hole_in_live_chunk;
    Alcotest.test_case "nothing maps above the stack top" `Quick test_beyond_the_layout;
    Alcotest.test_case "slot hop and map allocate little" `Quick test_hop_allocation;
    QCheck_alcotest.to_alcotest prop_word_roundtrip;
    QCheck_alcotest.to_alcotest prop_page_table_model;
  ]

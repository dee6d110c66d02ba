module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout

type version = V2 | V3

(* "PM2C" little-endian, packed as a full word. *)
let frame_magic = 0x43324d50

let version_to_int = function V2 -> 2 | V3 -> 3

let version_of_int = function
  | 2 -> Some V2
  | 3 -> Some V3
  | _ -> None

let version_name = function V2 -> "v2" | V3 -> "v3"

(* Trace context rides the frame behind a flag bit in the version word:
   [version lor trace_flag] announces two extra ints (trace id, parent
   span id) between the version and the payload. Untraced frames are
   byte-for-byte what they always were — the flag only ever appears when
   tracing is on, so tracing-off runs stay identical down to the wire
   (and therefore down to virtual transfer times). Decoders mask the
   flag off, so untraced frames parse unchanged. *)
let trace_flag = 8

let header_size ?trace () = if trace = None then 24 else 40

(* Magic, version, the optional trace pair, then the payload length as a
   placeholder word that [close_frame] patches. *)
let open_frame ?trace version p =
  Packet.pack_int p frame_magic;
  (match trace with
   | None -> Packet.pack_int p (version_to_int version)
   | Some (tid, parent) ->
     Packet.pack_int p (version_to_int version lor trace_flag);
     Packet.pack_int p tid;
     Packet.pack_int p parent);
  let at = Packet.packed_size p in
  Packet.pack_int p 0;
  at

let close_frame p at = Packet.patch_int p ~pos:at (Packet.packed_size p - at - 8)

let frame ?trace version payload =
  let len = Bytes.length payload in
  let p = Packet.packer ~size:(header_size ?trace () + len) () in
  let at = open_frame ?trace version p in
  Packet.pack_unprefixed p ~len (fun buf pos -> Bytes.blit payload 0 buf pos len);
  close_frame p at;
  Packet.contents p

(* Typed decode errors: fault-injected corruption must surface as a value
   the protocol layer can act on (nack / rollback), never as an exception
   escaping the codec. *)
type error =
  | Bad_version of int
  | Bad_manifest of string

let error_to_string = function
  | Bad_version v -> Printf.sprintf "unknown frame version %d" v
  | Bad_manifest m -> "bad manifest: " ^ m

(* The payload is the frame's last field, so an unpacker positioned at
   its start has exactly its bounds: the payload is read where it lies. *)
let decode ?pos ?len buf =
  try
    let u = Packet.unpacker ?pos ?len buf in
    if Packet.unpack_int u <> frame_magic then Error (Bad_manifest "no frame magic")
    else
      let v = Packet.unpack_int u in
      match version_of_int (v land lnot trace_flag) with
      | None -> Error (Bad_version v)
      | Some version ->
        let trace =
          if v land trace_flag <> 0 then begin
            let tid = Packet.unpack_int u in
            let parent = Packet.unpack_int u in
            Some (tid, parent)
          end
          else None
        in
        let len = Packet.unpack_int u in
        if len < 0 || len > Packet.remaining u then Error (Bad_manifest "truncated frame")
        else if len < Packet.remaining u then
          Error (Bad_manifest "trailing bytes after frame")
        else Ok (version, trace, u)
  with Invalid_argument e -> Error (Bad_manifest e)

(* {1 Page ranges}

   A slot image is a run-length page manifest followed by the raw bytes
   of its data runs:

     varint nruns
     nruns x [ varint (pages lsl bits) lor tag    tag: 0=Zero 1=Data 2=Cached
               if tag = Cached: pages x 8-byte LE content hash ]
     raw page bytes of every Data run, in manifest order

   The frame version fixes the tag width: v2 has only the Zero and Data
   classes and a 1-bit tag; v3 adds Cached and takes 2 bits. [Cached]
   pages carry only their hash: the destination reconstructs them from
   its retained residual image and must fall back to a full resend
   whenever the lookup fails — the wire format guarantees it can always
   detect that case, never silently keep a stale page. *)

type page_class =
  | Zero
  | Data
  | Cached of int

let tag_bits = function V2 -> 1 | V3 -> 2

let class_tag = function Zero -> 0 | Data -> 1 | Cached _ -> 2

let delta_manifest space ~addr ~size ~known =
  if size mod Layout.page_size <> 0 || size <= 0 then
    invalid_arg "Codec.delta_manifest: size not a positive multiple of the page size";
  let npages = size / Layout.page_size in
  List.init npages (fun i ->
      let a = addr + (i * Layout.page_size) in
      if As.page_is_zero space a then Zero
      else
        match known a with
        | Some h when h = As.page_hash space a -> Cached h
        | _ -> Data)

(* Collapse the per-page classification into runs of one class; Cached runs
   keep their per-page hashes (in address order). *)
let group_runs classes =
  let rec group acc = function
    | [] -> List.rev acc
    | c :: rest ->
      (match acc with
       | (c', n, hs) :: tl when class_tag c = class_tag c' ->
         let hs = match c with Cached h -> h :: hs | _ -> hs in
         group ((c', n + 1, hs) :: tl) rest
       | _ ->
         let hs = match c with Cached h -> [ h ] | _ -> [] in
         group ((c, 1, hs) :: acc) rest)
  in
  List.map (fun (c, n, hs) -> (c, n, List.rev hs)) (group [] classes)

type range_plan = {
  r_version : version;
  r_addr : int;
  r_runs : (page_class * int * int list) list;
}

let plan_range version space ~addr ~size ~known =
  let known = match version with V2 -> (fun _ -> None) | V3 -> known in
  let runs = group_runs (delta_manifest space ~addr ~size ~known) in
  { r_version = version; r_addr = addr; r_runs = runs }

let range_size { r_version; r_runs; _ } =
  let bits = tag_bits r_version in
  List.fold_left
    (fun acc (c, pages, hashes) ->
      acc
      + Packet.varint_size ((pages lsl bits) lor class_tag c)
      + (8 * List.length hashes)
      + match c with Data -> pages * Layout.page_size | Zero | Cached _ -> 0)
    (Packet.varint_size (List.length r_runs))
    r_runs

let write_range p space { r_version; r_addr; r_runs } =
  let bits = tag_bits r_version in
  Packet.pack_varint p (List.length r_runs);
  List.iter
    (fun (c, pages, hashes) ->
      Packet.pack_varint p ((pages lsl bits) lor class_tag c);
      List.iter (Packet.pack_int p) hashes)
    r_runs;
  let pos = ref r_addr in
  let data_pages = ref 0 and zero_pages = ref 0 and cached_pages = ref 0 in
  List.iter
    (fun (c, pages, _) ->
      (match c with
       | Zero -> zero_pages := !zero_pages + pages
       | Cached _ -> cached_pages := !cached_pages + pages
       | Data ->
         data_pages := !data_pages + pages;
         let len = pages * Layout.page_size in
         Packet.pack_unprefixed p ~len (fun buf at ->
             As.load_into space ~addr:!pos ~len buf ~pos:at));
      pos := !pos + (pages * Layout.page_size))
    r_runs;
  (!data_pages, !zero_pages, !cached_pages)

let encode_range p version space ~addr ~size ~known =
  write_range p space (plan_range version space ~addr ~size ~known)

let read_manifest version u =
  let bits = tag_bits version in
  let n = Packet.unpack_varint u in
  (* Every run occupies at least one byte, so a count exceeding the bytes
     left is corruption — reject it before List.init tries to allocate. *)
  if n < 0 || n > Packet.remaining u then
    invalid_arg "Codec: implausible run count";
  List.init n (fun _ ->
      let v = Packet.unpack_varint u in
      if v < 0 then invalid_arg "Codec: negative run word";
      let pages = v lsr bits in
      if pages <= 0 then invalid_arg "Codec: empty manifest run";
      match v land ((1 lsl bits) - 1) with
      | 0 -> (Zero, pages, [])
      | 1 -> (Data, pages, [])
      | 2 ->
        let hashes =
          List.init pages (fun _ ->
              let h = Packet.unpack_int u in
              if h < 0 then invalid_arg "Codec: negative page hash";
              h)
        in
        (Cached 0, pages, hashes)
      | _ -> invalid_arg "Codec: unknown page class")

let decode_range u version space ~addr ~size ~restore =
  let runs = read_manifest version u in
  let total = List.fold_left (fun acc (_, pages, _) -> acc + pages) 0 runs in
  if total * Layout.page_size <> size then
    invalid_arg "Codec: manifest does not cover the declared range";
  let pos = ref addr in
  let data_pages = ref 0 in
  let missing = ref [] in
  List.iter
    (fun (c, pages, hashes) ->
      (match c with
       (* Zero runs need no bytes and no stores: the destination mapped
          the range fresh, so those pages are already zero. *)
       | Zero -> ()
       | Data ->
         data_pages := !data_pages + pages;
         let len = pages * Layout.page_size in
         let src, off = Packet.unpack_take u len in
         As.store_sub space !pos src ~pos:off ~len
       | Cached _ ->
         List.iteri
           (fun i h ->
             let a = !pos + (i * Layout.page_size) in
             if not (restore ~addr:a ~hash:h) then
               missing := (a, h) :: !missing)
           hashes);
      pos := !pos + (pages * Layout.page_size))
    runs;
  (!data_pages, List.rev !missing)

(* A raise-free path through the decoder for protocol code fed with
   attacker-controlled (fault-injected) bytes. *)
let try_decode_range u version space ~addr ~size ~restore =
  try Ok (decode_range u version space ~addr ~size ~restore)
  with Invalid_argument e -> Error (Bad_manifest e)

module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout
module Cm = Pm2_sim.Cost_model
module B = Pm2_heap.Blockfmt
module Sh = Slot_header
module Pk = Pm2_net.Packet
module Interp = Pm2_mvm.Interp
module Obs = Pm2_obs

type packing =
  | Blocks_only
  | Full_slots

type packed = {
  buffer : Bytes.t;
  pack_cost : float;
  slots : int;
}

let packing_to_string = function
  | Blocks_only -> "blocks-only"
  | Full_slots -> "full-slots"

let wire_magic = 0x4d494752 (* "MIGR" *)

(* ===== the descriptor =====

   Both images carry the same fields in the same order: the thread id,
   the context, the chain and stack heads, the next registry key and the
   registry cells. [word] is the integer codec: fixed 8-byte words in a
   {!pack} image ({!Pk.pack_int}), varints in a group image
   ({!Pk.pack_varint}). *)

let write_descriptor word p (th : Thread.t) =
  word p th.id;
  let ctx = th.ctx in
  word p ctx.Interp.pc;
  word p ctx.Interp.sp;
  word p ctx.Interp.fp;
  Array.iter (word p) ctx.Interp.regs;
  word p th.slots_head;
  word p th.stack_slot;
  word p th.next_key;
  let cells = Hashtbl.fold (fun k a acc -> (k, a) :: acc) th.registry [] in
  word p (List.length cells);
  List.iter
    (fun (k, a) ->
      word p k;
      word p a)
    cells

(* Everything after the thread id, which the caller has read to select
   or check [th]. *)
let read_descriptor word u (th : Thread.t) =
  let pc = word u in
  let sp = word u in
  let fp = word u in
  let regs = Array.init Pm2_mvm.Isa.num_regs (fun _ -> word u) in
  th.ctx <- { Interp.regs; pc; sp; fp };
  th.slots_head <- word u;
  th.stack_slot <- word u;
  th.next_key <- word u;
  Hashtbl.reset th.registry;
  let n = word u in
  if n < 0 then invalid_arg "Migration: negative registry cell count";
  for _ = 1 to n do
    let k = word u in
    let a = word u in
    Hashtbl.replace th.registry k a
  done

(* Live blocks of a data slot, in address order: (offset, size) pairs. *)
let used_blocks space slot =
  B.fold space ~lo:(Sh.blocks_base slot) ~hi:(slot + Sh.read_size space slot)
    (fun acc b ~size ~used -> if used then (b - slot, size) :: acc else acc)
    []
  |> List.rev

(* Pack a length-prefixed range of simulated memory, copying page runs
   straight into the wire buffer (same wire format as [pack_bytes]). *)
let pack_mem space p addr len =
  Pk.pack_raw p ~len (fun buf pos -> As.load_into space ~addr ~len buf ~pos)

(* What one slot puts on the wire, read from the slot chain before any
   byte is packed, so the image can be sized up front. *)
type slot_body =
  | Whole (* Full_slots: the slot verbatim *)
  | Stack_tail of int (* Blocks_only stack slot: the live region from sp *)
  | Blocks of (int * int) list (* Blocks_only data slot: used (offset, size) *)

type slot_plan = {
  slot : int;
  size : int;
  body : slot_body;
}

let plan_slot space packing (th : Thread.t) slot =
  let size = Sh.read_size space slot in
  let body =
    match packing with
    | Full_slots -> Whole
    | Blocks_only ->
      (match Sh.read_kind space slot with
       | Sh.Stack ->
         (* Only the live region [sp, stack top) is meaningful. *)
         let sp = th.ctx.Interp.sp in
         if sp < slot + Sh.size_of_header || sp > slot + size then
           failwith (Printf.sprintf "Migration: stack pointer 0x%x outside stack slot" sp);
         Stack_tail sp
       | Sh.Data -> Blocks (used_blocks space slot))
  in
  { slot; size; body }

let plan space packing (th : Thread.t) =
  List.map (plan_slot space packing th) (Sh.chain_to_list space ~head:th.slots_head)

(* Wire sizes, word by word as [pack] and [pack_slot] emit them: the
   magic word and the descriptor in 8-byte words. *)
let descriptor_size (th : Thread.t) =
  (8 * (9 + Array.length th.ctx.Interp.regs)) + (16 * Hashtbl.length th.registry)

let slot_size { slot; size; body } =
  16
  +
  match body with
  | Whole -> 8 + size
  | Stack_tail sp -> 8 + Sh.size_of_header + 24 + (slot + size - sp)
  | Blocks blocks ->
    List.fold_left
      (fun acc (_, bsize) -> acc + 16 + bsize)
      (8 + Sh.size_of_header + 16)
      blocks

let planned_size th plans =
  List.fold_left (fun acc plan -> acc + slot_size plan) (descriptor_size th + 8) plans

let image_size ~space ~packing th = planned_size th (plan space packing th)

let pack_slot space p { slot; size; body } =
  Pk.pack_int p slot;
  Pk.pack_int p size;
  match body with
  | Whole -> pack_mem space p slot size
  | Stack_tail sp ->
    (* Header verbatim (carries the chain links and kind). *)
    pack_mem space p slot Sh.size_of_header;
    Pk.pack_int p 1; (* tag: stack payload *)
    Pk.pack_int p (sp - slot);
    pack_mem space p sp (slot + size - sp)
  | Blocks blocks ->
    pack_mem space p slot Sh.size_of_header;
    Pk.pack_int p 0; (* tag: block list *)
    Pk.pack_list p
      (fun (off, bsize) ->
         Pk.pack_int p off;
         pack_mem space p (slot + off) bsize)
      blocks

(* The used blocks of a blocks-only slot plan, as (address, size). *)
let used_at slot blocks = List.map (fun (off, bsize) -> (slot + off, bsize)) blocks

(* The free blocks are the gaps between the [used] ones. *)
let rebuild_free_list space ~slot ~size used =
  Sh.write_free_head space slot
    (B.rebuild space ~lo:(Sh.blocks_base slot) ~hi:(slot + size) used)

let unpack_slot space u =
  let slot = Pk.unpack_int u in
  let size = Pk.unpack_int u in
  As.mmap space ~addr:slot ~size;
  let data, pos, len = Pk.unpack_view u in
  if len = size then begin
    (* Full_slots image. *)
    As.store_sub space slot data ~pos ~len;
    (slot, size)
  end
  else begin
    As.store_sub space slot data ~pos ~len;
    (match Pk.unpack_int u with
     | 1 ->
       let sp_off = Pk.unpack_int u in
       let data, pos, len = Pk.unpack_view u in
       As.store_sub space (slot + sp_off) data ~pos ~len
     | 0 ->
       rebuild_free_list space ~slot ~size
         (Pk.unpack_list u (fun () ->
              let b = slot + Pk.unpack_int u in
              let data, pos, len = Pk.unpack_view u in
              As.store_sub space b data ~pos ~len;
              (b, len)))
     | tag -> invalid_arg (Printf.sprintf "Migration.unpack: bad slot tag %d" tag));
    (slot, size)
  end

(* ===== the cost model =====

   One formula per side, for every way a thread leaves or arrives: the
   oracle, the direct hop, the group pipeline and checkpoints. [sizes]
   are the slots' sizes in chain order, member after member; the folds
   add them one by one from [0.], so the charge does not depend on which
   path built the list. *)

(* The source side: one freeze per member, the copy-out of [bytes], and
   unmapping [sizes] (none for a checkpoint, which unmaps nothing). *)
let pack_cost cost ~members ~bytes sizes =
  let munmap_total =
    List.fold_left
      (fun acc size -> acc +. Cm.munmap_cost cost ~pages:(size / Layout.page_size))
      0. sizes
  in
  (float_of_int members *. cost.Cm.context_switch)
  +. Cm.memcpy_cost cost ~bytes +. munmap_total

(* The destination side: mapping [sizes] (without the zero-fill term:
   every useful page is populated by the copy-in, which is charged as
   memcpy), the copy-in of [bytes], and one resume per member. *)
let unpack_cost cost ~members ~bytes sizes =
  let mmap_total =
    List.fold_left
      (fun acc size ->
        acc +. cost.Cm.mmap_base
        +. (float_of_int (size / Layout.page_size) *. cost.Cm.mmap_per_page))
      0. sizes
  in
  mmap_total +. Cm.memcpy_cost cost ~bytes +. (float_of_int members *. cost.Cm.context_switch)

let plan_sizes plans = List.map (fun { size; _ } -> size) plans

let emit_slot obs ~node event =
  if Obs.Collector.enabled obs then Obs.Collector.emit obs ~node event

let pack ?(obs = Obs.Collector.null) ?(node = 0) ~cost ~space ~packing (th : Thread.t) =
  let plans = plan space packing th in
  let p = Pk.packer ~size:(planned_size th plans) () in
  Pk.pack_int p wire_magic;
  write_descriptor Pk.pack_int p th;
  Pk.pack_int p (List.length plans);
  List.iter
    (fun plan ->
       let before = Pk.packed_size p in
       pack_slot space p plan;
       emit_slot obs ~node
         (Obs.Event.Pack_slot
            { tid = th.Thread.id; slot = plan.slot; bytes = Pk.packed_size p - before }))
    plans;
  (* Free the source memory: the slots stay owned by the thread (bitmaps
     untouched), but their pages leave this node. *)
  List.iter (fun { slot; size; _ } -> As.munmap space ~addr:slot ~size) plans;
  let buffer = Pk.contents p in
  {
    buffer;
    pack_cost =
      pack_cost cost ~members:1 ~bytes:(Bytes.length buffer) (plan_sizes plans);
    slots = List.length plans;
  }

let unpack ?(obs = Obs.Collector.null) ?(node = 0) ~cost ~space (th : Thread.t) buffer =
  let u = Pk.unpacker buffer in
  if Pk.unpack_int u <> wire_magic then invalid_arg "Migration.unpack: bad magic";
  if Pk.unpack_int u <> th.Thread.id then invalid_arg "Migration.unpack: thread id mismatch";
  read_descriptor Pk.unpack_int u th;
  let nslots = Pk.unpack_int u in
  let sizes = ref [] in
  for _ = 1 to nslots do
    let before = Pk.remaining u in
    let slot, size = unpack_slot space u in
    emit_slot obs ~node
      (Obs.Event.Unpack_slot { tid = th.Thread.id; slot; bytes = before - Pk.remaining u });
    sizes := size :: !sizes
  done;
  if Pk.remaining u <> 0 then invalid_arg "Migration.unpack: trailing bytes";
  unpack_cost cost ~members:1 ~bytes:(Bytes.length buffer) (List.rev !sizes)

(* ===== the direct hop: page ownership =====

   What [pack] would put on the wire, only the pages move: each slot's
   page records leave the source space and are adopted at the same
   addresses in the destination, with the bytes blocks-only packing
   would not ship cleared. Sizes, costs and events are the buffered
   pair's, computed from the plan. *)

type moved_pages = (slot_plan * As.pages) list

type moved = {
  m_bytes : int;
  m_pack_cost : float;
  m_slots : int;
  m_pages : moved_pages;
}

(* The [(addr, len)] ranges of a slot that [pack_slot] ships, in address
   order. *)
let shipped { slot; size; body } =
  match body with
  | Whole -> [ (slot, size) ]
  | Stack_tail sp -> [ (slot, Sh.size_of_header); (sp, slot + size - sp) ]
  | Blocks blocks -> (slot, Sh.size_of_header) :: used_at slot blocks

let move_out ?(obs = Obs.Collector.null) ?(node = 0) ~cost ~space ~packing (th : Thread.t) =
  let plans = plan space packing th in
  let bytes = planned_size th plans in
  List.iter
    (fun plan ->
      emit_slot obs ~node
        (Obs.Event.Pack_slot { tid = th.Thread.id; slot = plan.slot; bytes = slot_size plan }))
    plans;
  let m_pages =
    List.map (fun plan -> (plan, As.take space ~addr:plan.slot ~size:plan.size)) plans
  in
  {
    m_bytes = bytes;
    m_pack_cost = pack_cost cost ~members:1 ~bytes (plan_sizes plans);
    m_slots = List.length plans;
    m_pages;
  }

let move_in ?(obs = Obs.Collector.null) ?(node = 0) ~cost ~space (th : Thread.t) m =
  List.iter
    (fun (({ slot; size; body } as plan), pages) ->
      As.adopt space ~ranges:(shipped plan) pages;
      (match body with
       | Blocks blocks -> rebuild_free_list space ~slot ~size (used_at slot blocks)
       | Whole | Stack_tail _ -> ());
      emit_slot obs ~node
        (Obs.Event.Unpack_slot { tid = th.Thread.id; slot; bytes = slot_size plan }))
    m.m_pages;
  unpack_cost cost ~members:1 ~bytes:m.m_bytes (List.map (fun (plan, _) -> plan.size) m.m_pages)

let slot_ranges space (th : Thread.t) =
  List.map
    (fun slot -> (slot, Sh.read_size space slot))
    (Sh.chain_to_list space ~head:th.slots_head)

let group_ranges space threads = List.concat_map (slot_ranges space) threads

let range_sizes ranges = List.map snd ranges

(* ===== group migration: v2/v3 codec =====

   A group of threads moving between the same pair of nodes travels as
   ONE wire image inside a {!Pm2_net.Codec} V2 or V3 frame. Descriptor fields
   are varints, and each slot ships as a page manifest plus only its
   non-zero pages ({!Pm2_net.Codec.encode_range}): the destination mmaps
   the full range (zero-filled for free) and stores just the data pages.
   Because the pages carry the slot headers and block tags verbatim,
   no free-list reconstruction is needed on arrival. *)

module Codec = Pm2_net.Codec

type group_packed = {
  g_buffer : Bytes.t;
  g_pack_cost : float;
  g_slots : int;
  g_data_pages : int;
  g_zero_pages : int;
  g_cached_pages : int;
  g_retained : (int * (int * Bytes.t) list) list;
}

let pack_group ?(obs = Obs.Collector.null) ?(node = 0) ?(version = Codec.V2)
    ?(known = fun ~tid:_ _ -> None) ?trace ?(unmap = true) ~cost ~space ~gid
    threads =
  (* Classify every page first: the image's exact size is then known,
     so the frame header and the payload go straight into one buffer of
     that size, which becomes the frame without a copy. *)
  let members =
    List.map
      (fun (th : Thread.t) ->
        let ranges = slot_ranges space th in
        let plans =
          List.map
            (fun (slot, size) ->
              ( slot,
                size,
                Codec.plan_range version space ~addr:slot ~size ~known:(known ~tid:th.Thread.id)
              ))
            ranges
        in
        (th, ranges, plans))
      threads
  in
  let varint = Pk.varint_size in
  let payload =
    List.fold_left
      (fun acc (th, _, plans) ->
        let desc = ref 0 in
        write_descriptor (fun n v -> n := !n + varint v) desc th;
        List.fold_left
          (fun acc (slot, size, plan) ->
            acc + varint slot + varint size + Codec.range_size plan)
          (acc + !desc + varint (List.length plans))
          plans)
      (varint gid + varint (List.length threads))
      members
  in
  let p = Pk.packer ~size:(Codec.header_size ?trace () + payload) () in
  let at = Codec.open_frame ?trace version p in
  Pk.pack_varint p gid;
  Pk.pack_varint p (List.length threads);
  let nslots = ref 0 and data_pages = ref 0 and zero_pages = ref 0 in
  let cached_pages = ref 0 in
  List.iter
    (fun ((th : Thread.t), _, plans) ->
      write_descriptor Pk.pack_varint p th;
      Pk.pack_varint p (List.length plans);
      let m_data = ref 0 and m_cached = ref 0 in
      List.iter
        (fun (slot, size, plan) ->
          let before = Pk.packed_size p in
          Pk.pack_varint p slot;
          Pk.pack_varint p size;
          let d, z, c = Codec.write_range p space plan in
          data_pages := !data_pages + d;
          zero_pages := !zero_pages + z;
          cached_pages := !cached_pages + c;
          m_data := !m_data + d;
          m_cached := !m_cached + c;
          nslots := !nslots + 1;
          emit_slot obs ~node
            (Obs.Event.Pack_slot
               { tid = th.Thread.id; slot; bytes = Pk.packed_size p - before }))
        plans;
      if version = Codec.V3 && Obs.Collector.enabled obs then begin
        if !m_cached > 0 then
          Obs.Collector.emit obs ~node
            (Obs.Event.Delta_hit { tid = th.Thread.id; pages = !m_cached });
        if !m_data > 0 then
          Obs.Collector.emit obs ~node
            (Obs.Event.Delta_miss { tid = th.Thread.id; pages = !m_data })
      end)
    members;
  Codec.close_frame p at;
  (* Free the source memory only after every member is packed: the group
     image either exists in full or the source is untouched. A v3 sender
     keeps every non-zero page it unmaps — taken, not copied: the pinned
     residual image backs both the rollback path and the full-resend
     fallback, and becomes the migrate-out residual once the transfer
     settles. A checkpoint passes [~unmap:false]: the same wire image is
     produced, the threads keep running in place, and nothing is kept. *)
  let v3 = version = Codec.V3 in
  let release (addr, size) =
    if v3 then As.nonzero_buffers (As.take space ~addr ~size)
    else begin
      As.munmap space ~addr ~size;
      []
    end
  in
  let kept =
    if unmap then
      List.map
        (fun ((th : Thread.t), ranges, _) -> (th.Thread.id, List.concat_map release ranges))
        members
    else []
  in
  let unmapped =
    if unmap then List.concat_map (fun (_, r, _) -> range_sizes r) members else []
  in
  let buffer = Pk.contents p in
  {
    g_buffer = buffer;
    g_pack_cost =
      pack_cost cost ~members:(List.length threads) ~bytes:(Bytes.length buffer) unmapped;
    g_slots = !nslots;
    g_data_pages = !data_pages;
    g_zero_pages = !zero_pages;
    g_cached_pages = !cached_pages;
    g_retained = (if v3 then kept else []);
  }

type group_unpacked = {
  u_gid : int;
  u_tids : int list;
  u_cost : float;
  u_missing : (int * int * int) list;
      (* (tid, page addr, hash): Cached pages the restore callback could
         not reconstruct — to be fetched via the RDLT/RFUL fallback. *)
  u_ranges : (int * (int * int) list) list;
      (* per member, its slot (addr, size) ranges as decoded *)
  u_trace : (int * int) option;
      (* the frame's causal-trace context (trace id, parent span), for
         destination-side span parenting *)
}

let unpack_group ?(obs = Obs.Collector.null) ?(node = 0)
    ?(restore = fun ~tid:_ ~addr:_ ~hash:_ -> false) ?pos ?len ~cost ~space ~lookup buffer =
  match Codec.decode ?pos ?len buffer with
  | Error e -> invalid_arg ("Migration.unpack_group: " ^ Codec.error_to_string e)
  | Ok (version, u_trace, u) ->
    let gid = Pk.unpack_varint u in
    let members = Pk.unpack_varint u in
    if members <= 0 then invalid_arg "Migration.unpack_group: empty group";
    let tids = ref [] in
    let missing = ref [] in
    let ranges = ref [] in
    for _ = 1 to members do
      let tid = Pk.unpack_varint u in
      read_descriptor Pk.unpack_varint u (lookup tid);
      tids := tid :: !tids;
      let nslots = Pk.unpack_varint u in
      let member_ranges = ref [] in
      for _ = 1 to nslots do
        let before = Pk.remaining u in
        let slot = Pk.unpack_varint u in
        let size = Pk.unpack_varint u in
        As.mmap space ~addr:slot ~size;
        let _, miss =
          Codec.decode_range u version space ~addr:slot ~size ~restore:(restore ~tid)
        in
        List.iter (fun (a, h) -> missing := (tid, a, h) :: !missing) miss;
        member_ranges := (slot, size) :: !member_ranges;
        emit_slot obs ~node
          (Obs.Event.Unpack_slot { tid; slot; bytes = before - Pk.remaining u })
      done;
      ranges := (tid, List.rev !member_ranges) :: !ranges
    done;
    if Pk.remaining u <> 0 then invalid_arg "Migration.unpack_group: trailing bytes";
    let u_ranges = List.rev !ranges in
    let bytes = Option.value len ~default:(Bytes.length buffer - Option.value pos ~default:0) in
    {
      u_gid = gid;
      u_tids = List.rev !tids;
      u_cost =
        unpack_cost cost ~members ~bytes (List.concat_map (fun (_, r) -> range_sizes r) u_ranges);
      u_missing = List.rev !missing;
      u_ranges;
      u_trace;
    }

(* ===== control messages =====

   The group pipeline's handshake (probe, verdict), its transfer, and the
   delta fallback share one codec: 8-byte words, a magic word and the
   group id first. A probe may end with a causal-trace context as two
   words, exactly as the reliable layer's fragments do: absent when
   tracing is off, so untraced probes keep their historic bytes, and
   detected by the 16 bytes left after the ranges. The transfer wraps the
   image with its own checksum, so a corrupted buffer is detected
   end-to-end and nacked.

   When a v3 destination cannot restore a [Cached] page (evicted image,
   or hash mismatch after corruption) it asks the source for the raw
   bytes (RDLT). The source serves them (RFUL) from the pinned residual
   image it kept at pack time, so the answer is always available while
   the transfer is in flight. *)

type msg =
  | Probe of { gid : int; ranges : (int * int) list; trace : (int * int) option }
  | Verdict of { gid : int; ok : bool; reason : string }
  | Transfer of { gid : int; ranges : (int * int) list; image : Bytes.t * int * int }
  | Delta_request of { gid : int; pages : (int * int * int) list }
  | Delta_full of { gid : int; pages : (int * int * Bytes.t) list }

let probe_magic = 0x4750524f (* "GPRO" *)

let verdict_magic = 0x47564552 (* "GVER" *)

let transfer_magic = 0x47584652 (* "GXFR" *)

let delta_request_magic = 0x52444c54 (* "RDLT" *)

let delta_full_magic = 0x5246554c (* "RFUL" *)

(* What a buffer that does not decode is called, after the kind its
   magic announces. *)
let malformed magic =
  if magic = probe_magic then "malformed probe"
  else if magic = verdict_magic then "malformed verdict"
  else if magic = transfer_magic then "malformed group transfer message"
  else if magic = delta_request_magic then "malformed delta request"
  else if magic = delta_full_magic then "malformed delta full message"
  else "malformed message"

let encode m =
  let ranges_size ranges = 8 + (16 * List.length ranges) in
  let magic, gid, size =
    match m with
    | Probe { gid; ranges; trace } ->
      (probe_magic, gid, 16 + ranges_size ranges + if trace = None then 0 else 16)
    | Verdict { gid; reason; _ } -> (verdict_magic, gid, 32 + String.length reason)
    | Transfer { gid; ranges; image = _, _, len } ->
      (transfer_magic, gid, 32 + ranges_size ranges + len)
    | Delta_request { gid; pages } -> (delta_request_magic, gid, 24 + (24 * List.length pages))
    | Delta_full { gid; pages } ->
      ( delta_full_magic,
        gid,
        List.fold_left (fun acc (_, _, page) -> acc + 24 + Bytes.length page) 24 pages )
  in
  let p = Pk.packer ~size () in
  let word = Pk.pack_int p in
  let pack_ranges =
    Pk.pack_list p (fun (a, s) ->
        word a;
        word s)
  in
  word magic;
  word gid;
  (match m with
   | Probe { ranges; trace; _ } ->
     pack_ranges ranges;
     Option.iter
       (fun (tid, parent) ->
         word tid;
         word parent)
       trace
   | Verdict { ok; reason; _ } ->
     word (if ok then 1 else 0);
     Pk.pack_string p reason
   | Transfer { ranges; image = data, pos, len; _ } ->
     word (Pk.checksum data ~pos ~len);
     pack_ranges ranges;
     Pk.pack_raw p ~len (fun buf at -> Bytes.blit data pos buf at len)
   | Delta_request { pages; _ } ->
     Pk.pack_list p
       (fun (tid, addr, hash) ->
         word tid;
         word addr;
         word hash)
       pages
   | Delta_full { pages; _ } ->
     Pk.pack_list p
       (fun (tid, addr, page) ->
         word tid;
         word addr;
         Pk.pack_bytes p page)
       pages);
  Pk.contents p

let decode b =
  let u = Pk.unpacker b in
  let word () = Pk.unpack_int u in
  let unpack_ranges () =
    Pk.unpack_list u (fun () ->
        let a = word () in
        (a, word ()))
  in
  let magic = ref 0 in
  match
    magic := word ();
    let gid = word () in
    let m =
      if !magic = probe_magic then begin
        let ranges = unpack_ranges () in
        let trace =
          if Pk.remaining u = 16 then begin
            let tid = word () in
            Some (tid, word ())
          end
          else None
        in
        Ok (Probe { gid; ranges; trace })
      end
      else if !magic = verdict_magic then begin
        let ok = word () <> 0 in
        Ok (Verdict { gid; ok; reason = Pk.unpack_string u })
      end
      else if !magic = transfer_magic then begin
        let sum = word () in
        let ranges = unpack_ranges () in
        let ((data, pos, len) as image) = Pk.unpack_view u in
        (* Checked in place, and only on an otherwise well-formed message. *)
        if Pk.remaining u = 0 && Pk.checksum data ~pos ~len <> sum then
          Error "group wire buffer checksum mismatch"
        else Ok (Transfer { gid; ranges; image })
      end
      else if !magic = delta_request_magic then begin
        let pages =
          Pk.unpack_list u (fun () ->
              let tid = word () in
              let addr = word () in
              (tid, addr, word ()))
        in
        Ok (Delta_request { gid; pages })
      end
      else if !magic = delta_full_magic then begin
        let pages =
          Pk.unpack_list u (fun () ->
              let tid = word () in
              let addr = word () in
              let page = Pk.unpack_bytes u in
              if Bytes.length page <> Layout.page_size then
                invalid_arg "Migration.decode: delta full page is not page-sized";
              (tid, addr, page))
        in
        Ok (Delta_full { gid; pages })
      end
      else invalid_arg "Migration.decode: unknown magic"
    in
    if Pk.remaining u <> 0 then invalid_arg "Migration.decode: trailing bytes";
    m
  with
  | exception Invalid_argument _ -> Error (malformed !magic)
  | m -> m

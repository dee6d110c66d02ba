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

let pack_descriptor p (th : Thread.t) =
  Pk.pack_int p wire_magic;
  Pk.pack_int p th.id;
  let ctx = th.ctx in
  Pk.pack_int p ctx.Interp.pc;
  Pk.pack_int p ctx.Interp.sp;
  Pk.pack_int p ctx.Interp.fp;
  Array.iter (Pk.pack_int p) ctx.Interp.regs;
  Pk.pack_int p th.slots_head;
  Pk.pack_int p th.stack_slot;
  Pk.pack_int p th.next_key;
  let cells = Hashtbl.fold (fun k a acc -> (k, a) :: acc) th.registry [] in
  Pk.pack_list p (fun (k, a) -> Pk.pack_int p k; Pk.pack_int p a) cells

let unpack_descriptor u (th : Thread.t) =
  if Pk.unpack_int u <> wire_magic then invalid_arg "Migration.unpack: bad magic";
  let id = Pk.unpack_int u in
  if id <> th.Thread.id then invalid_arg "Migration.unpack: thread id mismatch";
  let pc = Pk.unpack_int u in
  let sp = Pk.unpack_int u in
  let fp = Pk.unpack_int u in
  let regs = Array.init Pm2_mvm.Isa.num_regs (fun _ -> Pk.unpack_int u) in
  th.ctx <- { Interp.regs; pc; sp; fp };
  th.slots_head <- Pk.unpack_int u;
  th.stack_slot <- Pk.unpack_int u;
  th.next_key <- Pk.unpack_int u;
  Hashtbl.reset th.registry;
  let cells = Pk.unpack_list u (fun () ->
      let k = Pk.unpack_int u in
      let a = Pk.unpack_int u in
      (k, a))
  in
  List.iter (fun (k, a) -> Hashtbl.replace th.registry k a) cells

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

(* Wire sizes, word by word as [pack_descriptor] and [pack_slot] emit
   them. *)
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

(* The source side's cost of a hop: freeze, copy-out of [bytes] and
   unmapping every slot, summed in slot order. *)
let pack_cost_of cost plans ~bytes =
  let munmap_total =
    List.fold_left
      (fun acc { size; _ } -> acc +. Cm.munmap_cost cost ~pages:(size / Layout.page_size))
      0. plans
  in
  cost.Cm.context_switch (* freeze *) +. Cm.memcpy_cost cost ~bytes +. munmap_total

(* The destination side's: mapping every slot (without the zero-fill
   term: every useful page is populated by the copy-in, which is charged
   as memcpy), copy-in of [bytes], resume. *)
let unpack_cost_of cost ranges ~bytes =
  let mmap_total =
    List.fold_left
      (fun acc (_, size) ->
        acc +. cost.Cm.mmap_base
        +. (float_of_int (size / Layout.page_size) *. cost.Cm.mmap_per_page))
      0. ranges
  in
  mmap_total +. Cm.memcpy_cost cost ~bytes +. cost.Cm.context_switch (* resume *)

let emit_slot obs ~node event =
  if Obs.Collector.enabled obs then Obs.Collector.emit obs ~node event

let pack ?(obs = Obs.Collector.null) ?(node = 0) ~cost ~space ~packing (th : Thread.t) =
  let plans = plan space packing th in
  let p = Pk.packer ~size:(planned_size th plans) () in
  pack_descriptor p th;
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
    pack_cost = pack_cost_of cost plans ~bytes:(Bytes.length buffer);
    slots = List.length plans;
  }

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
    m_pack_cost = pack_cost_of cost plans ~bytes;
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
  unpack_cost_of cost
    (List.map (fun ({ slot; size; _ }, _) -> (slot, size)) m.m_pages)
    ~bytes:m.m_bytes

(* ===== slot ranges and the transfer envelope =====

   The group pipeline's probe, verdict and transfer messages carry slot
   ranges as [(base, size)] pairs; the transfer wraps the image with its
   own checksum, so a corrupted buffer is detected end-to-end and
   nacked. *)

let slot_ranges space (th : Thread.t) =
  List.map
    (fun slot -> (slot, Sh.read_size space slot))
    (Sh.chain_to_list space ~head:th.slots_head)

let pack_ranges p ranges =
  Pk.pack_list p
    (fun (a, s) ->
      Pk.pack_int p a;
      Pk.pack_int p s)
    ranges

let unpack_ranges u =
  Pk.unpack_list u (fun () ->
      let a = Pk.unpack_int u in
      let s = Pk.unpack_int u in
      (a, s))

(* Exact size of a transfer message: three words, the ranges and the
   length-prefixed image. *)
let transfer_size ~ranges ~buffer = 40 + (16 * List.length ranges) + Bytes.length buffer

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

let pack_descriptor_v2 p (th : Thread.t) =
  Pk.pack_varint p th.id;
  let ctx = th.ctx in
  Pk.pack_varint p ctx.Interp.pc;
  Pk.pack_varint p ctx.Interp.sp;
  Pk.pack_varint p ctx.Interp.fp;
  Array.iter (Pk.pack_varint p) ctx.Interp.regs;
  Pk.pack_varint p th.slots_head;
  Pk.pack_varint p th.stack_slot;
  Pk.pack_varint p th.next_key;
  let cells = Hashtbl.fold (fun k a acc -> (k, a) :: acc) th.registry [] in
  Pk.pack_varint p (List.length cells);
  List.iter
    (fun (k, a) ->
      Pk.pack_varint p k;
      Pk.pack_varint p a)
    cells

(* The thread id has already been consumed (it selects [th]). *)
let unpack_descriptor_v2 u (th : Thread.t) =
  let pc = Pk.unpack_varint u in
  let sp = Pk.unpack_varint u in
  let fp = Pk.unpack_varint u in
  let regs = Array.init Pm2_mvm.Isa.num_regs (fun _ -> Pk.unpack_varint u) in
  th.ctx <- { Interp.regs; pc; sp; fp };
  th.slots_head <- Pk.unpack_varint u;
  th.stack_slot <- Pk.unpack_varint u;
  th.next_key <- Pk.unpack_varint u;
  Hashtbl.reset th.registry;
  let n = Pk.unpack_varint u in
  for _ = 1 to n do
    let k = Pk.unpack_varint u in
    let a = Pk.unpack_varint u in
    Hashtbl.replace th.registry k a
  done

let pack_group ?(obs = Obs.Collector.null) ?(node = 0) ?(version = Codec.V2)
    ?(known = fun ~tid:_ _ -> None) ?trace ?(unmap = true) ~cost ~space ~gid
    threads =
  let p = Pk.packer () in
  Pk.pack_varint p gid;
  Pk.pack_varint p (List.length threads);
  let nslots = ref 0 and data_pages = ref 0 and zero_pages = ref 0 in
  let cached_pages = ref 0 in
  let all_slots =
    List.map
      (fun (th : Thread.t) -> (th, Sh.chain_to_list space ~head:th.slots_head))
      threads
  in
  List.iter
    (fun ((th : Thread.t), slots) ->
      pack_descriptor_v2 p th;
      Pk.pack_varint p (List.length slots);
      let m_data = ref 0 and m_cached = ref 0 in
      List.iter
        (fun slot ->
          let size = Sh.read_size space slot in
          let before = Pk.packed_size p in
          Pk.pack_varint p slot;
          Pk.pack_varint p size;
          let d, z, c =
            Codec.encode_range p version space ~addr:slot ~size
              ~known:(known ~tid:th.Thread.id)
          in
          data_pages := !data_pages + d;
          zero_pages := !zero_pages + z;
          cached_pages := !cached_pages + c;
          m_data := !m_data + d;
          m_cached := !m_cached + c;
          nslots := !nslots + 1;
          if Obs.Collector.enabled obs then
            Obs.Collector.emit obs ~node
              (Obs.Event.Pack_slot
                 { tid = th.Thread.id; slot; bytes = Pk.packed_size p - before }))
        slots;
      if version = Codec.V3 && Obs.Collector.enabled obs then begin
        if !m_cached > 0 then
          Obs.Collector.emit obs ~node
            (Obs.Event.Delta_hit { tid = th.Thread.id; pages = !m_cached });
        if !m_data > 0 then
          Obs.Collector.emit obs ~node
            (Obs.Event.Delta_miss { tid = th.Thread.id; pages = !m_data })
      end)
    all_slots;
  (* Free the source memory only after every member is packed: the group
     image either exists in full or the source is untouched. A v3 sender
     keeps every non-zero page: the pinned residual image backs both the
     rollback path and the full-resend fallback, and becomes the
     migrate-out residual once the transfer settles. Pages about to be
     unmapped are taken, not copied. A checkpoint passes [~unmap:false]:
     the same wire image is produced, the threads keep running in place,
     and the kept pages are copies. *)
  let retain = version = Codec.V3 in
  let munmap_total = ref 0. in
  let slot_pages slot =
    let size = Sh.read_size space slot in
    if unmap then begin
      munmap_total := !munmap_total +. Cm.munmap_cost cost ~pages:(size / Layout.page_size);
      if retain then As.nonzero_buffers (As.take space ~addr:slot ~size)
      else (As.munmap space ~addr:slot ~size; [])
    end
    else if retain then
      List.filter_map
        (fun i ->
          let a = slot + (i * Layout.page_size) in
          if As.page_is_zero space a then None
          else Some (a, As.load_bytes space a Layout.page_size))
        (List.init (size / Layout.page_size) Fun.id)
    else []
  in
  let kept =
    List.map
      (fun ((th : Thread.t), slots) -> (th.Thread.id, List.concat_map slot_pages slots))
      all_slots
  in
  let retained = if retain then kept else [] in
  let buffer = Codec.frame ?trace version (Pk.contents p) in
  let pack_cost =
    (float_of_int (List.length threads) *. cost.Cm.context_switch)
    +. Cm.memcpy_cost cost ~bytes:(Bytes.length buffer)
    +. !munmap_total
  in
  {
    g_buffer = buffer;
    g_pack_cost = pack_cost;
    g_slots = !nslots;
    g_data_pages = !data_pages;
    g_zero_pages = !zero_pages;
    g_cached_pages = !cached_pages;
    g_retained = retained;
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
    let mmap_total = ref 0. in
    let tids = ref [] in
    let missing = ref [] in
    let ranges = ref [] in
    for _ = 1 to members do
      let tid = Pk.unpack_varint u in
      let th : Thread.t = lookup tid in
      unpack_descriptor_v2 u th;
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
        if Obs.Collector.enabled obs then
          Obs.Collector.emit obs ~node
            (Obs.Event.Unpack_slot { tid; slot; bytes = before - Pk.remaining u });
        mmap_total :=
          !mmap_total +. cost.Cm.mmap_base
          +. (float_of_int (size / Layout.page_size) *. cost.Cm.mmap_per_page)
      done;
      ranges := (tid, List.rev !member_ranges) :: !ranges
    done;
    if Pk.remaining u <> 0 then invalid_arg "Migration.unpack_group: trailing bytes";
    let unpack_cost =
      !mmap_total
      +. Cm.memcpy_cost cost
           ~bytes:(Option.value len ~default:(Bytes.length buffer - Option.value pos ~default:0))
      +. (float_of_int members *. cost.Cm.context_switch)
    in
    {
      u_gid = gid;
      u_tids = List.rev !tids;
      u_cost = unpack_cost;
      u_missing = List.rev !missing;
      u_ranges = List.rev !ranges;
      u_trace;
    }

(* -- group two-phase messages (probe / verdict / train payload) -- *)

let group_probe_magic = 0x4750524f (* "GPRO" *)

let group_verdict_magic = 0x47564552 (* "GVER" *)

let group_transfer_magic = 0x47584652 (* "GXFR" *)

let group_ranges space threads =
  List.concat_map (fun th -> slot_ranges space th) threads

(* [trace] rides as two trailing words, exactly as in the reliable
   layer's fragments: absent when tracing is off, so untraced probes keep
   their historic bytes; detected by the 16 bytes left after the
   ranges. *)
let group_probe_message ?trace ~gid ~ranges () =
  let p = Pk.packer () in
  Pk.pack_int p group_probe_magic;
  Pk.pack_int p gid;
  pack_ranges p ranges;
  (match trace with
   | None -> ()
   | Some (tid, parent) ->
     Pk.pack_int p tid;
     Pk.pack_int p parent);
  Pk.contents p

let parse_group_probe b =
  match
    let u = Pk.unpacker b in
    if Pk.unpack_int u <> group_probe_magic then
      invalid_arg "Migration: bad group probe magic";
    let gid = Pk.unpack_int u in
    let ranges = unpack_ranges u in
    let trace =
      if Pk.remaining u = 16 then begin
        let tid = Pk.unpack_int u in
        let parent = Pk.unpack_int u in
        Some (tid, parent)
      end
      else None
    in
    if Pk.remaining u <> 0 then invalid_arg "Migration: trailing group probe bytes";
    (gid, ranges, trace)
  with
  | v -> Some v
  | exception Invalid_argument _ -> None

let group_verdict_message ~gid ~ok ~reason =
  let p = Pk.packer () in
  Pk.pack_int p group_verdict_magic;
  Pk.pack_int p gid;
  Pk.pack_int p (if ok then 1 else 0);
  Pk.pack_string p reason;
  Pk.contents p

let parse_group_verdict b =
  match
    let u = Pk.unpacker b in
    if Pk.unpack_int u <> group_verdict_magic then
      invalid_arg "Migration: bad group verdict magic";
    let gid = Pk.unpack_int u in
    let ok = Pk.unpack_int u <> 0 in
    let reason = Pk.unpack_string u in
    if Pk.remaining u <> 0 then invalid_arg "Migration: trailing group verdict bytes";
    (gid, ok, reason)
  with
  | v -> Some v
  | exception Invalid_argument _ -> None

let group_transfer_message ~gid ~ranges ~buffer =
  let p = Pk.packer ~size:(transfer_size ~ranges ~buffer) () in
  Pk.pack_int p group_transfer_magic;
  Pk.pack_int p gid;
  Pk.pack_int p (Pk.checksum buffer);
  pack_ranges p ranges;
  Pk.pack_bytes p buffer;
  Pk.contents p

let parse_group_transfer b =
  match
    let u = Pk.unpacker b in
    if Pk.unpack_int u <> group_transfer_magic then
      invalid_arg "Migration: bad group transfer magic";
    let gid = Pk.unpack_int u in
    let ck = Pk.unpack_int u in
    let ranges = unpack_ranges u in
    let image = Pk.unpack_view u in
    if Pk.remaining u <> 0 then invalid_arg "Migration: trailing group transfer bytes";
    (gid, ck, ranges, image)
  with
  | exception Invalid_argument _ -> Error "malformed group transfer message"
  | gid, ck, ranges, ((data, pos, len) as image) ->
    if Pk.checksum data ~pos ~len <> ck then Error "group wire buffer checksum mismatch"
    else Ok (gid, ranges, image)

(* -- delta fallback messages (RDLT request / RFUL full pages) --

   When a v3 destination cannot restore a [Cached] page (evicted image,
   or hash mismatch after corruption) it asks the source for the raw
   bytes. The source serves them from the pinned residual image it kept
   at pack time, so the answer is always available while the transfer is
   in flight. *)

let delta_request_magic = 0x52444c54 (* "RDLT" *)

let delta_full_magic = 0x5246554c (* "RFUL" *)

let delta_request_message ~gid ~pages =
  let p = Pk.packer () in
  Pk.pack_int p delta_request_magic;
  Pk.pack_int p gid;
  Pk.pack_list p
    (fun (tid, addr, hash) ->
      Pk.pack_int p tid;
      Pk.pack_int p addr;
      Pk.pack_int p hash)
    pages;
  Pk.contents p

let parse_delta_request b =
  match
    let u = Pk.unpacker b in
    if Pk.unpack_int u <> delta_request_magic then
      invalid_arg "Migration: bad delta request magic";
    let gid = Pk.unpack_int u in
    let pages =
      Pk.unpack_list u (fun () ->
          let tid = Pk.unpack_int u in
          let addr = Pk.unpack_int u in
          let hash = Pk.unpack_int u in
          (tid, addr, hash))
    in
    if Pk.remaining u <> 0 then invalid_arg "Migration: trailing delta request bytes";
    (gid, pages)
  with
  | v -> Some v
  | exception Invalid_argument _ -> None

let delta_full_message ~gid ~pages =
  let p = Pk.packer () in
  Pk.pack_int p delta_full_magic;
  Pk.pack_int p gid;
  Pk.pack_list p
    (fun (tid, addr, page) ->
      Pk.pack_int p tid;
      Pk.pack_int p addr;
      Pk.pack_bytes p page)
    pages;
  Pk.contents p

let parse_delta_full b =
  match
    let u = Pk.unpacker b in
    if Pk.unpack_int u <> delta_full_magic then
      invalid_arg "Migration: bad delta full magic";
    let gid = Pk.unpack_int u in
    let pages =
      Pk.unpack_list u (fun () ->
          let tid = Pk.unpack_int u in
          let addr = Pk.unpack_int u in
          let page = Pk.unpack_bytes u in
          if Bytes.length page <> Layout.page_size then
            invalid_arg "Migration: delta full page is not page-sized";
          (tid, addr, page))
    in
    if Pk.remaining u <> 0 then invalid_arg "Migration: trailing delta full bytes";
    (gid, pages)
  with
  | v -> Ok v
  | exception Invalid_argument _ -> Error "malformed delta full message"

let unpack ?(obs = Obs.Collector.null) ?(node = 0) ~cost ~space (th : Thread.t) buffer =
  let u = Pk.unpacker buffer in
  unpack_descriptor u th;
  let nslots = Pk.unpack_int u in
  let ranges = ref [] in
  for _ = 1 to nslots do
    let before = Pk.remaining u in
    let slot, size = unpack_slot space u in
    emit_slot obs ~node
      (Obs.Event.Unpack_slot { tid = th.Thread.id; slot; bytes = before - Pk.remaining u });
    ranges := (slot, size) :: !ranges
  done;
  if Pk.remaining u <> 0 then invalid_arg "Migration.unpack: trailing bytes";
  unpack_cost_of cost (List.rev !ranges) ~bytes:(Bytes.length buffer)

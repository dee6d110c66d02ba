module As = Pm2_vmem.Address_space
module Cm = Pm2_sim.Cost_model
module Layout = Pm2_vmem.Layout
module B = Pm2_heap.Blockfmt
module Sh = Slot_header
module Obs = Pm2_obs

type fit =
  | First_fit
  | Best_fit

let fit_to_string = function First_fit -> "first-fit" | Best_fit -> "best-fit"

type env = {
  space : As.t;
  mgr : Slot_manager.t;
  cost : Cm.t;
  charge : float -> unit;
  fit : fit;
  negotiate : n:int -> int option;
  obs : Obs.Collector.t;
}

let emit env ev = Obs.Collector.emit env.obs ~node:(Slot_manager.node env.mgr) ev

let slot_capacity g = g.Slot.slot_size - Sh.size_of_header

let geometry env = Slot_manager.geometry env.mgr

(* -- per-slot free lists (head in the slot header, links in the blocks) -- *)

(* Store the head a Blockfmt operation returned; the header word is
   written only when the head moved. *)
let set_head env slot ~was head = if head <> was then Sh.write_free_head env.space slot head

(* -- slot acquisition -- *)

(* Acquire [n] contiguous slots for [th]: locally when possible, through a
   negotiation otherwise (paper, §4.4). Returns the merged slot base. *)
let new_data_slot env th ~slots:n ~kind =
  let g = geometry env in
  let start =
    if n = 1 then
      match Slot_manager.acquire_local env.mgr with
      | Ok i -> Some i
      | Error _ ->
        (* The node has run out of slots: buy one (§4.4, last remark). *)
        (match env.negotiate ~n:1 with
         | Some i ->
           Slot_manager.acquire_run_exn env.mgr ~start:i ~n:1;
           Some i
         | None -> None)
    else begin
      match Slot_manager.find_local_run env.mgr n with
      | Some i ->
        Slot_manager.acquire_run_exn env.mgr ~start:i ~n;
        Some i
      | None ->
        (match env.negotiate ~n with
         | Some i ->
           Slot_manager.acquire_run_exn env.mgr ~start:i ~n;
           Some i
         | None -> None)
    end
  in
  match start with
  | None -> None
  | Some i ->
    let base = Slot.base g i in
    let size = n * g.Slot.slot_size in
    Sh.init env.space base ~size ~kind ~owner:th.Thread.id;
    th.Thread.slots_head <- Sh.link_front env.space ~head:th.Thread.slots_head base;
    (match kind with
     | Sh.Data ->
       (* One big free block spanning the whole blocks region. *)
       let b = Sh.blocks_base base in
       Sh.write_free_head env.space base
         (B.release env.space ~head:0 ~lo:b ~hi:(base + size) b ~size:(size - Sh.size_of_header))
     | Sh.Stack -> ());
    Some base

(* -- allocation -- *)

(* Fit search over the free lists of the thread's data slots. First-fit
   stops at the first adequate block (the paper's strategy); best-fit
   scans everything and keeps the tightest. One step charged per block
   inspected. *)
let find_fit env th need =
  let steps = ref 0 in
  let result = ref None in
  (try
     Sh.iter_chain env.space ~head:th.Thread.slots_head (fun slot ->
         if Sh.read_kind env.space slot = Sh.Data then begin
           (* The links sit in memory the guest can write: a list longer
              than the slot can hold blocks is a guest-made cycle. *)
           let bound = Sh.read_size env.space slot / B.min_block in
           let rec scan b n =
             if b <> 0 then begin
               if n >= bound then
                 invalid_arg (Printf.sprintf "Iso_heap: free-list cycle in slot 0x%x" slot);
               incr steps;
               let bsize = B.read_size env.space b in
               if bsize >= need then begin
                 match env.fit with
                 | First_fit ->
                   result := Some (slot, b);
                   raise Exit
                 | Best_fit ->
                   (match !result with
                    | Some (_, best) when B.read_size env.space best <= bsize -> ()
                    | _ -> result := Some (slot, b))
               end;
               scan (B.read_next_free env.space b) (n + 1)
             end
           in
           scan (Sh.read_free_head env.space slot) 0
         end)
   with Exit -> ());
  env.charge (float_of_int !steps *. env.cost.Cm.free_list_step);
  !result

let place env slot b need =
  let was = Sh.read_free_head env.space slot in
  let head, rest = B.carve env.space ~head:was b ~need in
  set_head env slot ~was head;
  if rest > 0 && Obs.Collector.enabled env.obs then
    emit env (Obs.Event.Block_split { heap = Obs.Event.Iso; addr = b + need; bytes = rest });
  B.payload_addr b

let isomalloc env th size =
  if size <= 0 then invalid_arg "Iso_heap.isomalloc: size <= 0";
  env.charge env.cost.Cm.alloc_fixed;
  let g = geometry env in
  let result =
    (* A block bigger than the whole iso-area can never be placed; refuse
       it before [block_size_for] and the slot arithmetic can wrap. *)
    if size > Layout.iso_size then None
    else begin
      let need = B.block_size_for ~payload:size in
      match find_fit env th need with
      | Some (slot, b) -> Some (place env slot b need)
      | None ->
        let slots = Slot.slots_for g (need + Sh.size_of_header) in
        (match new_data_slot env th ~slots ~kind:Sh.Data with
         | None -> None
         | Some base ->
           (* The fresh slot holds a single free block that surely fits. *)
           Some (place env base (Sh.read_free_head env.space base) need))
    end
  in
  (match result with
   | Some addr when Obs.Collector.enabled env.obs ->
     emit env (Obs.Event.Block_alloc { heap = Obs.Event.Iso; addr; bytes = size })
   | _ -> ());
  result

(* -- deallocation -- *)

(* The slot (chain entry) whose address range contains [addr]. *)
let containing_slot env th addr =
  let found = ref None in
  (try
     Sh.iter_chain env.space ~head:th.Thread.slots_head (fun slot ->
         env.charge env.cost.Cm.free_list_step;
         let size = Sh.read_size env.space slot in
         if addr >= slot && addr < slot + size then begin
           found := Some slot;
           raise Exit
         end)
   with Exit -> ());
  !found

(* Validate that [payload] designates a live block of [slot] by walking the
   block sequence (the authoritative structure, in simulated memory). *)
let validate_block env slot payload =
  let target = B.block_of_payload payload in
  let found = ref None in
  (try
     B.fold env.space ~lo:(Sh.blocks_base slot) ~hi:(slot + Sh.read_size env.space slot)
       (fun () b ~size ~used ->
          env.charge env.cost.Cm.free_list_step;
          if b = target then begin
            if used then found := Some size;
            raise Exit
          end)
       ()
   with Exit -> ());
  !found

let release_slot env th slot =
  let g = geometry env in
  let size = Sh.read_size env.space slot in
  th.Thread.slots_head <- Sh.unlink env.space ~head:th.Thread.slots_head slot;
  Slot_manager.release_run_exn env.mgr ~start:(Slot.index g slot) ~n:(size / g.Slot.slot_size)

let isofree env th payload =
  env.charge env.cost.Cm.alloc_fixed;
  match containing_slot env th payload with
  | None ->
    invalid_arg (Printf.sprintf "Iso_heap.isofree: 0x%x is not in any slot of thread %d"
                   payload th.Thread.id)
  | Some slot ->
    if Sh.read_kind env.space slot = Sh.Stack then
      invalid_arg "Iso_heap.isofree: address inside the thread stack";
    (match validate_block env slot payload with
     | None ->
       invalid_arg (Printf.sprintf "Iso_heap.isofree: 0x%x is not a live block" payload)
     | Some bsize ->
       if Obs.Collector.enabled env.obs then
         emit env
           (Obs.Event.Block_free
              { heap = Obs.Event.Iso; addr = payload; bytes = B.payload_of_block bsize });
       let slot_size = Sh.read_size env.space slot in
       let blocks_base = Sh.blocks_base slot in
       let b =
         B.release env.space ~head:(Sh.read_free_head env.space slot) ~lo:blocks_base
           ~hi:(slot + slot_size) (B.block_of_payload payload) ~size:bsize
       in
       (* Stored even when the merged block already was the head: a free
          always stores the slot header, and the epoch's dirty-page count
          (placement telemetry) sees that page. *)
       Sh.write_free_head env.space slot b;
       let size = B.read_size env.space b in
       if size <> bsize && Obs.Collector.enabled env.obs then
         emit env (Obs.Event.Block_coalesce { heap = Obs.Event.Iso; addr = b; bytes = size });
       (* A fully free slot goes back to the node currently visited. *)
       if b = blocks_base && size = slot_size - Sh.size_of_header then
         release_slot env th slot)

(* -- realloc / calloc -- *)

let isorealloc env th payload new_size =
  if new_size <= 0 then invalid_arg "Iso_heap.isorealloc: size <= 0";
  if payload = 0 then isomalloc env th new_size
  else begin
    match containing_slot env th payload with
    | None -> invalid_arg "Iso_heap.isorealloc: not a thread address"
    | Some slot ->
      if Sh.read_kind env.space slot = Sh.Stack then
        invalid_arg "Iso_heap.isorealloc: address inside the thread stack";
      (match validate_block env slot payload with
       | None -> invalid_arg "Iso_heap.isorealloc: not a live block"
       | Some _ when new_size > Layout.iso_size ->
         (* As in [isomalloc]: no block that big fits the iso-area. *)
         env.charge env.cost.Cm.alloc_fixed;
         None
       | Some bsize ->
         env.charge env.cost.Cm.alloc_fixed;
         let was = Sh.read_free_head env.space slot in
         (match
            B.resize env.space ~head:was ~lo:(Sh.blocks_base slot)
              ~hi:(slot + Sh.read_size env.space slot) (B.block_of_payload payload)
              ~need:(B.block_size_for ~payload:new_size)
          with
          | Some head ->
            set_head env slot ~was head;
            Some payload
          | None ->
            (* Move: allocate, copy, free. *)
            (match isomalloc env th new_size with
             | None -> None
             | Some fresh ->
               let keep = min (B.payload_of_block bsize) new_size in
               As.copy_within env.space ~src:payload ~dst:fresh ~size:keep;
               env.charge (Cm.memcpy_cost env.cost ~bytes:keep);
               isofree env th payload;
               Some fresh)))
  end

let isocalloc env th ~count ~size =
  if count <= 0 || size <= 0 then invalid_arg "Iso_heap.isocalloc: bad arguments";
  if count > max_int / size then None
  else begin
    let total = count * size in
    match isomalloc env th total with
    | None -> None
    | Some a ->
      As.fill env.space ~addr:a ~size:total 0;
      env.charge (Cm.memcpy_cost env.cost ~bytes:total);
      Some a
  end

(* -- thread life cycle -- *)

let acquire_stack_slot env th =
  match new_data_slot env th ~slots:1 ~kind:Sh.Stack with
  | None -> None
  | Some base ->
    th.Thread.stack_slot <- base;
    Some (base + (geometry env).Slot.slot_size)

let release_all env th =
  let slots = Sh.chain_to_list env.space ~head:th.Thread.slots_head in
  List.iter (fun slot -> release_slot env th slot) slots;
  th.Thread.slots_head <- 0;
  th.Thread.stack_slot <- 0

(* -- introspection -- *)

let slot_list env th = Sh.chain_to_list env.space ~head:th.Thread.slots_head

let live_blocks env th =
  let acc = ref [] in
  Sh.iter_chain env.space ~head:th.Thread.slots_head (fun slot ->
      if Sh.read_kind env.space slot = Sh.Data then
        acc :=
          B.fold env.space ~lo:(Sh.blocks_base slot) ~hi:(slot + Sh.read_size env.space slot)
            (fun acc b ~size:_ ~used -> if used then B.payload_addr b :: acc else acc)
            !acc);
  List.sort compare !acc

let usable_size env th payload =
  match containing_slot env th payload with
  | None -> invalid_arg "Iso_heap.usable_size: not a thread address"
  | Some slot ->
    (match validate_block env slot payload with
     | Some bsize -> B.payload_of_block bsize
     | None -> invalid_arg "Iso_heap.usable_size: not a live block")

let footprint env th =
  let total = ref 0 in
  Sh.iter_chain env.space ~head:th.Thread.slots_head (fun slot ->
      total := !total + Sh.read_size env.space slot);
  !total

type heap_stats = {
  slots : int;
  footprint_bytes : int;
  live_blocks : int;
  live_payload_bytes : int;
  free_bytes : int;
  largest_free_block : int;
}

let stats env th =
  let slots = ref 0 and footprint_bytes = ref 0 in
  let live_blocks = ref 0 and live_payload_bytes = ref 0 in
  let free_bytes = ref 0 and largest_free_block = ref 0 in
  Sh.iter_chain env.space ~head:th.Thread.slots_head (fun slot ->
      let size = Sh.read_size env.space slot in
      incr slots;
      footprint_bytes := !footprint_bytes + size;
      if Sh.read_kind env.space slot = Sh.Data then
        B.fold env.space ~lo:(Sh.blocks_base slot) ~hi:(slot + size)
          (fun () _ ~size ~used ->
             if used then begin
               incr live_blocks;
               live_payload_bytes := !live_payload_bytes + B.payload_of_block size
             end
             else begin
               free_bytes := !free_bytes + size;
               largest_free_block := max !largest_free_block size
             end)
          ());
  {
    slots = !slots;
    footprint_bytes = !footprint_bytes;
    live_blocks = !live_blocks;
    live_payload_bytes = !live_payload_bytes;
    free_bytes = !free_bytes;
    largest_free_block = !largest_free_block;
  }

let fragmentation s =
  if s.footprint_bytes = 0 then 0.
  else 1. -. (float_of_int s.live_payload_bytes /. float_of_int s.footprint_bytes)

let check_invariants env th =
  let fail fmt = Printf.ksprintf failwith fmt in
  let sp = env.space in
  let seen_prev = ref 0 in
  Sh.iter_chain sp ~head:th.Thread.slots_head (fun slot ->
      Sh.check_magic sp slot;
      if Sh.read_prev sp slot <> !seen_prev then fail "chain prev broken at 0x%x" slot;
      seen_prev := slot;
      let size = Sh.read_size sp slot in
      let g = geometry env in
      if size <= 0 || size mod g.Slot.slot_size <> 0 then
        fail "slot 0x%x has bad size %d" slot size;
      match Sh.read_kind sp slot with
      | Sh.Stack ->
        if Sh.read_free_head sp slot <> 0 then fail "stack slot 0x%x has a free list" slot
      | Sh.Data ->
        B.check sp ~head:(Sh.read_free_head sp slot) ~lo:(Sh.blocks_base slot) ~hi:(slot + size)
          ~used:ignore)

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

let sl_link_front env slot b =
  let head = Sh.read_free_head env.space slot in
  B.write_next_free env.space b head;
  B.write_prev_free env.space b 0;
  if head <> 0 then B.write_prev_free env.space head b;
  Sh.write_free_head env.space slot b

let sl_unlink env slot b =
  let prev = B.read_prev_free env.space b in
  let next = B.read_next_free env.space b in
  if prev = 0 then Sh.write_free_head env.space slot next
  else B.write_next_free env.space prev next;
  if next <> 0 then B.write_prev_free env.space next prev

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
       B.write_tags env.space b ~size:(size - Sh.size_of_header) ~used:false;
       sl_link_front env base b
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
           let rec scan b =
             if b <> 0 then begin
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
               scan (B.read_next_free env.space b)
             end
           in
           scan (Sh.read_free_head env.space slot)
         end)
   with Exit -> ());
  env.charge (float_of_int !steps *. env.cost.Cm.free_list_step);
  !result

let place env slot b need =
  let bsize = B.read_size env.space b in
  sl_unlink env slot b;
  if bsize - need >= B.min_block then begin
    let rest = b + need in
    B.write_tags env.space rest ~size:(bsize - need) ~used:false;
    sl_link_front env slot rest;
    B.write_tags env.space b ~size:need ~used:true;
    if Obs.Collector.enabled env.obs then
      emit env
        (Obs.Event.Block_split { heap = Obs.Event.Iso; addr = rest; bytes = bsize - need })
  end
  else B.write_tags env.space b ~size:bsize ~used:true;
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
  let size = Sh.read_size env.space slot in
  let limit = slot + size in
  let target = B.block_of_payload payload in
  let rec walk b =
    if b >= limit then None
    else begin
      env.charge env.cost.Cm.free_list_step;
      let bsize = B.read_size env.space b in
      if b = target then if B.read_used env.space b then Some bsize else None
      else walk (b + bsize)
    end
  in
  walk (Sh.blocks_base slot)

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
       let limit = slot + slot_size in
       let b = ref (B.block_of_payload payload) in
       let size = ref (B.read_size env.space !b) in
       (* Coalesce forward. *)
       let next = !b + !size in
       if next < limit && not (B.read_used env.space next) then begin
         sl_unlink env slot next;
         size := !size + B.read_size env.space next
       end;
       (* Coalesce backward. *)
       if !b > blocks_base && not (B.read_used_at_footer env.space !b) then begin
         let psize = B.read_size_at_footer env.space !b in
         let prev = !b - psize in
         sl_unlink env slot prev;
         b := prev;
         size := !size + psize
       end;
       B.write_tags env.space !b ~size:!size ~used:false;
       sl_link_front env slot !b;
       if !size <> bsize && Obs.Collector.enabled env.obs then
         emit env (Obs.Event.Block_coalesce { heap = Obs.Event.Iso; addr = !b; bytes = !size });
       (* A fully free slot goes back to the node currently visited. *)
       if !b = blocks_base && !size = slot_size - Sh.size_of_header then
         release_slot env th slot)

(* -- realloc / calloc -- *)

(* Split block [b] (currently used, [bsize] bytes) so that it keeps only
   [need] bytes; the remainder becomes a free block of [slot], coalesced
   with a following free block if any. *)
let shrink_in_place env slot b bsize need =
  if bsize - need >= B.min_block then begin
    B.write_tags env.space b ~size:need ~used:true;
    let rest = b + need in
    let rest_size = ref (bsize - need) in
    let next = b + bsize in
    let limit = slot + Sh.read_size env.space slot in
    if next < limit && not (B.read_used env.space next) then begin
      sl_unlink env slot next;
      rest_size := !rest_size + B.read_size env.space next
    end;
    B.write_tags env.space rest ~size:!rest_size ~used:false;
    sl_link_front env slot rest
  end

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
         let b = B.block_of_payload payload in
         let need = B.block_size_for ~payload:new_size in
         if need <= bsize then begin
           (* Shrink (or exact fit): stay in place. *)
           shrink_in_place env slot b bsize need;
           Some payload
         end
         else begin
           let limit = slot + Sh.read_size env.space slot in
           let next = b + bsize in
           let next_free = next < limit && not (B.read_used env.space next) in
           let grown = if next_free then bsize + B.read_size env.space next else bsize in
           if next_free && grown >= need then begin
             (* Grow in place by absorbing the following free block. *)
             sl_unlink env slot next;
             B.write_tags env.space b ~size:grown ~used:true;
             shrink_in_place env slot b grown need;
             Some payload
           end
           else begin
             (* Move: allocate, copy, free. *)
             match isomalloc env th new_size with
             | None -> None
             | Some fresh ->
               let old_payload = B.payload_of_block bsize in
               let keep = min old_payload new_size in
               As.copy_within env.space ~src:payload ~dst:fresh ~size:keep;
               env.charge (Cm.memcpy_cost env.cost ~bytes:keep);
               isofree env th payload;
               Some fresh
           end
         end)
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
      if Sh.read_kind env.space slot = Sh.Data then begin
        let limit = slot + Sh.read_size env.space slot in
        let rec walk b =
          if b < limit then begin
            if B.read_used env.space b then acc := B.payload_addr b :: !acc;
            walk (b + B.read_size env.space b)
          end
        in
        walk (Sh.blocks_base slot)
      end);
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
  let s =
    ref
      {
        slots = 0;
        footprint_bytes = 0;
        live_blocks = 0;
        live_payload_bytes = 0;
        free_bytes = 0;
        largest_free_block = 0;
      }
  in
  Sh.iter_chain env.space ~head:th.Thread.slots_head (fun slot ->
      let size = Sh.read_size env.space slot in
      s := { !s with slots = !s.slots + 1; footprint_bytes = !s.footprint_bytes + size };
      if Sh.read_kind env.space slot = Sh.Data then begin
        let limit = slot + size in
        let rec walk b =
          if b < limit then begin
            let bsize = B.read_size env.space b in
            if B.read_used env.space b then
              s :=
                {
                  !s with
                  live_blocks = !s.live_blocks + 1;
                  live_payload_bytes = !s.live_payload_bytes + B.payload_of_block bsize;
                }
            else
              s :=
                {
                  !s with
                  free_bytes = !s.free_bytes + bsize;
                  largest_free_block = max !s.largest_free_block bsize;
                };
            walk (b + bsize)
          end
        in
        walk (Sh.blocks_base slot)
      end);
  !s

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
        (* Collect the free list. *)
        let free_set = Hashtbl.create 8 in
        let rec walk_list b prev n =
          if n > 1_000_000 then fail "free list loop in slot 0x%x" slot;
          if b <> 0 then begin
            if B.read_prev_free sp b <> prev then fail "free link broken at 0x%x" b;
            if B.read_used sp b then fail "used block 0x%x on free list" b;
            Hashtbl.replace free_set b ();
            walk_list (B.read_next_free sp b) b (n + 1)
          end
        in
        walk_list (Sh.read_free_head sp slot) 0 0;
        (* Walk the blocks. *)
        let limit = slot + size in
        let a = ref (Sh.blocks_base slot) in
        let prev_free = ref false in
        while !a < limit do
          let bsize = B.read_size sp !a in
          if bsize < B.min_block || bsize land 7 <> 0 then
            fail "bad block size %d at 0x%x" bsize !a;
          if !a + bsize > limit then fail "block 0x%x overruns slot" !a;
          if B.read_size_at_footer sp (!a + bsize) <> bsize then
            fail "footer mismatch at 0x%x" !a;
          let used = B.read_used sp !a in
          if B.read_used_at_footer sp (!a + bsize) <> used then
            fail "footer flag mismatch at 0x%x" !a;
          if not used then begin
            if !prev_free then fail "uncoalesced free blocks at 0x%x" !a;
            if not (Hashtbl.mem free_set !a) then fail "free block 0x%x not listed" !a;
            Hashtbl.remove free_set !a
          end;
          prev_free := not used;
          a := !a + bsize
        done;
        if !a <> limit then fail "block walk of slot 0x%x ended at 0x%x" slot !a;
        if Hashtbl.length free_set <> 0 then fail "stale free-list entries in slot 0x%x" slot)

module As = Pm2_vmem.Address_space
module Cm = Pm2_sim.Cost_model
module Sh = Slot_header
module Pk = Pm2_net.Packet
module Interp = Pm2_mvm.Interp

type packed = {
  buffer : Bytes.t;
  pack_cost : float;
}

type stage =
  | Pack
  | Unpack

exception Error of { tid : int; slot : int; stage : stage; reason : string }

let stage_name = function Pack -> "pack" | Unpack -> "unpack"

let error ~tid ~slot ~stage reason = raise (Error { tid; slot; stage; reason })

let () =
  Printexc.register_printer (function
    | Error { tid; slot; stage; reason } ->
      Some
        (Printf.sprintf "Relocation.Error (tid=%d, slot=0x%x, %s): %s" tid slot
           (stage_name stage) reason)
    | _ -> None)

let wire_magic = 0x52454c4f (* "RELO" *)

let pack ~geometry ~cost ~space ~mgr (th : Thread.t) =
  let slots = Sh.chain_to_list space ~head:th.slots_head in
  (match slots with
   | [ s ] when s = th.stack_slot -> ()
   | _ ->
     error ~tid:th.id ~slot:th.slots_head ~stage:Pack
       "the legacy scheme only migrates stack-only threads");
  let base = th.stack_slot in
  let size = Sh.read_size space base in
  let sp = th.ctx.Interp.sp in
  if sp < base + Sh.size_of_header || sp > base + size then
    error ~tid:th.id ~slot:base ~stage:Pack
      (Printf.sprintf "stack pointer 0x%x outside stack slot" sp);
  let p = Pk.packer () in
  Pk.pack_int p wire_magic;
  Pk.pack_int p th.id;
  Pk.pack_int p th.ctx.Interp.pc;
  Pk.pack_int p sp;
  Pk.pack_int p th.ctx.Interp.fp;
  Array.iter (Pk.pack_int p) th.ctx.Interp.regs;
  Pk.pack_int p th.next_key;
  let cells = Hashtbl.fold (fun k a acc -> (k, a) :: acc) th.registry [] in
  Pk.pack_list p (fun (k, a) -> Pk.pack_int p k; Pk.pack_int p a) cells;
  Pk.pack_int p base;
  Pk.pack_int p size;
  let live = base + size - sp in
  Pk.pack_raw p ~len:live (fun buf pos -> As.load_into space ~addr:sp ~len:live buf ~pos);
  (* The source gives the slot back to its node: the thread does not keep
     iso-address ownership under this scheme. *)
  Slot_manager.release_exn mgr (Slot.index geometry base);
  th.slots_head <- 0;
  th.stack_slot <- 0;
  let buffer = Pk.contents p in
  {
    buffer;
    pack_cost = cost.Cm.context_switch +. Cm.memcpy_cost cost ~bytes:(Bytes.length buffer);
  }

let unpack ~geometry ~cost ~space ~mgr (th : Thread.t) buffer =
  let u = Pk.unpacker buffer in
  if Pk.unpack_int u <> wire_magic then
    error ~tid:th.Thread.id ~slot:0 ~stage:Unpack "bad wire magic";
  if Pk.unpack_int u <> th.Thread.id then
    error ~tid:th.Thread.id ~slot:0 ~stage:Unpack "thread id mismatch";
  let pc = Pk.unpack_int u in
  let old_sp = Pk.unpack_int u in
  let old_fp = Pk.unpack_int u in
  let regs = Array.init Pm2_mvm.Isa.num_regs (fun _ -> Pk.unpack_int u) in
  let next_key = Pk.unpack_int u in
  let cells = Pk.unpack_list u (fun () ->
      let k = Pk.unpack_int u in
      let a = Pk.unpack_int u in
      (k, a))
  in
  let old_base = Pk.unpack_int u in
  let old_size = Pk.unpack_int u in
  let live, live_pos, live_len = Pk.unpack_view u in
  (* A fresh stack slot from the destination node — first-fit, so with any
     non-degenerate distribution this is a different virtual address. *)
  let index =
    match Slot_manager.acquire_local mgr with
    | Ok i -> i
    | Error _ ->
      error ~tid:th.Thread.id ~slot:old_base ~stage:Unpack
        "destination node has no free slot"
  in
  let new_base = Slot.base geometry index in
  let new_size = geometry.Slot.slot_size in
  if new_size < old_size then
    error ~tid:th.Thread.id ~slot:new_base ~stage:Unpack "slot size shrank";
  Sh.init space new_base ~size:new_size ~kind:Sh.Stack ~owner:th.Thread.id;
  let delta = new_base - old_base in
  let in_old a = a >= old_base && a <= old_base + old_size in
  let rebase a = if in_old a then a + delta else a in
  As.store_sub space (old_sp + delta) live ~pos:live_pos ~len:live_len;
  th.Thread.ctx <- { Interp.regs; pc; sp = old_sp + delta; fp = rebase old_fp };
  th.Thread.slots_head <- new_base;
  th.Thread.stack_slot <- new_base;
  th.Thread.next_key <- next_key;
  (* Patch the compiler-generated frame chain: each frame slot saves the
     caller's fp as an absolute address. *)
  let fixups = ref 0 in
  let rec walk_frames cur =
    if cur >= new_base + Sh.size_of_header && cur < new_base + new_size then begin
      let saved = As.load_word space cur in
      if in_old saved then begin
        As.store_word space cur (saved + delta);
        incr fixups;
        walk_frames (saved + delta)
      end
    end
  in
  walk_frames th.Thread.ctx.Interp.fp;
  (* Patch the registered user pointers (Fig. 3): both the cell location
     (if it lives in the stack) and the pointer value it holds. *)
  Hashtbl.reset th.Thread.registry;
  List.iter
    (fun (k, cell) ->
       let cell' = rebase cell in
       Hashtbl.replace th.Thread.registry k cell';
       (let v = As.load_word space cell' in
        if in_old v then As.store_word space cell' (v + delta));
       incr fixups)
    cells;
  Cm.memcpy_cost cost ~bytes:(Bytes.length buffer)
  +. (float_of_int !fixups *. cost.Cm.pointer_update)
  +. cost.Cm.context_switch

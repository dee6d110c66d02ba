module As = Pm2_vmem.Address_space
module Layout = Pm2_vmem.Layout
module Cm = Pm2_sim.Cost_model
module B = Blockfmt

module Obs = Pm2_obs

type addr = Layout.addr

exception Out_of_memory

type error =
  | Heap_exhausted
  | Invalid_free of addr

let error_to_string = function
  | Heap_exhausted -> "local heap segment exhausted"
  | Invalid_free a -> Printf.sprintf "Malloc.free: 0x%x is not a live block" a

let nil = 0

type t = {
  space : As.t;
  cost : Cm.t;
  charge : float -> unit;
  mutable brk : addr; (* end of the mapped arena *)
  mutable head : addr; (* first-fit free-list head, 0 = nil *)
  live : (addr, int) Hashtbl.t; (* payload addr -> block size *)
  mutable live_bytes : int;
  obs : Obs.Collector.t;
  node : int;
}

let create ?(obs = Obs.Collector.null) ?(node = 0) space cost ~charge =
  {
    space;
    cost;
    charge;
    brk = Layout.heap_base;
    head = nil;
    live = Hashtbl.create 64;
    live_bytes = 0;
    obs;
    node;
  }

let emit t ev = Obs.Collector.emit t.obs ~node:t.node ev

(* -- arena growth -- *)

let min_growth = 64 * 1024

(* Grow the arena by at least [need]; [false] if the segment is spent. *)
let extend t need =
  let grow = Layout.page_align_up (max need min_growth) in
  if t.brk + grow > Layout.heap_base + Layout.heap_max_size then false
  else begin
    As.mmap t.space ~addr:t.brk ~size:grow;
    t.charge (Cm.mmap_cost t.cost ~pages:(grow / Layout.page_size));
    let b = t.brk in
    t.brk <- t.brk + grow;
    (* Merges with a trailing free block of the old arena, if any. *)
    t.head <- B.release t.space ~head:t.head ~lo:Layout.heap_base ~hi:t.brk b ~size:grow;
    true
  end

(* -- allocation -- *)

(* One search step charged per block inspected. The links sit in memory
   the guest can write: a list longer than the arena can hold blocks is
   a guest-made cycle. *)
let find_fit t need =
  let steps = ref 0 in
  let bound = (t.brk - Layout.heap_base) / B.min_block in
  let rec loop b =
    if b = nil then None
    else begin
      if !steps >= bound then invalid_arg "Malloc: free-list cycle in the arena";
      incr steps;
      if B.read_size t.space b >= need then Some b
      else loop (B.read_next_free t.space b)
    end
  in
  let r = loop t.head in
  t.charge (float_of_int !steps *. t.cost.Cm.free_list_step);
  r

let place t b need =
  let head, rest = B.carve t.space ~head:t.head b ~need in
  t.head <- head;
  if rest > 0 && Obs.Collector.enabled t.obs then
    emit t (Obs.Event.Block_split { heap = Obs.Event.Local; addr = b + need; bytes = rest });
  let payload = B.payload_addr b in
  Hashtbl.replace t.live payload (B.read_size t.space b);
  t.live_bytes <- t.live_bytes + B.payload_of_block (B.read_size t.space b);
  payload

let malloc t size =
  if size <= 0 then invalid_arg "Malloc.malloc: size <= 0";
  t.charge t.cost.Cm.alloc_fixed;
  let payload =
    (* A block bigger than the whole segment can never be placed; refuse
       it before [block_size_for] and the growth arithmetic can wrap. *)
    if size > Layout.heap_max_size then Error Heap_exhausted
    else begin
      let need = B.block_size_for ~payload:size in
      match find_fit t need with
      | Some b -> Ok (place t b need)
      | None ->
        if not (extend t need) then Error Heap_exhausted
        else (
          match find_fit t need with
          | Some b -> Ok (place t b need)
          | None -> Error Heap_exhausted)
    end
  in
  (match payload with
   | Ok addr when Obs.Collector.enabled t.obs ->
     emit t (Obs.Event.Block_alloc { heap = Obs.Event.Local; addr; bytes = size })
   | _ -> ());
  payload

let malloc_exn t size =
  match malloc t size with
  | Ok addr -> addr
  | Error _ -> raise Out_of_memory

let validate_live t p =
  match Hashtbl.find_opt t.live p with
  | Some size -> size
  | None -> invalid_arg (Printf.sprintf "Malloc.free: 0x%x is not a live block" p)

let free_live t p =
  t.charge t.cost.Cm.alloc_fixed;
  Hashtbl.remove t.live p;
  let b = B.block_of_payload p in
  let size = B.read_size t.space b in
  t.live_bytes <- t.live_bytes - B.payload_of_block size;
  if Obs.Collector.enabled t.obs then
    emit t
      (Obs.Event.Block_free { heap = Obs.Event.Local; addr = p; bytes = B.payload_of_block size });
  let merged = B.release t.space ~head:t.head ~lo:Layout.heap_base ~hi:t.brk b ~size in
  t.head <- merged;
  let merged_size = B.read_size t.space merged in
  if merged_size <> size && Obs.Collector.enabled t.obs then
    emit t (Obs.Event.Block_coalesce { heap = Obs.Event.Local; addr = merged; bytes = merged_size })

let free t p =
  if Hashtbl.mem t.live p then Ok (free_live t p) else Error (Invalid_free p)

let free_exn t p =
  match free t p with
  | Ok () -> ()
  | Error e -> invalid_arg (error_to_string e)

let usable_size t p = B.payload_of_block (validate_live t p)

let live_blocks t = Hashtbl.length t.live

let live_bytes t = t.live_bytes

let heap_bytes t = t.brk - Layout.heap_base

let check_invariants t =
  B.check t.space ~head:t.head ~lo:Layout.heap_base ~hi:t.brk ~used:(fun b ->
      if not (Hashtbl.mem t.live (B.payload_addr b)) then
        failwith (Printf.sprintf "used block 0x%x not in live table" b))

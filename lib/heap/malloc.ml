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

(* -- free-list management (links live in simulated memory) -- *)

let link_front t b =
  let head = t.head in
  B.write_next_free t.space b head;
  B.write_prev_free t.space b nil;
  if head <> nil then B.write_prev_free t.space head b;
  t.head <- b

let unlink t b =
  let prev = B.read_prev_free t.space b in
  let next = B.read_next_free t.space b in
  if prev = nil then t.head <- next else B.write_next_free t.space prev next;
  if next <> nil then B.write_prev_free t.space next prev

(* -- arena growth -- *)

let min_growth = 64 * 1024

let extend_mapped t grow =
  As.mmap t.space ~addr:t.brk ~size:grow;
  t.charge (Cm.mmap_cost t.cost ~pages:(grow / Layout.page_size));
  let b = ref t.brk and size = ref grow in
  (* Coalesce with a trailing free block of the old arena, if any. *)
  if t.brk > Layout.heap_base && not (B.read_used_at_footer t.space t.brk) then begin
    let psize = B.read_size_at_footer t.space t.brk in
    let prev = t.brk - psize in
    unlink t prev;
    b := prev;
    size := !size + psize
  end;
  t.brk <- t.brk + grow;
  B.write_tags t.space !b ~size:!size ~used:false;
  link_front t !b

(* Grow the arena by at least [need]; [false] if the segment is spent. *)
let extend t need =
  let grow = Layout.page_align_up (max need min_growth) in
  if t.brk + grow > Layout.heap_base + Layout.heap_max_size then false
  else begin
    extend_mapped t grow;
    true
  end

(* -- allocation -- *)

(* One search step charged per block inspected. *)
let find_fit t need =
  let steps = ref 0 in
  let rec loop b =
    if b = nil then None
    else begin
      incr steps;
      if B.read_size t.space b >= need then Some b
      else loop (B.read_next_free t.space b)
    end
  in
  let r = loop t.head in
  t.charge (float_of_int !steps *. t.cost.Cm.free_list_step);
  r

let place t b need =
  let bsize = B.read_size t.space b in
  unlink t b;
  if bsize - need >= B.min_block then begin
    let rest = b + need in
    B.write_tags t.space rest ~size:(bsize - need) ~used:false;
    link_front t rest;
    B.write_tags t.space b ~size:need ~used:true;
    if Obs.Collector.enabled t.obs then
      emit t (Obs.Event.Block_split { heap = Obs.Event.Local; addr = rest; bytes = bsize - need })
  end
  else B.write_tags t.space b ~size:bsize ~used:true;
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
  let b = ref (B.block_of_payload p) in
  let size = ref (B.read_size t.space !b) in
  t.live_bytes <- t.live_bytes - B.payload_of_block !size;
  if Obs.Collector.enabled t.obs then
    emit t
      (Obs.Event.Block_free
         { heap = Obs.Event.Local; addr = p; bytes = B.payload_of_block !size });
  let freed_size = !size in
  (* Coalesce with the next block. *)
  let next = !b + !size in
  if next < t.brk && not (B.read_used t.space next) then begin
    unlink t next;
    size := !size + B.read_size t.space next
  end;
  (* Coalesce with the previous block. *)
  if !b > Layout.heap_base && not (B.read_used_at_footer t.space !b) then begin
    let psize = B.read_size_at_footer t.space !b in
    let prev = !b - psize in
    unlink t prev;
    b := prev;
    size := !size + psize
  end;
  B.write_tags t.space !b ~size:!size ~used:false;
  link_front t !b;
  if !size <> freed_size && Obs.Collector.enabled t.obs then
    emit t (Obs.Event.Block_coalesce { heap = Obs.Event.Local; addr = !b; bytes = !size })

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

let free_list_length t =
  let rec loop n b = if b = nil then n else loop (n + 1) (B.read_next_free t.space b) in
  loop 0 t.head

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* Collect the free list, checking link symmetry. *)
  let free_set = Hashtbl.create 16 in
  let rec walk_list b prev n =
    if n > 1_000_000 then fail "free list loop";
    if b <> nil then begin
      if B.read_prev_free t.space b <> prev then fail "free list prev link broken at 0x%x" b;
      if B.read_used t.space b then fail "used block 0x%x on free list" b;
      Hashtbl.replace free_set b ();
      walk_list (B.read_next_free t.space b) b (n + 1)
    end
  in
  walk_list t.head nil 0;
  (* Walk the arena block by block. *)
  let a = ref Layout.heap_base in
  let prev_free = ref false in
  while !a < t.brk do
    let size = B.read_size t.space !a in
    if size < B.min_block || size land 7 <> 0 then fail "bad size %d at 0x%x" size !a;
    if !a + size > t.brk then fail "block 0x%x overruns brk" !a;
    let used = B.read_used t.space !a in
    if B.read_size_at_footer t.space (!a + size) <> size then fail "footer mismatch at 0x%x" !a;
    if B.read_used_at_footer t.space (!a + size) <> used then fail "footer flag mismatch at 0x%x" !a;
    if used then begin
      if not (Hashtbl.mem t.live (B.payload_addr !a)) then
        fail "used block 0x%x not in live table" !a
    end
    else begin
      if !prev_free then fail "uncoalesced free blocks at 0x%x" !a;
      if not (Hashtbl.mem free_set !a) then fail "free block 0x%x not on free list" !a;
      Hashtbl.remove free_set !a
    end;
    prev_free := not used;
    a := !a + size
  done;
  if !a <> t.brk then fail "arena walk ended at 0x%x, brk 0x%x" !a t.brk;
  if Hashtbl.length free_set <> 0 then fail "free list contains stale blocks"

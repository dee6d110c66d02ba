module As = Pm2_vmem.Address_space

type space = As.t

type addr = Pm2_vmem.Layout.addr

let header_size = 8
let overhead = 16
let min_block = 32

let nil = 0

let align n = (n + 7) land lnot 7

let block_size_for ~payload = max min_block (align payload + overhead)

let payload_of_block size = size - overhead

let payload_addr b = b + header_size

let block_of_payload p = p - header_size

let used_bit = 1

let read_size sp b = As.load_word sp b land lnot used_bit

let read_used sp b = As.load_word sp b land used_bit <> 0

let write_tags sp b ~size ~used =
  if size land 7 <> 0 || size < min_block then
    invalid_arg (Printf.sprintf "Blockfmt.write_tags: bad size %d" size);
  let tag = size lor (if used then used_bit else 0) in
  As.store_word sp b tag;
  As.store_word sp (b + size - 8) tag

let read_next_free sp b = As.load_word sp (b + 8)

let write_next_free sp b v = As.store_word sp (b + 8) v

let read_prev_free sp b = As.load_word sp (b + 16)

let write_prev_free sp b v = As.store_word sp (b + 16) v

let read_size_at_footer sp a = As.load_word sp (a - 8) land lnot used_bit

let read_used_at_footer sp a = As.load_word sp (a - 8) land used_bit <> 0

(* -- free lists -- *)

let push sp ~head b =
  write_next_free sp b head;
  write_prev_free sp b nil;
  if head <> nil then write_prev_free sp head b;
  b

let unlink sp ~head b =
  let prev = read_prev_free sp b in
  let next = read_next_free sp b in
  let head = if prev = nil then next else (write_next_free sp prev next; head) in
  if next <> nil then write_prev_free sp next prev;
  head

(* -- region operations -- *)

let carve sp ~head b ~need =
  let bsize = read_size sp b in
  let head = unlink sp ~head b in
  if bsize - need >= min_block then begin
    let rest = b + need in
    write_tags sp rest ~size:(bsize - need) ~used:false;
    let head = push sp ~head rest in
    write_tags sp b ~size:need ~used:true;
    (head, bsize - need)
  end
  else begin
    write_tags sp b ~size:bsize ~used:true;
    (head, 0)
  end

let release sp ~head ~lo ~hi b ~size =
  let next = b + size in
  let absorb_next = next < hi && not (read_used sp next) in
  let head = if absorb_next then unlink sp ~head next else head in
  let size = if absorb_next then size + read_size sp next else size in
  let absorb_prev = b > lo && not (read_used_at_footer sp b) in
  let psize = if absorb_prev then read_size_at_footer sp b else 0 in
  let head = if absorb_prev then unlink sp ~head (b - psize) else head in
  let b = b - psize and size = size + psize in
  write_tags sp b ~size ~used:false;
  push sp ~head b

let resize sp ~head ~lo ~hi b ~need =
  let bsize = read_size sp b in
  (* Keep [need] of the [size] bytes at [b]; a tail big enough to be a
     block goes back to the list. *)
  let shrink head size =
    if size - need < min_block then head
    else begin
      write_tags sp b ~size:need ~used:true;
      release sp ~head ~lo ~hi (b + need) ~size:(size - need)
    end
  in
  if need <= bsize then Some (shrink head bsize)
  else begin
    let next = b + bsize in
    if next < hi && not (read_used sp next) && bsize + read_size sp next >= need then begin
      let grown = bsize + read_size sp next in
      let head = unlink sp ~head next in
      write_tags sp b ~size:grown ~used:true;
      Some (shrink head grown)
    end
    else None
  end

let fold sp ~lo ~hi f acc =
  let rec walk b acc =
    if b >= hi then acc
    else begin
      let size = read_size sp b in
      (* Block headers sit in memory the guest can write: a size that
         cannot advance the walk must not spin it forever. *)
      if size < min_block then invalid_arg (Printf.sprintf "Blockfmt: corrupt block at 0x%x" b);
      walk (b + size) (f acc b ~size ~used:(read_used sp b))
    end
  in
  walk lo acc

let check sp ~head ~lo ~hi ~used =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* The free list: symmetric links, free blocks only. *)
  let listed = Hashtbl.create 16 in
  let rec walk_list b prev n =
    if n > 1_000_000 then fail "free list loop in [0x%x, 0x%x)" lo hi;
    if b <> nil then begin
      if read_prev_free sp b <> prev then fail "free list prev link broken at 0x%x" b;
      if read_used sp b then fail "used block 0x%x on free list" b;
      Hashtbl.replace listed b ();
      walk_list (read_next_free sp b) b (n + 1)
    end
  in
  walk_list head nil 0;
  (* The blocks: coherent tags, full coalescing, every free block listed. *)
  let a = ref lo and prev_free = ref false in
  while !a < hi do
    let size = read_size sp !a in
    if size < min_block || size land 7 <> 0 then fail "bad block size %d at 0x%x" size !a;
    if !a + size > hi then fail "block 0x%x overruns 0x%x" !a hi;
    let is_used = read_used sp !a in
    if read_size_at_footer sp (!a + size) <> size then fail "footer mismatch at 0x%x" !a;
    if read_used_at_footer sp (!a + size) <> is_used then fail "footer flag mismatch at 0x%x" !a;
    if is_used then used !a
    else begin
      if !prev_free then fail "uncoalesced free blocks at 0x%x" !a;
      if not (Hashtbl.mem listed !a) then fail "free block 0x%x not on free list" !a;
      Hashtbl.remove listed !a
    end;
    prev_free := not is_used;
    a := !a + size
  done;
  if !a <> hi then fail "block walk ended at 0x%x, not 0x%x" !a hi;
  if Hashtbl.length listed <> 0 then fail "free list contains stale blocks in [0x%x, 0x%x)" lo hi

let rebuild sp ~lo ~hi used =
  (* The gaps between the used blocks, collected highest first. *)
  let gap gaps cursor b = if b > cursor then (cursor, b - cursor) :: gaps else gaps in
  let gaps, cursor =
    List.fold_left (fun (gaps, cursor) (b, size) -> (gap gaps cursor b, b + size)) ([], lo) used
  in
  (* Pushing the highest gap first leaves the list in ascending address
     order, so first fit keeps preferring low addresses. *)
  List.fold_left
    (fun head (b, size) ->
       write_tags sp b ~size ~used:false;
       push sp ~head b)
    nil (gap gaps cursor hi)

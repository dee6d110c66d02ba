module As = Pm2_vmem.Address_space

type space = As.t

type addr = Pm2_vmem.Layout.addr

let size_of_header = 64

let magic_value = 0x51075107

type kind = Data | Stack

let off_magic = 0
let off_size = 8
let off_next = 16
let off_prev = 24
let off_free = 32
let off_kind = 40
let off_owner = 48

let init sp base ~size ~kind ~owner =
  As.store_word sp (base + off_magic) magic_value;
  As.store_word sp (base + off_size) size;
  As.store_word sp (base + off_next) 0;
  As.store_word sp (base + off_prev) 0;
  As.store_word sp (base + off_free) 0;
  As.store_word sp (base + off_kind) (match kind with Data -> 0 | Stack -> 1);
  As.store_word sp (base + off_owner) owner;
  As.store_word sp (base + 56) 0

let check_magic sp base =
  if As.load_word sp (base + off_magic) <> magic_value then
    failwith (Printf.sprintf "Slot_header: corrupt header at 0x%x" base)

let read_size sp base = As.load_word sp (base + off_size)
let read_next sp base = As.load_word sp (base + off_next)
let write_next sp base v = As.store_word sp (base + off_next) v
let read_prev sp base = As.load_word sp (base + off_prev)
let write_prev sp base v = As.store_word sp (base + off_prev) v
let read_free_head sp base = As.load_word sp (base + off_free)
let write_free_head sp base v = As.store_word sp (base + off_free) v

let read_kind sp base =
  match As.load_word sp (base + off_kind) with
  | 0 -> Data
  | 1 -> Stack
  | k -> failwith (Printf.sprintf "Slot_header: bad kind %d at 0x%x" k base)

let read_owner sp base = As.load_word sp (base + off_owner)

let blocks_base base = base + size_of_header

let iter_chain sp ~head f =
  let rec loop a n =
    if a <> 0 then begin
      if n > Slot.default.Slot.count then failwith "Slot_header: chain cycle";
      check_magic sp a;
      let next = read_next sp a in
      f a;
      loop next (n + 1)
    end
  in
  loop head 0

let chain_to_list sp ~head =
  let acc = ref [] in
  iter_chain sp ~head (fun a -> acc := a :: !acc);
  List.rev !acc

let link_front sp ~head base =
  write_next sp base head;
  write_prev sp base 0;
  if head <> 0 then write_prev sp head base;
  base

let unlink sp ~head base =
  let next = read_next sp base in
  let prev = read_prev sp base in
  if prev <> 0 then write_next sp prev next;
  if next <> 0 then write_prev sp next prev;
  write_next sp base 0;
  write_prev sp base 0;
  if head = base then next else head

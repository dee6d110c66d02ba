(* The wire buffer is a growable [Bytes.t] written in place. A caller
   that knows the final size passes it as [?size]: the buffer is then
   allocated once and [contents] hands it over without a copy. *)
type packer = {
  mutable buf : Bytes.t;
  mutable len : int;
}

let packer ?(size = 256) () = { buf = Bytes.create (max size 0); len = 0 }

(* Make room for [n] more bytes, doubling so a run of appends stays
   linear; returns the write position. *)
let reserve p n =
  let pos = p.len in
  let need = pos + n in
  if need > Bytes.length p.buf then begin
    let buf = Bytes.create (max need (2 * Bytes.length p.buf)) in
    Bytes.blit p.buf 0 buf 0 pos;
    p.buf <- buf
  end;
  p.len <- need;
  pos

let pack_int p v =
  let pos = reserve p 8 in
  Bytes.set_int64_le p.buf pos (Int64.of_int v)

let pack_float p v =
  let pos = reserve p 8 in
  Bytes.set_int64_le p.buf pos (Int64.bits_of_float v)

let pack_bytes p b =
  let len = Bytes.length b in
  pack_int p len;
  Bytes.blit b 0 p.buf (reserve p len) len

let pack_string p s =
  let len = String.length s in
  pack_int p len;
  Bytes.blit_string s 0 p.buf (reserve p len) len

let pack_unprefixed p ~len write =
  if len < 0 then invalid_arg "Packet.pack_unprefixed: negative length";
  let pos = reserve p len in
  write p.buf pos

let pack_raw p ~len write =
  if len < 0 then invalid_arg "Packet.pack_raw: negative length";
  pack_int p len;
  pack_unprefixed p ~len write

let pack_list p f l =
  pack_int p (List.length l);
  List.iter f l

(* Zigzag folds the sign bit into bit 0 so small negative values stay
   small on the wire; LEB128 then emits 7 bits per byte. *)
let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor (- (z land 1))

let pack_varint p v =
  let z = ref (zigzag v) in
  while !z lsr 7 <> 0 do
    Bytes.unsafe_set p.buf (reserve p 1) (Char.unsafe_chr (!z land 0x7f lor 0x80));
    z := !z lsr 7
  done;
  Bytes.unsafe_set p.buf (reserve p 1) (Char.unsafe_chr !z)

let varint_size v =
  let rec bytes z = if z lsr 7 = 0 then 1 else 1 + bytes (z lsr 7) in
  bytes (zigzag v)

let patch_int p ~pos v =
  if pos < 0 || pos > p.len - 8 then invalid_arg "Packet.patch_int: not a packed word";
  Bytes.set_int64_le p.buf pos (Int64.of_int v)

let packed_size p = p.len

let contents p =
  if p.len = Bytes.length p.buf then p.buf else Bytes.sub p.buf 0 p.len

type unpacker = {
  data : Bytes.t;
  mutable pos : int;
  stop : int; (* end of the readable window *)
}

(* [pos] and [len] default to the whole buffer. *)
let window who ?(pos = 0) ?len b =
  let len = Option.value len ~default:(Bytes.length b - pos) in
  if pos < 0 || len < 0 || len > Bytes.length b - pos then invalid_arg who;
  (pos, len)

let unpacker ?pos ?len data =
  let pos, len = window "Packet.unpacker" ?pos ?len data in
  { data; pos; stop = pos + len }

(* [n > remaining] rather than [pos + n > stop]: a length prefix near
   [max_int] must not wrap the sum past the check. *)
let need u n =
  if n > u.stop - u.pos then invalid_arg "Packet: truncated buffer"

(* Every word is written sign-extended from an OCaml int, so bit 63
   equals bit 62; a word where they differ was never written. *)
let unpack_int u =
  need u 8;
  let w = Bytes.get_int64_le u.data u.pos in
  let v = Int64.to_int w in
  if Int64.of_int v <> w then invalid_arg "Packet: word out of int range";
  u.pos <- u.pos + 8;
  v

let unpack_float u =
  need u 8;
  let v = Int64.float_of_bits (Bytes.get_int64_le u.data u.pos) in
  u.pos <- u.pos + 8;
  v

let unpack_bytes u =
  let len = unpack_int u in
  need u len;
  let b = Bytes.sub u.data u.pos len in
  u.pos <- u.pos + len;
  b

let unpack_string u = Bytes.to_string (unpack_bytes u)

let unpack_view u =
  let len = unpack_int u in
  if len < 0 then invalid_arg "Packet.unpack_view: negative length";
  need u len;
  let pos = u.pos in
  u.pos <- u.pos + len;
  (u.data, pos, len)

let unpack_list u f =
  let n = unpack_int u in
  List.init n (fun _ -> f ())

let unpack_varint u =
  let z = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    need u 1;
    let b = Char.code (Bytes.get u.data u.pos) in
    u.pos <- u.pos + 1;
    if !shift >= Sys.int_size then invalid_arg "Packet: varint overflow";
    z := !z lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  unzigzag !z

let unpack_take u len =
  if len < 0 then invalid_arg "Packet.unpack_take: negative length";
  need u len;
  let pos = u.pos in
  u.pos <- u.pos + len;
  (u.data, pos)

let remaining u = u.stop - u.pos

(* FNV-1a 64, folded to a non-negative OCaml int, for end-to-end wire
   integrity checks (reliable delivery, migration transfer). *)
let checksum ?pos ?len b =
  let pos, len = window "Packet.checksum" ?pos ?len b in
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  Int64.to_int (Int64.logand !h 0x3FFFFFFFFFFFFFFFL)

(* buf[0, len) is the unterminated tail; every byte of it has been
   searched already. *)
type t = { mutable buf : Bytes.t; mutable len : int; mutable scanned : int }

let create () = { buf = Bytes.create 256; len = 0; scanned = 0 }

let pending t = t.len
let scanned t = t.scanned

let feed t bytes pos len f =
  let need = t.len + len in
  if need > Bytes.length t.buf then begin
    let buf = Bytes.create (max need (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end;
  Bytes.blit bytes pos t.buf t.len len;
  let start = ref 0 and scanned = ref 0 in
  for i = t.len to need - 1 do
    incr scanned;
    if Bytes.unsafe_get t.buf i = '\n' then begin
      f (Bytes.sub_string t.buf !start (i - !start));
      start := i + 1
    end
  done;
  t.scanned <- t.scanned + !scanned;
  t.len <- need - !start;
  if !start > 0 then Bytes.blit t.buf !start t.buf 0 t.len

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* -- the reader: a cursor over the input string -- *)

(* Containers nest at most this deep. A deeper input is refused at the
   bracket that would exceed the cap, so neither the parser's stack nor
   its heap grows with the nesting of the input. *)
let max_depth = 64

type state = {
  s : string;
  len : int;
  mutable pos : int;
  mutable depth : int; (* containers open at the cursor *)
}

let error st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

(* The byte at the cursor as a code, -1 at the end of the input. *)
let peek st = if st.pos < st.len then Char.code (String.unsafe_get st.s st.pos) else -1

let at st c = peek st = Char.code c

let skip_ws st =
  let s = st.s and len = st.len in
  let p = ref st.pos in
  while
    !p < len && match String.unsafe_get s !p with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    incr p
  done;
  st.pos <- !p

let expect st c =
  if at st c then st.pos <- st.pos + 1 else error st (Printf.sprintf "expected %C" c)

let rec matches s p word i =
  i = String.length word
  || (String.unsafe_get s (p + i) = String.unsafe_get word i && matches s p word (i + 1))

let literal st word value =
  let n = String.length word in
  if st.pos + n <= st.len && matches st.s st.pos word 0 then begin
    st.pos <- st.pos + n;
    value
  end
  else error st ("expected " ^ word)

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

(* The four hex digits of a \u escape, at the cursor. *)
let unicode_escape st =
  if st.pos + 4 > st.len then error st "bad \\u escape";
  let d i = hex_digit (String.unsafe_get st.s (st.pos + i)) in
  let d0 = d 0 and d1 = d 1 and d2 = d 2 and d3 = d 3 in
  if d0 < 0 || d1 < 0 || d2 < 0 || d3 < 0 then error st "bad \\u escape";
  st.pos <- st.pos + 4;
  (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3

(* Re-encode a code point as UTF-8 (BMP only — enough to round-trip
   what [escape] produces). *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* The end of the run of bytes from [i] that need no decoding in a
   string: the next quote, backslash or the end of the input. *)
let plain_run s len i =
  let p = ref i in
  while !p < len && match String.unsafe_get s !p with '"' | '\\' -> false | _ -> true do
    incr p
  done;
  !p

(* The rest of a string that holds an escape, up to and past its
   closing quote; runs of plain bytes are copied whole. *)
let rec parse_escaped st buf =
  let stop = plain_run st.s st.len st.pos in
  Buffer.add_substring buf st.s st.pos (stop - st.pos);
  st.pos <- stop;
  if stop = st.len then error st "unterminated string"
  else if at st '"' then st.pos <- st.pos + 1
  else begin
    st.pos <- st.pos + 1;
    (match peek st with
     | -1 -> error st "bad escape"
     | c -> (
       match Char.unsafe_chr c with
       | 'u' ->
         st.pos <- st.pos + 1;
         add_utf8 buf (unicode_escape st)
       | c ->
         Buffer.add_char buf
           (match c with
            | '"' | '\\' | '/' -> c
            | 'n' -> '\n'
            | 't' -> '\t'
            | 'r' -> '\r'
            | 'b' -> '\b'
            | 'f' -> '\012'
            | _ -> error st "bad escape");
         st.pos <- st.pos + 1));
    parse_escaped st buf
  end

(* A string without an escape is one [String.sub] of the input. *)
let parse_string st =
  expect st '"';
  let start = st.pos in
  let stop = plain_run st.s st.len start in
  if stop < st.len && String.unsafe_get st.s stop = '"' then begin
    st.pos <- stop + 1;
    String.sub st.s start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    parse_escaped st buf;
    Buffer.contents buf
  end

(* The value of the decimal digits s[i, stop), or -1 if a byte there is
   not a digit. *)
let rec digits s i stop acc =
  if i = stop then acc
  else
    let d = Char.code (String.unsafe_get s i) - 48 in
    if d < 0 || d > 9 then -1 else digits s (i + 1) stop ((acc * 10) + d)

(* A number is the longest run of number bytes. One that reads
   [-?[0-9]{1,15}] is below 2^53, so the int converts exactly to the
   float [float_of_string] returns for it ("-0" included); every other
   run goes through [float_of_string]. *)
let parse_number st =
  let s = st.s and len = st.len in
  let start = st.pos in
  let p = ref start in
  while
    !p < len
    && match String.unsafe_get s !p with
       | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
       | _ -> false
  do
    incr p
  done;
  let stop = !p in
  st.pos <- stop;
  if stop = start then error st "expected number";
  let neg = String.unsafe_get s start = '-' in
  let first = if neg then start + 1 else start in
  let n = if stop > first && stop - first <= 15 then digits s first stop 0 else -1 in
  if n >= 0 then Num (if neg then -.float_of_int n else float_of_int n)
  else
    match float_of_string_opt (String.sub s start (stop - start)) with
    | Some f -> Num f
    | None -> error st "malformed number"

(* Past an opening bracket, one level deeper. *)
let enter st =
  if st.depth = max_depth then error st (Printf.sprintf "nesting deeper than %d" max_depth);
  st.depth <- st.depth + 1;
  st.pos <- st.pos + 1;
  skip_ws st

(* Past the closing bracket at the cursor. *)
let leave st v =
  st.depth <- st.depth - 1;
  st.pos <- st.pos + 1;
  v

let rec parse_value st =
  skip_ws st;
  match peek st with
  | -1 -> error st "unexpected end of input"
  | c -> (
    match Char.unsafe_chr c with
    | '{' ->
      enter st;
      leave st (if at st '}' then Obj [] else Obj (members st []))
    | '[' ->
      enter st;
      leave st (if at st ']' then Arr [] else Arr (elements st []))
    | '"' -> Str (parse_string st)
    | 't' -> literal st "true" (Bool true)
    | 'f' -> literal st "false" (Bool false)
    | 'n' -> literal st "null" Null
    | _ -> parse_number st)

(* [members] and [elements] stop on the closing bracket. *)
and members st acc =
  skip_ws st;
  let k = parse_string st in
  skip_ws st;
  expect st ':';
  let v = parse_value st in
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    members st ((k, v) :: acc)
  end
  else if at st '}' then List.rev ((k, v) :: acc)
  else error st "expected ',' or '}'"

and elements st acc =
  let v = parse_value st in
  skip_ws st;
  if at st ',' then begin
    st.pos <- st.pos + 1;
    elements st (v :: acc)
  end
  else if at st ']' then List.rev (v :: acc)
  else error st "expected ',' or ']'"

let parse s =
  let st = { s; len = String.length s; pos = 0; depth = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> st.len then Error "trailing characters" else Ok v
  | exception Parse_error msg -> Error msg

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> failwith ("Json.parse: " ^ msg)

(* -- serialization: one writer for the tree and for streamed shapes -- *)

(* The escaper. Quotes, backslash and the full control range
   U+0000–U+001F are escaped; bytes >= 0x80 pass through verbatim — they
   are treated as opaque UTF-8 (or latin-1 garbage) and survive a
   round-trip through [parse], which also leaves them untouched. Runs of
   plain bytes are copied whole, so a string with nothing to escape is
   appended as is. *)
let add_escaped buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
      Buffer.add_substring buf s !start (i - !start);
      (match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\b' -> Buffer.add_string buf "\\b"
       | '\012' -> Buffer.add_string buf "\\f"
       | c ->
         Buffer.add_string buf "\\u00";
         Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
         Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]);
      start := i + 1
    | _ -> ()
  done;
  Buffer.add_substring buf s !start (n - !start)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

(* The number formatter. Integral values below 1e15 print without a
   fractional tail (as [%.0f] would, "-0" included) so counters stay
   readable; everything else prints as [%.17g], which round-trips
   doubles. JSON has no Infinity/NaN: those print as null. *)

(* The digits of [n >= 0], most significant first. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* [string_of_int i] for [|i| < 1e18], without the string. *)
let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf (-i)
  end
  else add_digits buf i

(* What [Printf.sprintf "%.17g"] ends in, without the format
   interpretation in front of it: the same bytes. *)
external format_float : string -> float -> string = "caml_format_float"

(* The last [%.17g] rendering, keyed by the float's bits (event stamps
   often repeat the previous event's time). One immutable pair, so a
   reader never sees the bits of one value with the text of another. *)
let last_g = ref (Int64.bits_of_float 0., "0")

let add_g buf v =
  let bits = Int64.bits_of_float v in
  let memo_bits, memo_text = !last_g in
  if Int64.equal bits memo_bits then Buffer.add_string buf memo_text
  else begin
    let text = format_float "%.17g" v in
    last_g := (bits, text);
    Buffer.add_string buf text
  end

let add_num buf v =
  if not (Float.is_finite v) then Buffer.add_string buf "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    if v = 0. && Float.sign_bit v then Buffer.add_string buf "-0"
    else add_int buf (int_of_float v)
  else add_g buf v

(* [first]: the next value or key needs no comma before it — true at the
   start, after an opening bracket and after a key. *)
type writer = {
  buf : Buffer.t;
  mutable first : bool;
}

let writer buf = { buf; first = true }

let sep w = if w.first then w.first <- false else Buffer.add_char w.buf ','

let key w k =
  sep w;
  Buffer.add_char w.buf '"';
  add_escaped w.buf k;
  Buffer.add_string w.buf "\":";
  w.first <- true

let obj_start w =
  sep w;
  Buffer.add_char w.buf '{';
  w.first <- true

let obj_end w =
  Buffer.add_char w.buf '}';
  w.first <- false

let arr_start w =
  sep w;
  Buffer.add_char w.buf '[';
  w.first <- true

let arr_end w =
  Buffer.add_char w.buf ']';
  w.first <- false

let num w v =
  sep w;
  add_num w.buf v

(* Same bytes as [num (float_of_int i)], without the float. *)
let int w i =
  if i > -1_000_000_000_000_000 && i < 1_000_000_000_000_000 then begin
    sep w;
    add_int w.buf i
  end
  else num w (float_of_int i)

let str w s =
  sep w;
  Buffer.add_char w.buf '"';
  add_escaped w.buf s;
  Buffer.add_char w.buf '"'

let bool w b =
  sep w;
  Buffer.add_string w.buf (if b then "true" else "false")

let int_field w k i = key w k; int w i
let num_field w k v = key w k; num w v
let str_field w k s = key w k; str w s
let bool_field w k b = key w k; bool w b

let rec value w = function
  | Null ->
    sep w;
    Buffer.add_string w.buf "null"
  | Bool b -> bool w b
  | Num v -> num w v
  | Str s -> str w s
  | Arr xs ->
    arr_start w;
    List.iter (value w) xs;
    arr_end w
  | Obj kvs ->
    obj_start w;
    List.iter (fun (k, v) -> key w k; value w v) kvs;
    obj_end w

let to_string v =
  let buf = Buffer.create 256 in
  value (writer buf) v;
  Buffer.contents buf

let rec assoc key = function
  | [] -> None
  | (k, v) :: kvs -> if String.equal k key then Some v else assoc key kvs

let member key = function
  | Obj kvs -> assoc key kvs
  | _ -> None

let to_list = function Arr xs -> Some xs | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_string_val = function Str s -> Some s | _ -> None

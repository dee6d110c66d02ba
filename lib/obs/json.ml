type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = {
  s : string;
  mutable pos : int;
}

let error st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> error st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
       | Some '"' -> Buffer.add_char buf '"'; advance st
       | Some '\\' -> Buffer.add_char buf '\\'; advance st
       | Some '/' -> Buffer.add_char buf '/'; advance st
       | Some 'n' -> Buffer.add_char buf '\n'; advance st
       | Some 't' -> Buffer.add_char buf '\t'; advance st
       | Some 'r' -> Buffer.add_char buf '\r'; advance st
       | Some 'b' -> Buffer.add_char buf '\b'; advance st
       | Some 'f' -> Buffer.add_char buf '\012'; advance st
       | Some 'u' ->
         advance st;
         if st.pos + 4 > String.length st.s then error st "bad \\u escape";
         let hex = String.sub st.s st.pos 4 in
         let code =
           try int_of_string ("0x" ^ hex) with _ -> error st "bad \\u escape"
         in
         st.pos <- st.pos + 4;
         (* Re-encode the code point as UTF-8 (BMP only — enough to
            round-trip what [escape] produces). *)
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
       | _ -> error st "bad escape");
      loop ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  if st.pos = start then error st "expected number";
  match float_of_string_opt (String.sub st.s start (st.pos - start)) with
  | Some f -> f
  | None -> error st "malformed number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((k, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((k, v) :: acc)
        | _ -> error st "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> error st "expected ',' or ']'"
      in
      Arr (elements [])
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

let parse s =
  let st = { s; pos = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then Error "trailing characters"
    else Ok v
  with Parse_error msg -> Error msg

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
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      match s.[i] with
      | ('"' | '\\' | '\000' .. '\031') as c ->
        Buffer.add_substring buf s start (i - start);
        (match c with
         | '"' -> Buffer.add_string buf "\\\""
         | '\\' -> Buffer.add_string buf "\\\\"
         | '\n' -> Buffer.add_string buf "\\n"
         | '\r' -> Buffer.add_string buf "\\r"
         | '\t' -> Buffer.add_string buf "\\t"
         | '\b' -> Buffer.add_string buf "\\b"
         | '\012' -> Buffer.add_string buf "\\f"
         | c -> Printf.bprintf buf "\\u%04x" (Char.code c));
        go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

(* The number formatter. Integral values below 1e15 print without a
   fractional tail (as [%.0f] would, "-0" included) so counters stay
   readable; everything else prints as [%.17g], which round-trips
   doubles. JSON has no Infinity/NaN: those print as null. *)
let add_num buf v =
  if not (Float.is_finite v) then Buffer.add_string buf "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    if v = 0. && Float.sign_bit v then Buffer.add_string buf "-0"
    else Buffer.add_string buf (string_of_int (int_of_float v))
  else Printf.bprintf buf "%.17g" v

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
    Buffer.add_string w.buf (string_of_int i)
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

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_list = function Arr xs -> Some xs | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_string_val = function Str s -> Some s | _ -> None

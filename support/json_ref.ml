(* The reference JSON reader: the executable specification that the
   cursor reader of {!Pm2_obs.Json} is checked against in the
   differential tests, and the baseline the bechamel benchmarks measure
   it over. It peeks one [char option] at a time, builds every string
   in a [Buffer] and every number with [float_of_string]. Besides that
   reader's own history it carries two fixes that {!Pm2_obs.Json} shares:
   containers nest at most 64 deep, and a \u escape takes exactly four
   hex digits. *)

open Pm2_obs.Json

exception Parse_error of string

(* Containers nest at most this deep, as in {!Json}. *)
let max_depth = 64

type state = {
  s : string;
  mutable pos : int;
  mutable depth : int;
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

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

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
         if not (String.for_all is_hex hex) then error st "bad \\u escape";
         let code = int_of_string ("0x" ^ hex) in
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

let enter st =
  if st.depth = max_depth then error st (Printf.sprintf "nesting deeper than %d" max_depth);
  st.depth <- st.depth + 1

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
    enter st;
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      st.depth <- st.depth - 1;
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
      let kvs = members [] in
      st.depth <- st.depth - 1;
      Obj kvs
    end
  | Some '[' ->
    enter st;
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      st.depth <- st.depth - 1;
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
      let vs = elements [] in
      st.depth <- st.depth - 1;
      Arr vs
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

let parse s =
  let st = { s; pos = 0; depth = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then Error "trailing characters"
    else Ok v
  with Parse_error msg -> Error msg

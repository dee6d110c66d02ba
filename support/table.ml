module Vec = Pm2_util.Vec

type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  rows : string list Vec.t;
}

let create ?aligns headers =
  let aligns =
    match aligns with
    | Some a -> a
    | None -> List.map (fun _ -> Right) headers
  in
  if List.length aligns <> List.length headers then
    invalid_arg "Table.create: aligns/headers length mismatch";
  { headers; aligns; rows = Vec.create () }

let add_row t row = Vec.push t.rows row

(* Cells in the formatted string are separated by '|'. *)
let add_rowf t fmt =
  Format.kasprintf (fun s -> add_row t (String.split_on_char '|' s)) fmt

let render t =
  let ncols = List.length t.headers in
  let pad row = row @ List.init (max 0 (ncols - List.length row)) (fun _ -> "") in
  let rows = List.map pad (Vec.to_list t.rows) in
  let widths = Array.of_list (List.map String.length t.headers) in
  List.iter
    (fun row -> List.iteri (fun i c -> if i < ncols then widths.(i) <- max widths.(i) (String.length c)) row)
    rows;
  let aligns = Array.of_list t.aligns in
  let render_cell i c =
    let w = widths.(i) in
    let fill = String.make (w - String.length c) ' ' in
    match aligns.(i) with Left -> c ^ fill | Right -> fill ^ c
  in
  let render_row row = "  " ^ String.concat "   " (List.mapi render_cell row) in
  let sep = "  " ^ String.concat "   " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  String.concat "\n" (render_row t.headers :: sep :: List.map render_row rows)

let print ?title t =
  (match title with
   | Some s ->
     print_newline ();
     print_endline s;
     print_endline (String.make (String.length s) '=')
   | None -> ());
  print_endline (render t)

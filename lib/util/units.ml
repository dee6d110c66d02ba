let kib n = n * 1024
let mib n = n * 1024 * 1024
let gib n = n * 1024 * 1024 * 1024

let bytes_to_string n =
  let f = float_of_int n in
  if n < 1024 then Printf.sprintf "%d B" n
  else if n < 1024 * 1024 then Printf.sprintf "%g KB" (f /. 1024.)
  else if n < 1024 * 1024 * 1024 then Printf.sprintf "%g MB" (f /. (1024. *. 1024.))
  else Printf.sprintf "%g GB" (f /. (1024. *. 1024. *. 1024.))

let us_to_string us =
  if us < 1000. then Printf.sprintf "%.1f us" us
  else if us < 1_000_000. then Printf.sprintf "%.2f ms" (us /. 1000.)
  else Printf.sprintf "%.3f s" (us /. 1_000_000.)

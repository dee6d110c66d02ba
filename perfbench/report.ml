(* Metric records and the result line. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* A JSON number with every digit the float carries; non-finite values
   (a metric with no samples) render as 0. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value) m.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

(* Failed operations as a share of those attempted. *)
let failed_frac ~attempted ~failed =
  if attempted <= 0 then 1. else float_of_int failed /. float_of_int attempted

let print_table metrics =
  List.iter (fun m -> Printf.printf "# %-32s %16.6g %s\n" m.name m.value m.unit_) metrics

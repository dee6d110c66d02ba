(* Host clocks. Every timing in the benchmark is monotonic nanoseconds. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [time f] runs [f ()] and returns its result with the elapsed ns. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let s_of_ns ns = float_of_int ns /. 1e9
let us_of_ns ns = float_of_int ns /. 1e3

(* Peak resident set (VmHWM) of process [pid] in MB, from procfs; 0 when
   it cannot be read. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
      | _ -> scan ()
    in
    let r = scan () in
    close_in ic;
    r

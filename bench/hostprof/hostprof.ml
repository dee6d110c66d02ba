(* hostprof — where the host time of a perfbench workload goes.

     hostprof.exe WORKLOAD [--seconds S]

   WORKLOAD is compute, swarm, isochurn or ctl (ctl runs in-process,
   through the session the daemon would drive, without the socket). The
   workload is run over and over with seed 1, untraced, for S seconds of
   process CPU time while an ITIMER_PROF timer asks for a SIGPROF every
   CPU millisecond (the kernel delivers fewer); each signal records the
   OCaml call stack ([Printexc.get_callstack]). The report lists the top
   40 functions by inclusive share: the fraction of samples
   whose stack contains the function at least once, and beside it the
   self share (samples where it is the innermost frame). OCaml runs
   signal handlers at its next poll point, so a sample is attributed to
   the allocation or loop back-edge where the program next polled, not
   the exact instruction: treat shares under about 1% as noise. Needs
   debug information (dune's default [-g]) for the function names. *)

open Perfbench

let usage = "hostprof.exe compute|swarm|isochurn|ctl [--seconds S]"

let workload = ref ""
let seconds = ref 5.
let seed = 1
let top = 40
let hz = 1000

let run_once () =
  match !workload with
  | "compute" -> ignore (Cluster_work.untraced (Gen.compute seed))
  | "swarm" -> ignore (Cluster_work.untraced (Gen.swarm seed))
  | "isochurn" -> ignore (Cluster_work.untraced (Gen.isochurn seed))
  | "ctl" -> ignore (Ctl.replay ~seed ())
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

let samples : Printexc.raw_backtrace list ref = ref []

let on_prof _ = samples := Printexc.get_callstack 256 :: !samples

(* The frames of one sample, innermost first, by function name; the
   handler's own frames and unnamed frames are dropped. *)
let frames bt =
  match Printexc.backtrace_slots bt with
  | None -> []
  | Some slots ->
    Array.to_list slots
    |> List.filter_map Printexc.Slot.name
    |> List.filter (fun name -> not (String.starts_with ~prefix:"Dune__exe__Hostprof" name))

let report () =
  let inclusive = Hashtbl.create 256 and self = Hashtbl.create 256 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let n = List.length !samples in
  List.iter
    (fun bt ->
      match frames bt with
      | [] -> ()
      | innermost :: _ as fs ->
        bump self innermost;
        List.iter (bump inclusive) (List.sort_uniq compare fs))
    !samples;
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) inclusive []
    |> List.sort (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)
  in
  let share k = 100. *. float_of_int k /. float_of_int (max 1 n) in
  Printf.printf "# hostprof %s seed %d: %d samples (%d Hz of CPU time asked)\n" !workload seed n hz;
  Printf.printf "%8s %8s  %s\n" "incl%" "self%" "function";
  List.iteri
    (fun i (name, k) ->
      if i < top then
        Printf.printf "%8.1f %8.1f  %s\n" (share k)
          (share (Option.value ~default:0 (Hashtbl.find_opt self name)))
          name)
    rows

let () =
  let spec = [ ("--seconds", Arg.Set_float seconds, "S CPU seconds to sample (default 5)") ] in
  Arg.parse spec (fun w -> workload := w) usage;
  if !workload = "" || !seconds <= 0. then begin
    Arg.usage spec usage;
    exit 2
  end;
  (* One untimed run first, so start-up is not sampled. *)
  run_once ();
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_prof);
  let period = 1. /. float_of_int hz in
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = period; it_value = period });
  let t0 = Sys.time () in
  while Sys.time () -. t0 < !seconds do
    run_once ()
  done;
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  report ()

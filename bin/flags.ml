(* The flags pm2sim and pm2simd share, defined once: the cluster size,
   the migration scheme, the fault-spec grammar, the fault seed, delta
   migration and the checkpoint period, and the cluster configuration
   they build. *)

open Cmdliner
module Cluster = Pm2_core.Cluster

let nodes_arg =
  Arg.(value & opt int 2 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size (container processes).")

let scheme_conv =
  let parse = function
    | "iso" -> Ok Cluster.Iso
    | "relocating" | "reloc" -> Ok Cluster.Relocating
    | s -> Error (`Msg (Printf.sprintf "unknown scheme %S (iso|relocating)" s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with Cluster.Iso -> "iso" | Cluster.Relocating -> "relocating")
  in
  Arg.conv (parse, print)

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Cluster.Iso
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:"Migration scheme: $(b,iso) (the paper's iso-address scheme) or \
              $(b,relocating) (the legacy pointer-registration scheme).")

(* The $(b,--faults) grammar; each front end picks its own default. *)
let faults_conv =
  let parse s =
    match Pm2_fault.Plan.spec_of_string s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf spec ->
      Format.pp_print_string ppf (Pm2_fault.Plan.spec_to_string spec))

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:"Seed for the fault plan's random stream; the same seed and \
              spec reproduce the same failures and the same trace.")

let delta_arg =
  Arg.(
    value & opt int 0
    & info [ "delta" ] ~docv:"BYTES"
        ~doc:"Per-node residual image cache budget; positive enables delta \
              migration (v3 codec) and routes every migration through the \
              group pipeline.")

let checkpoint_interval_arg =
  Arg.(
    value & opt float 0.
    & info [ "checkpoint-interval" ] ~docv:"US"
        ~doc:"Checkpoint period in virtual microseconds; positive snapshots \
              every dirty thread into the content-addressed image store at \
              each period, enabling automatic failover when the fault spec \
              contains $(b,crash=N\\@T); 0 disables periodic checkpoints \
              (explicit $(b,checkpoint) requests work either way). Guest \
              output is buffered and committed at checkpoints, so a \
              replayed thread never prints a line twice.")

let config ?scheme ~nodes ~faults ~delta ~tracing ~checkpoint_interval () =
  let base = Cluster.default_config ~nodes:(max nodes 2) in
  {
    base with
    Cluster.scheme = Option.value scheme ~default:base.Cluster.scheme;
    faults;
    delta_cache_bytes = max 0 delta;
    tracing;
    checkpoint_interval = max 0. checkpoint_interval;
  }

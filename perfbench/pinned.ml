(* The virtual fingerprint of every workload on the default seed. A
   host-side change must reproduce these exactly; a change that means to
   alter virtual behaviour updates them (run.sh --workload W --seed 1
   prints the current value on its "# fingerprint" line). *)

let default_seed = 1

let fingerprints =
  [
    ( "compute",
      "makespan=65732.875 wire_bytes=0 wire_msgs=0 migrations=0 negotiations=0 lines=32 digest=3b6b852cd8b2eaf78cdbff4c3e61bae0" );
    ( "swarm",
      "makespan=814000.000 wire_bytes=477120 wire_msgs=1491 migrations=1491 negotiations=0 lines=500 digest=5159136adbd43367d0c5a14d6d41e97c" );
    ( "isochurn",
      "makespan=598319.948 wire_bytes=164651232 wire_msgs=3584 migrations=512 negotiations=128 lines=512 digest=7da53d277f0257ddc0ebd2cabd1498e5" );
    ( "ctl",
      "makespan=230000.000 wire_bytes=1208002 wire_msgs=1974 migrations=688 negotiations=0 lines=1170 digest=e40ef371e1a024274d1e64878458485d" );
  ]

let expected workload = List.assoc_opt workload fingerprints

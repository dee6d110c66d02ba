(* The benchmark's pinned virtual fingerprints, checked in the unit-test
   run. Each workload of perfbench runs once on the pinned seed and its
   fingerprint (makespan, wire bytes and messages, migrations,
   negotiations, guest-line digest) must equal the one in
   [Perfbench.Pinned]. A virtual drift then fails here, by name, instead
   of first showing up as a benchmark whose every run is marked failed. *)

open Perfbench

let seed = Pinned.default_seed

let check workload fp =
  Alcotest.(check (option string))
    (workload ^ " fingerprint") (Pinned.expected workload)
    (Option.map Fingerprint.to_string fp)

let cluster workload spec () =
  let it = Cluster_work.untraced spec in
  Alcotest.(check int) (workload ^ " self-checks") 0 it.Cluster_work.failed;
  check workload (Some it.Cluster_work.fp)

let ctl () =
  let r = Ctl.replay ~seed () in
  Alcotest.(check int) "ctl script failures" 0 r.Ctl.r_script.Ctl.failed;
  Alcotest.(check bool) "ctl invariants" true r.Ctl.r_invariants;
  check "ctl" r.Ctl.r_fp

let () =
  Alcotest.run "perfbench-pinned"
    [
      ( "pinned",
        [
          Alcotest.test_case "compute" `Quick (cluster "compute" (Gen.compute seed));
          Alcotest.test_case "swarm" `Quick (cluster "swarm" (Gen.swarm seed));
          Alcotest.test_case "isochurn" `Quick (cluster "isochurn" (Gen.isochurn seed));
          Alcotest.test_case "ctl" `Quick ctl;
        ] );
    ]

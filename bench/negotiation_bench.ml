(* §5 — "This negotiation takes 255 us in a 2-node configuration when
   using BIP/Myrinet. If the underlying architecture provides more than 2
   nodes, another 165 us should be added per extra node."

   We print both the closed-form protocol model and the duration actually
   measured by running a negotiation on a live cluster of each size. *)

open Pm2_core
module Table = Pm2_support.Table

let scaling () =
  Harness.section "T2: slot negotiation cost vs cluster size";
  let t =
    Table.create
      [ "nodes"; "measured (us)"; "model (us)"; "paper 255+165/extra (us)"; "slots bought" ]
  in
  List.iter
    (fun nodes ->
       let c = Harness.cluster ~nodes () in
       let neg = Cluster.negotiation c in
       let g = Negotiation.execute_exn neg ~requester:0 ~n:8 in
       Negotiation.check_global_invariant neg;
       let model = Negotiation.duration_model neg ~nodes in
       let paper = 255. +. (165. *. float_of_int (nodes - 2)) in
       Table.add_rowf t "%d|%.1f|%.1f|%.0f|%d" nodes g.Negotiation.duration model paper
         g.Negotiation.bought)
    [ 2; 3; 4; 6; 8; 12; 16 ];
  Table.print t;
  let c = Harness.cluster ~nodes:3 () in
  let neg = Cluster.negotiation c in
  let d2 = Negotiation.duration_model neg ~nodes:2 in
  let per = Negotiation.duration_model neg ~nodes:3 -. d2 in
  Harness.note "measured: %.1f us at 2 nodes, +%.1f us per extra node" d2 per;
  Harness.note "(each gather/scatter moves one 7 KB slot bitmap per remote node)"

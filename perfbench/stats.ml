(* Order statistics for the report. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* 1-based nearest rank of percentile [p] (an integer percent) among [n]
   samples: the smallest rank with at least p% of the samples at or
   below it. Integer arithmetic, so p99 of 1000 samples is rank 990. *)
let rank ~n p = max 1 (((p * n) + 99) / 100)

(* Nearest-rank percentile, reported only when at least [min_beyond]
   samples lie strictly beyond it; [None] otherwise. *)
let percentile ?(min_beyond = 10) xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then None
  else
    let k = rank ~n p in
    if n - k < min_beyond then None else Some a.(k - 1)

(* The nearest-rank percentile of each consecutive block of [block]
   samples (a short last block is dropped), median over the blocks. A
   burst of host interruptions inflates one block's tail instead of the
   whole run's. [None] when no block is full or a block's percentile
   has fewer than [min_beyond] samples beyond it. *)
let block_percentile ?(block = 1000) ?min_beyond xs p =
  let rec blocks acc cur n = function
    | [] -> List.rev acc
    | x :: rest ->
      if n + 1 = block then blocks (List.rev (x :: cur) :: acc) [] 0 rest
      else blocks acc (x :: cur) (n + 1) rest
  in
  let per_block = List.map (fun b -> percentile ?min_beyond b p) (blocks [] [] 0 xs) in
  if per_block = [] || List.mem None per_block then None
  else Some (median (List.map Option.get per_block))

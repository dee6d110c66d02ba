module Bitset = Pm2_util.Bitset

type t =
  | Round_robin
  | Block_cyclic of int
  | Partition
  | Custom of (slots:int -> nodes:int -> slot:int -> int)

let owner t ~slots ~nodes ~slot =
  match t with
  | Round_robin -> slot mod nodes
  | Block_cyclic k ->
    if k <= 0 then invalid_arg "Distribution: Block_cyclic needs k > 0";
    slot / k mod nodes
  | Partition ->
    (* p equal contiguous sub-areas; the remainder goes to the last node. *)
    min (nodes - 1) (slot / ((slots + nodes - 1) / nodes))
  | Custom f ->
    let n = f ~slots ~nodes ~slot in
    if n < 0 || n >= nodes then
      invalid_arg (Printf.sprintf "Distribution: custom pattern returned bad node %d" n);
    n

(* Bits [x, y) of a word, for [0 <= x < y <= 64]. *)
let bits_between x y =
  Int64.logand (Int64.shift_left (-1L) x) (Int64.shift_right_logical (-1L) (64 - y))

(* Word [k] of the map of a node that owns the slots [s] with
   [s mod period] in [lo, lo + len), [lo + len <= period]: the bits of
   the runs [lo + m * period, + len) that meet slots [64k, 64k + 64). *)
let cyclic_word ~period ~lo ~len k =
  let s = k lsl 6 in
  let d = s - lo in
  (* The last run that starts at or below [s]. *)
  let a = ref (lo + ((if d >= 0 then d / period else -((period - 1 - d) / period)) * period)) in
  let w = ref 0L in
  while !a < s + 64 do
    let x = Int.max !a s - s and y = Int.min (!a + len) (s + 64) - s in
    if y > x then w := Int64.logor !w (bits_between x y);
    a := !a + period
  done;
  !w

(* The words of that map. Word [k] depends only on [64k mod period], so
   where a word holds many runs ([period <= 64]) the words repeat every
   [period / gcd 64 period] and are computed once per repeat. *)
let node_words ~period ~lo ~len =
  if period > 64 then cyclic_word ~period ~lo ~len
  else begin
    let repeat = period / (period land -period) in
    let words = Array.init repeat (cyclic_word ~period ~lo ~len) in
    fun k -> words.(k mod repeat)
  end

let populate t ~geometry ~nodes =
  let slots = geometry.Slot.count in
  let cyclic ~period ~lo ~len =
    Array.init nodes (fun n ->
        Bitset.init_words slots (node_words ~period ~lo:(lo n) ~len:(len n)))
  in
  match t with
  | Round_robin -> cyclic ~period:nodes ~lo:Fun.id ~len:(fun _ -> 1)
  | Block_cyclic k ->
    if k <= 0 then invalid_arg "Distribution: Block_cyclic needs k > 0";
    cyclic ~period:(k * nodes) ~lo:(fun n -> n * k) ~len:(fun _ -> k)
  | Partition ->
    (* One run per node, cut at [slots], the last node's reaching it: a
       period of [slots] puts no second run inside the map. *)
    let run = (slots + nodes - 1) / nodes in
    let lo n = min (n * run) slots in
    cyclic ~period:(max slots 1) ~lo ~len:(fun n ->
        if n = nodes - 1 then slots - lo n else min run (slots - lo n))
  | Custom _ ->
    let maps = Array.init nodes (fun _ -> Bitset.create slots) in
    for slot = 0 to slots - 1 do
      Bitset.set maps.(owner t ~slots ~nodes ~slot) slot
    done;
    maps

let to_string = function
  | Round_robin -> "round-robin"
  | Block_cyclic k -> Printf.sprintf "block-cyclic(%d)" k
  | Partition -> "partition"
  | Custom _ -> "custom"

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p95 : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
    let m = mean xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    sqrt (ss /. float_of_int (List.length xs - 1))

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
  end

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ ->
    {
      n = List.length xs;
      mean = mean xs;
      stddev = stddev xs;
      min = List.fold_left min infinity xs;
      max = List.fold_left max neg_infinity xs;
      median = percentile 50. xs;
      p95 = percentile 95. xs;
    }

module Histogram = struct
  type t = {
    bounds : float array; (* ascending upper bounds; last bucket is overflow *)
    counts : int array; (* length = Array.length bounds + 1 *)
    mutable n : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  (* 1-2-5 series from 1 to 1e7 — covers microsecond latencies and byte
     counts alike. *)
  let default_bounds =
    let decades = [ 1.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. ] in
    Array.of_list
      (List.concat_map (fun d -> [ d; 2. *. d; 5. *. d ]) decades @ [ 1e7 ])

  let create ?(bounds = default_bounds) () =
    if Array.length bounds = 0 then invalid_arg "Histogram.create: no bounds";
    Array.iteri
      (fun i b ->
         if i > 0 && bounds.(i - 1) >= b then
           invalid_arg "Histogram.create: bounds not strictly increasing")
      bounds;
    {
      bounds = Array.copy bounds;
      counts = Array.make (Array.length bounds + 1) 0;
      n = 0;
      sum = 0.;
      min = infinity;
      max = neg_infinity;
    }

  (* Index of the first bound >= x, or the overflow bucket. *)
  let bucket_index t x =
    let lo = ref 0 and hi = ref (Array.length t.bounds) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.bounds.(mid) >= x then hi := mid else lo := mid + 1
    done;
    !lo

  let add t x =
    let i = bucket_index t x in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let sum t = t.sum
  let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n

  (* The raw extrema are ±infinity before the first sample — never report
     those (they leak into reports as garbage and are not valid JSON). *)
  let min_value t = if t.n = 0 then 0. else t.min
  let max_value t = if t.n = 0 then 0. else t.max
  let num_buckets t = Array.length t.counts

  let bucket_count t i =
    if i < 0 || i >= Array.length t.counts then
      invalid_arg "Histogram.bucket_count: bad index";
    t.counts.(i)

  (* Upper bound of bucket [i]; the overflow bucket reports the largest
     sample seen (or infinity when empty). *)
  let bucket_upper t i =
    if i < Array.length t.bounds then t.bounds.(i)
    else if t.n > 0 then t.max
    else infinity

  let merge a b =
    if a.bounds <> b.bounds then invalid_arg "Histogram.merge: bounds differ";
    let m = create ~bounds:a.bounds () in
    Array.iteri (fun i c -> m.counts.(i) <- c + b.counts.(i)) a.counts;
    m.n <- a.n + b.n;
    m.sum <- a.sum +. b.sum;
    m.min <- Stdlib.min a.min b.min;
    m.max <- Stdlib.max a.max b.max;
    m

  (* Bucket-resolution estimate: the upper bound of the bucket holding the
     p-th sample, clamped to the observed range. [None] on the empty
     histogram. *)
  let percentile t p =
    if p < 0. || p > 100. then invalid_arg "Histogram.percentile: p out of range";
    if t.n = 0 then None
    else begin
      let target =
        Stdlib.max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.n)))
      in
      let rec walk i cum =
        let cum = cum + t.counts.(i) in
        if cum >= target then Stdlib.min (bucket_upper t i) t.max
        else walk (i + 1) cum
      in
      Some (Stdlib.max t.min (walk 0 0))
    end

  let pp ppf t =
    match percentile t 50., percentile t 95., percentile t 99. with
    | Some p50, Some p95, Some p99 ->
      Format.fprintf ppf "n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f"
        t.n (mean t) p50 p95 p99 t.max
    | _ -> Format.fprintf ppf "n=0"
end

module Acc = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. }

  let add t x =
    t.n <- t.n + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let n t = t.n
  let mean t = t.mean
  let stddev t = if t.n < 2 then 0. else sqrt (t.m2 /. float_of_int (t.n - 1))
  let min t = t.min
  let max t = t.max
  let total t = t.total
end

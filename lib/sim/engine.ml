type time = float

(* All-float, so stored flat: a float field of a mixed record would box
   a fresh float on every store. *)
type clock = { mutable now : float }

(* A binary min-heap on (at, seq), kept as three columns so that queueing
   an event stores a float, an int and a pointer and allocates nothing.
   Slots past [len] hold [ignore], so a run closure is not kept alive
   once its event has run. *)
type t = {
  clock : clock;
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable runs : (unit -> unit) array;
  mutable len : int;
  mutable next_seq : int;
}

let initial = 64

let create () =
  {
    clock = { now = 0. };
    times = Float.Array.make initial 0.;
    seqs = Array.make initial 0;
    runs = Array.make initial ignore;
    len = 0;
    next_seq = 0;
  }

let now t = t.clock.now

let grow t =
  let n = Array.length t.runs in
  let times = Float.Array.make (2 * n) 0. in
  Float.Array.blit t.times 0 times 0 n;
  let seqs = Array.make (2 * n) 0 in
  Array.blit t.seqs 0 seqs 0 n;
  let runs = Array.make (2 * n) ignore in
  Array.blit t.runs 0 runs 0 n;
  t.times <- times;
  t.seqs <- seqs;
  t.runs <- runs

(* Sift up with a hole: parents later than (at, seq) move down into it,
   and the new event is written once, where the hole stops. Inlined into
   both callers so that [at] never leaves a register (a call would box
   it). *)
let[@inline] insert t at f =
  if t.len = Array.length t.runs then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.times and seqs = t.seqs and runs = t.runs in
  let i = ref t.len in
  t.len <- t.len + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = Float.Array.unsafe_get times p in
    if at < pt || (at = pt && seq < Array.unsafe_get seqs p) then begin
      Float.Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set runs !i (Array.unsafe_get runs p);
      i := p
    end
    else moving := false
  done;
  Float.Array.unsafe_set times !i at;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set runs !i f

let schedule t ~at f =
  if at < t.clock.now then
    invalid_arg (Printf.sprintf "Engine.schedule: at=%g < now=%g" at t.clock.now);
  insert t at f

(* [Stdlib.max] specialised to floats: the same [>=] test, without the
   polymorphic compare it makes on every call. Not [Float.max], whose
   NaN and -0 rules differ. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

let schedule_after t ~delay f = insert t (t.clock.now +. fmax 0. delay) f

let next_seq t = t.next_seq

let peek_next t = if t.len = 0 then None else Some (Float.Array.get t.times 0, t.seqs.(0))

let pending t = t.len

(* Remove the root: the last event fills a hole sifted down from the
   root, each step moving the earlier child up into it. *)
let remove_min t =
  let times = t.times and seqs = t.seqs and runs = t.runs in
  let last = t.len - 1 in
  t.len <- last;
  let at = Float.Array.unsafe_get times last
  and seq = Array.unsafe_get seqs last
  and f = Array.unsafe_get runs last in
  Array.unsafe_set runs last ignore;
  if last > 0 then begin
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= last then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < last
             && (let lt = Float.Array.unsafe_get times l and rt = Float.Array.unsafe_get times r in
                 rt < lt || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l))
          then r
          else l
        in
        let ct = Float.Array.unsafe_get times c in
        if ct < at || (ct = at && Array.unsafe_get seqs c < seq) then begin
          Float.Array.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set runs !i (Array.unsafe_get runs c);
          i := c
        end
        else moving := false
      end
    done;
    Float.Array.unsafe_set times !i at;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set runs !i f
  end

let step t =
  if t.len = 0 then false
  else begin
    let at = Float.Array.unsafe_get t.times 0 and f = Array.unsafe_get t.runs 0 in
    remove_min t;
    t.clock.now <- fmax t.clock.now at;
    f ();
    true
  end

let run ?until ?(max_events = 200_000_000) t =
  let count = ref 0 in
  let stop = ref false in
  while not !stop do
    if t.len = 0 then stop := true
    else
      match until with
      | Some u when Float.Array.unsafe_get t.times 0 > u ->
        t.clock.now <- fmax t.clock.now u;
        stop := true
      | _ ->
        incr count;
        if !count > max_events then failwith "Engine.run: max_events exceeded";
        ignore (step t)
  done;
  now t

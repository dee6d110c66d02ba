(* All-float, so stored flat: a float field of a mixed record would box
   a fresh float on every store. *)
type acc = { mutable v : float }

type t = {
  id : int;
  space : Pm2_vmem.Address_space.t;
  heap : Pm2_heap.Malloc.t;
  mgr : Slot_manager.t;
  queue : Thread.t Pm2_util.Dlist.t;
  mutable tick_scheduled : bool;
  mutable tick : unit -> unit;
  acc : acc;
  prng : Pm2_util.Prng.t;
}

let create ?(obs = Pm2_obs.Collector.null) ~id ~cost ~geometry ~bitmap ~cache_capacity ~seed () =
  let space = Pm2_vmem.Address_space.create ~node:id () in
  let acc = { v = 0. } in
  let charge c = acc.v <- acc.v +. c in
  {
    id;
    space;
    heap = Pm2_heap.Malloc.create ~obs ~node:id space cost ~charge;
    mgr =
      Slot_manager.create ~obs ~node:id ~geometry ~space ~cost ~charge ~bitmap
        ~cache_capacity ();
    queue = Pm2_util.Dlist.create ();
    tick_scheduled = false;
    tick = ignore;
    acc;
    prng = Pm2_util.Prng.create ~seed:(seed + (id * 7919));
  }

let charge t c = t.acc.v <- t.acc.v +. c

(* Below this many adds, plain adds are cheaper than a run: on a 2-vCPU
   x86-64 VM a run cost about 9 ns, and a dependent add about 0.5. *)
let few = 16

(* A binade at a time; node.mli has why a run [x +. k*d*u] gives the bits
   of its [k] adds. A run stops below the binade's top, and the plain
   add after it takes the crossing. The floats stay in this one
   function's locals (a recursive loop would box its float arguments), and
   the flat accumulator is written once. The last adds run in a loop of
   their own over a fresh local, which the compiler keeps in a register. *)
let charge_steps t n c =
  let s = ref t.acc.v and left = ref n in
  while !left >= few do
    let x = !s in
    if x >= 0x1p-1022 && x < infinity && c >= 0. then begin
      let bits = Int64.bits_of_float x in
      let u = Int64.float_of_bits (Int64.logand bits 0x7ff0_0000_0000_0000L) *. 0x1p-52 in
      let q = c /. u in
      if q < 0x1p52 then begin
        let whole = truncate q in
        let frac = q -. float_of_int whole in
        if frac <> 0.5 then begin
          let d = if frac < 0.5 then whole else whole + 1 in
          let room =
            if d = 0 then !left
            else (0xf_ffff_ffff_ffff - Int64.to_int (Int64.logand bits 0xf_ffff_ffff_ffffL)) / d
          in
          let run = if room < !left then room else !left in
          s := x +. (float_of_int (run * d) *. u);
          left := !left - run
        end
      end
    end;
    if !left > 0 then begin
      s := !s +. c;
      decr left
    end
  done;
  let r = ref !s in
  for _ = 1 to !left do
    r := !r +. c
  done;
  t.acc.v <- !r

let take_charges t =
  let c = t.acc.v in
  t.acc.v <- 0.;
  c

let isolate t f =
  let before = t.acc.v in
  Fun.protect ~finally:(fun () -> t.acc.v <- before) (fun () ->
      let r = f () in
      (r, t.acc.v -. before))

let load t = Pm2_util.Dlist.length t.queue

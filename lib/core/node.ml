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
    acc;
    prng = Pm2_util.Prng.create ~seed:(seed + (id * 7919));
  }

let charge t c = t.acc.v <- t.acc.v +. c

let charge_steps t n c =
  let sum = ref t.acc.v in
  for _ = 1 to n do
    sum := !sum +. c
  done;
  t.acc.v <- !sum

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

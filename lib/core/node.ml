type t = {
  id : int;
  space : Pm2_vmem.Address_space.t;
  heap : Pm2_heap.Malloc.t;
  mgr : Slot_manager.t;
  queue : Thread.t Pm2_util.Dlist.t;
  mutable tick_scheduled : bool;
  mutable charged : float;
  prng : Pm2_util.Prng.t;
}

let create ?(obs = Pm2_obs.Collector.null) ?(allocator_policy = Pm2_heap.Malloc.First_fit)
    ~id ~cost ~geometry ~bitmap ~cache_capacity ~seed () =
  let space = Pm2_vmem.Address_space.create ~node:id () in
  let rec node =
    lazy
      {
        id;
        space;
        heap =
          Pm2_heap.Malloc.create ~obs ~node:id ~policy:allocator_policy space cost ~charge;
        mgr =
          Slot_manager.create ~obs ~node:id ~geometry ~space ~cost ~charge ~bitmap
            ~cache_capacity ();
        queue = Pm2_util.Dlist.create ();
        tick_scheduled = false;
        charged = 0.;
        prng = Pm2_util.Prng.create ~seed:(seed + (id * 7919));
      }
  and charge c =
    let n = Lazy.force node in
    n.charged <- n.charged +. c
  in
  Lazy.force node

let charge t c = t.charged <- t.charged +. c

let take_charges t =
  let c = t.charged in
  t.charged <- 0.;
  c

let load t = Pm2_util.Dlist.length t.queue

(** One node of a PM2 configuration: the container (heavy) process.

    "In a PM2 application, there is a single (heavy) process running at
    each node [...] We often identify this container process with the node
    running it." (§2). A node bundles the simulated address space, the
    local heap, the slot manager, the run queue of its scheduler and a
    virtual-CPU-time accumulator into which all runtime work is charged.
    The accumulator is a private flat float cell, so charging allocates
    nothing; only the functions below (and the heap and slot manager's
    [charge] closure) touch it. *)

type acc

type t = {
  id : int;
  space : Pm2_vmem.Address_space.t;
  heap : Pm2_heap.Malloc.t;
  mgr : Slot_manager.t;
  queue : Thread.t Pm2_util.Dlist.t;
  mutable tick_scheduled : bool;
  mutable tick : unit -> unit;
      (* the scheduler's event for this node: built once, when the node
         boots into a cluster, and queued by every [schedule_tick], so
         waking a node allocates no closure ([ignore] until then) *)
  acc : acc;
  prng : Pm2_util.Prng.t;
}

(** [?obs] is handed down to the heap and the slot manager (events are
    attributed to [id]). *)
val create :
  ?obs:Pm2_obs.Collector.t ->
  id:int ->
  cost:Pm2_sim.Cost_model.t ->
  geometry:Slot.t ->
  bitmap:Pm2_util.Bitset.t ->
  cache_capacity:int ->
  seed:int ->
  unit ->
  t

(** Add virtual CPU time to the node's accumulator. *)
val charge : t -> float -> unit

(** [charge_steps t n c] leaves the accumulator with the bits of [n]
    calls of [charge t c], the left fold [((v +. c) +. c) ... +. c], which
    one add of [float n *. c] would not. It computes the fold a binade at
    a time: in [[2^e, 2^(e+1))] the doubles are the multiples of
    [u = 2^(e-52)], and every add rounds [c] to the same multiple [d*u]
    (unless [c/u] is a tie, where round-to-even reads the sum's last
    bit), so [k] adds that stay below [2^(e+1)] are exactly [+ k*d*u]. A
    single [+. c] is taken at each binade crossing, on a tie, for a zero,
    subnormal, negative or non-finite sum, for a negative, NaN or huge
    [c], and when few adds remain. Allocates nothing. *)
val charge_steps : t -> int -> float -> unit

(** Read and reset the accumulator. *)
val take_charges : t -> float

(** [isolate t f] is [f ()] paired with the time it charged to [t],
    which is taken back out of the accumulator, also when [f] raises. *)
val isolate : t -> (unit -> 'a) -> 'a * float

(** Number of runnable threads currently queued. *)
val load : t -> int

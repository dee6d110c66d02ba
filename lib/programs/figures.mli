(** The paper's example programs (Figs. 1–4, 7, 9), the migration
    ping-pong of §5, and the irregular-workload generators, written
    against the MiniVM assembler and assembled by {!image} into the
    single SPMD program image that every experiment loads.

    Its entry points:
    - ["fig1"] — Fig. 1: a local variable, no pointers; prints
      ["value = 1"] on node 0, migrates, prints it again on node 1.
    - ["fig2"] — Fig. 2: reads a local through an {e unregistered}
      pointer before and after migration. Works under the iso-address
      scheme; segfaults after migration under the relocating scheme.
    - ["fig3"] — Fig. 3: same as fig2 but the pointer is registered with
      [pm2_register_pointer]; works under both schemes.
    - ["fig4"] — Fig. 4: writes to a [malloc]'d array, migrates, reads it
      back: the heap data does not follow the thread — segfault.
    - ["fig7"] — Figs. 7–8: builds an [arg]-element linked list with
      [pm2_isomalloc], prints ["I am thread %p"], then traverses it
      printing every element, migrating to node 1 when reaching element
      {!fig7_migrate_at}. All pointers stay valid.
    - ["fig9"] — Fig. 9: the same program with [malloc] instead of
      [pm2_isomalloc]: the list does not migrate and the traversal faults
      on node 1.
    - ["pingpong"] — §5: migrates back and forth between nodes 0 and 1,
      [arg] round trips, then halts. Used for the null-thread migration
      measurement.
    - ["pingpong_payload"] — like pingpong but first isomallocs [arg]
      bytes of private data (the block is written once) and makes 4
      round trips; measures migration cost as a function of the live
      data carried.
    - ["deep_pingpong"] — recurses [arg] frames deep (building a long
      frame-pointer chain through the stack), then does one round trip
      and unwinds, checking a stack canary on return. Exercises
      compiler-generated pointers across migration.
    - ["spawner"] — spawns [arg] "worker" threads on the local node, each
      with a pseudo-random workload; workers burn CPU in small chunks and
      yield, so a load balancer can migrate them.
    - ["registered_hop"] — registers [arg] pointers to stack cells,
      migrates to node 1, dereferences them all (summing), and prints the
      sum. Workload for the A4 post-migration-cost experiment. *)

val fig7_migrate_at : int
(** 100, as in the paper. *)

(** [image ()] assembles every entry point above into one program. *)
val image : unit -> Pm2_mvm.Program.t

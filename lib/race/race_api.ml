(* Race-detection hook vocabulary.

   This is a dependency-free leaf library: the simulator, the STM, the
   log, and the serving layer all carry an [hooks option] and fire
   these callbacks at their annotated shared-state accesses and
   synchronization edges, while the detector itself (Check.Racecheck)
   lives at the top of the dependency graph.  Keeping the vocabulary
   here breaks the cycle — sim depends only on fmt, mtm cannot see
   check — exactly like the pmcheck/history hook pattern, but shared
   across every layer.

   The disabled path in every instrumented module is a single
   [match t.race with None -> () | Some h -> ...] branch, which is
   what keeps the detector-off simulated figures bit-identical.

   Vocabulary (DESIGN.md section 18):

   - [read]/[write] — *plain* accesses to an annotated volatile
     location, named by a stable string label.  These are checked: two
     plain accesses (at least one a write) unordered by happens-before
     are a race.

   - [acquire]/[release]/[rmw] — *atomic* accesses.  Never reported as
     racing; instead they move vector clocks through the location's
     sync clock: release publishes the accessor's clock, acquire joins
     it in, rmw does both (a C++-style acq_rel read-modify-write).
     Queues annotate push as release and pop as acquire (channel
     semantics); single-word CAS-able fields (lock-table entries,
     timestamp counters, RAWL cursors, flags) annotate their updates
     as rmw and their interrogations as acquire.

   - [fork]/[transfer] — direct fiber-to-fiber edges: [fork] at spawn
     (parent's clock seeds the child), [transfer] when one fiber requeues
     another (park/notify delivery, mutex ownership handoff, service unpark;
     not a park's own timeout).  A plain [yield] deliberately fires nothing:
     being scheduled after someone is not synchronization, so races are
     flagged even on schedules where the bad interleaving did not happen to
     fire. *)

type hooks = {
  read : string -> unit;
  write : string -> unit;
  acquire : string -> unit;
  release : string -> unit;
  rmw : string -> unit;
  fork : parent:int -> child:int -> unit;
  transfer : src:int -> dst:int -> unit;
}

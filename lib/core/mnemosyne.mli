(** Mnemosyne: lightweight persistent memory.

    The public facade over the full stack — SCM device emulation,
    persistent regions, persistence primitives, the persistent heap,
    raw word logs and durable memory transactions — mirroring the
    programming interface of table 3 of the paper:

    {v
    pstatic var            -> pstatic
    pmap / punmap          -> pmap / punmap
    pmalloc / pfree        -> pmalloc / pfree
    log_create/append/...  -> log_create / Log.append / ...
    atomic { ... }         -> atomically
    store/wtstore/flush/
    fence                  -> via view + Region.Pmem
    v}

    A Mnemosyne instance corresponds to one process attached to one SCM
    device with one backing-file directory.  [open_instance] performs
    the full reincarnation sequence of section 6.3.2: boot the region
    manager from the persistent mapping table, remap regions, replay
    the allocator's and the transaction system's logs, and rebuild the
    heap's volatile indexes. *)

type t

type geometry = {
  scm_frames : int;  (** SCM device size in 4-KiB frames. *)
  heap_superblocks : int;
  heap_large_bytes : int;
}

val open_instance :
  ?geometry:geometry ->
  ?latency:Scm.Latency_model.t ->
  ?mtm:Mtm.Txn.config ->
  ?seed:int ->
  ?obs:Obs.t ->
  ?machine:Scm.Env.machine ->
  dir:string ->
  unit ->
  t
(** Open (creating or recovering) the instance whose state lives in
    [dir]: the SCM device image [dir/scm.img] (absent = first boot or
    device replacement — regions reload from their backing files) and
    the region backing files.

    [machine] supplies a pre-built machine (from {!prepare_machine})
    instead of loading one from [dir].  The crash-schedule explorer
    needs this split: it arms the machine's crash point before recovery
    runs, and still holds the machine when a {!Scm.Crashpoint}
    [Simulated_crash] unwinds out of [open_instance] mid-recovery. *)

val prepare_machine :
  ?geometry:geometry ->
  ?latency:Scm.Latency_model.t ->
  ?seed:int ->
  ?obs:Obs.t ->
  ?crash_point:Scm.Crashpoint.t ->
  dir:string ->
  unit ->
  Scm.Env.machine
(** The machine-construction half of {!open_instance}: load [dir]'s
    device image (or build a fresh zeroed device), wrapped in fresh
    volatile state.  No recovery is run. *)

val reset_dir : string -> (unit, string) result
(** Make [dir] safe to (re)create an instance in: a missing or empty
    directory is left as is; an instance directory is deleted
    recursively; anything else is refused with an explanatory error —
    stress drivers must not [rm -rf] arbitrary user paths. *)

val reincarnate : t -> t
(** Crash the machine (adversarial policy) and go through the full
    reboot: save the device image, discard all volatile state, reopen.
    What you get back is exactly what a power failure would leave. *)

val close : t -> unit
(** Clean shutdown: flush everything, write regions to their backing
    files and save the device image. *)

(** {1 Accessors for the layered APIs} *)

val machine : t -> Scm.Env.machine

val obs : t -> Obs.t
(** The machine's observability handle: counters and the flight
    recorder are always on; call {!Obs.enable_trace} on it (or pass
    [?obs] with tracing enabled to {!open_instance}) to also keep an
    exportable trace.  {!reincarnate} carries the handle across the
    crash, so metrics span reboots. *)

val pmem : t -> Region.Pmem.t
val heap : t -> Pmheap.Heap.t
val pool : t -> Mtm.Txn.pool
val view : t -> Region.Pmem.view
(** The instance's default (main-thread) view. *)

(** {1 Table-3 API} *)

val pstatic : t -> string -> int -> int
(** Named persistent global: same address every run, zeroed on the
    first (see {!Region.Pstatic}). *)

val pmap : t -> int -> int
val punmap : t -> int -> unit

val pmalloc : t -> int -> slot:int -> int
val pfree : t -> slot:int -> unit

val atomically : t -> (Mtm.Txn.t -> 'a) -> 'a
(** Run a durable memory transaction on the instance's main thread.
    For multi-threaded use bind per-thread contexts with {!thread}. *)

val thread : t -> int -> Scm.Env.t -> Mtm.Txn.thread

(** Raw word logs for append-only structures (table 3's log class). *)
module Log : sig
  type log

  val create : t -> name:string -> cap_words:int -> log
  (** Find-or-create a named log rooted in a [pstatic] slot: on the
      first run a region is mapped and initialized; later runs recover
      it, discarding torn appends. *)

  val recovered : log -> int64 array list
  (** Records that survived in the log at open time. *)

  val append : log -> int64 array -> unit
  (** Appends, truncating synchronously if the log is full. *)

  val flush : log -> unit
  val truncate : log -> unit
end

(** {1 Reincarnation statistics (section 6.3.2)} *)

type reincarnation_stats = {
  boot_ns : int;  (** Region-manager mapping-table scan at OS boot. *)
  remap_ns : int;  (** Re-mapping persistent regions at process start. *)
  heap_scavenge_ns : int;  (** Rebuilding the heap's volatile indexes. *)
  txns_replayed : int;  (** Committed-but-unflushed transactions redone. *)
  txn_replay_ns : int;  (** Simulated time spent replaying them. *)
}

val reincarnation_stats : t -> reincarnation_stats

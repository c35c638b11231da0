(** Durable memory transactions — libmtm (paper section 5).

    A word-based software transactional memory in the TinySTM mould,
    made durable with write-ahead redo logging into per-thread tornbit
    RAWLs:

    - {e lazy version management}: writes are buffered in a volatile
      write set; reads check the write set first and return buffered
      values ("memory at a variable's address still contains unmodified
      values" during the transaction);
    - {e encounter-time locking}: the first write to a location
      acquires its lock from the global {!Lock_table}; hitting a lock
      owned by another transaction aborts;
    - {e commit}: validate the read set, take a {!Timestamp}, stream
      the redo record to this thread's RAWL and flush it with the
      single tornbit fence — the durability point — then write the new
      values back and release the locks with the commit timestamp;
    - {e truncation}: [`Sync] forces the written cache lines to SCM and
      truncates the log inside commit; [`Async] queues the work for a
      truncation daemon, shortening commit latency at the risk of
      stalling when the log fills (paper figure 6);
    - {e recovery}: at pool creation every thread log is scanned and
      complete records are replayed in global-timestamp order.

    The paper's compiler turns [atomic] blocks into calls equivalent to
    {!load} and {!store}; here those calls are written by hand. *)

type pool
type thread
type t  (** An executing transaction. *)

type truncation = Sync | Async

(** The design choice of paper section 5.  [Lazy_redo] is Mnemosyne's
    choice: writes are buffered and logged as redo records, so "the
    only requirement is that the log is written completely before any
    data values are updated" — one fence per transaction.  [Eager_undo]
    is the alternative the paper rejects: writes go to memory in place
    and the old value is logged first, "ordering a log write before
    every memory update" — one fence per first write to each word.
    Implemented so the trade-off is measurable (the ablation_undo bench
    section).  Undo commits by log truncation, so it cannot be combined
    with [Async]. *)
type version_mgmt = Lazy_redo | Eager_undo

(** Conflict-management policy.  [Cm_legacy] (default) aborts on any foreign
    lock owner and backs off linearly with random jitter — bit-identical to
    before the knob existed.  [Cm_adaptive] adds timestamp-priority waiting
    (wait-die: the older transaction parks on the lock — woken by the
    owner's release, giving up after 800 ns — and then retries the access; a
    younger transaction aborts at once, so wait chains run strictly
    old-to-young and cannot deadlock) and an exponential retry backoff,
    capped at 12.8 us, scaled by how contended the aborting cache line has
    been.  Priority stamps are assigned once per {!run} — not per attempt —
    so a transaction that keeps retrying ages into higher priority (karma),
    which is what flattens the contended throughput curve.  The backoff
    jitter still comes from the same 4-way draw as the legacy policy, so
    recorded schedules replay bit-exactly under either manager. *)
type cm = Cm_legacy | Cm_adaptive

type config = {
  nthreads : int;  (** Thread slots (each gets a persistent log). *)
  log_cap_words : int;  (** Per-thread log buffer capacity. *)
  truncation : truncation;
  version_mgmt : version_mgmt;
  lock_bits : int;
      (** Lock table size = [2^lock_bits * lock_stripes] entries.  The
          size decides which lines alias; host memory follows the
          entries a run writes ({!Lock_table}), so a large table costs
          a small directory until it is used. *)
  ts_lease : int;
      (** Commit timestamps leased to a thread per shared-counter
          transaction.  1 (the default) is the original draw-per-commit
          protocol, bit-identical to before the knob existed.  Above 1,
          commits draw from a thread-private lease and only refills
          touch the shared line; leased values can leave the counter in
          non-arrival order, so readers watermark the locks they
          validate against ({!Lock_table.bump_rts}) and writers draw
          above that watermark — cts order remains the serialization
          (and recovery replay) order, which the {!History} oracle
          checks. *)
  lock_stripes : int;
      (** A power of two (default 1) that multiplies the lock table's
          entry count, pushing index aliasing out.  The simulator
          charges nothing for lock metadata, and the host allocates
          entries on first write, so this is the same as a larger
          [lock_bits]. *)
  group_commit : bool;
      (** Share one durability fence among pipelined transactions
          retiring in the same drain window.  Requires [pipeline];
          default false. *)
  gc_trunc_batch : int;  (** Ignored. *)
  pipeline : bool;
      (** Pipelined commit (redo logging only; default false).  The
          durability point stays log-append + one fence, but the commit
          then writes the new values into the cache, queues the
          expensive tail — data-line flushing and log truncation — for
          the pool drainer, and releases its write locks immediately at
          the commit timestamp.  Transaction [n+1] runs while
          transaction [n]'s write-back drains; readers are correct
          because the committed values are visible through the cache,
          and a crash is covered because recovery replays the still
          unretired record.  Deploy the drainer daemons with
          {!Drainers.start}; without them, producers drain their own
          queue at the window bound (batched inline truncation). *)
  pipe_window : int;
      (** Commits in flight awaiting write-back per thread before the
          producer blocks (the profiler's drain-wait phase). *)
  cm : cm;  (** Conflict-management policy. *)
}

val default_config : config
(** 4 threads, 64 Ki-word logs, synchronous truncation, redo logging,
    2^18 locks; every scaling knob off (lease 1, one stripe, no group
    commit, no pipeline) — the exact original protocol. *)

val pipelined_config : config
(** The configuration that serves: {!default_config} with 32-timestamp
    leases, 8 lock stripes, group commit, the pipelined commit with a
    32-commit window, and {!Cm_adaptive}.  Run it with {!Drainers}. *)

exception Contention
(** A transaction aborted 64 times in a row. *)

exception Cancelled
(** Raised past {!run} when the user calls {!cancel}. *)

val check_config : config -> (unit, string) result
(** [Error reason] for a knob combination {!create_pool} rejects: fewer
    than one thread, a lease below 1, a stripe count that is not a
    power of two, group commit without the pipeline, undo logging with
    asynchronous truncation or the pipeline, the pipeline with
    asynchronous truncation (the drainer's write-back replaces it), or
    a pipeline window below 1. *)

val create_pool :
  ?config:config -> Region.Pmem.t -> Pmheap.Heap.t option -> pool
(** Set up (or recover) the transaction system: finds each thread's log
    region through a [pstatic] root, creating it on first run, replays
    committed-but-unflushed transactions in timestamp order, and
    truncates the logs.
    @raise Invalid_argument when {!check_config} rejects [config]. *)

val recovered_txns : pool -> int
(** Transactions replayed by recovery at pool creation. *)

val pmem : pool -> Region.Pmem.t

val thread : pool -> int -> Scm.Env.t -> thread
(** Bind thread slot [i] to an execution environment.  Each concurrent
    simulated thread must use its own slot. *)

val run : thread -> (t -> 'a) -> 'a
(** Execute an [atomic] block: retries on conflict (with backoff),
    commits on normal return.  Effects on persistent memory through
    {!load}/{!store}/{!alloc}/{!free} are atomic and durable; do not
    perform other side effects inside.  Nested [run] on the same thread
    is flattened into the outer transaction. *)

val cancel : t -> 'a
(** Abort the transaction without retrying; {!run} raises {!Cancelled}. *)

val thread_id : t -> int
(** Slot of the thread running this transaction; data structures use it
    to pick per-thread shards (counters, arenas). *)

(** {1 Transactional accesses} *)

val load : t -> int -> int64
val store : t -> int -> int64 -> unit

val read_bytes : t -> int -> int -> Bytes.t
(** [read_bytes tx addr len]: byte range via word loads ([addr] must be
    8-aligned). *)

val write_bytes : t -> int -> Bytes.t -> unit
(** Write a byte range via word stores ([addr] 8-aligned; the bytes of
    the final partial word, if any, are zero-padded). *)

val alloc : t -> int -> slot:int -> int
(** Transactional [pmalloc]: reserves a block and routes the bitmap and
    pointer-slot writes through this transaction, so the allocation
    commits or aborts with it.  Sizes above {!Pmheap.Heap.small_limit}
    fall back to an immediate raw allocation compensated on abort.
    Requires the pool to have a heap. *)

val free : t -> slot:int -> unit
(** Transactional [pfree] of the block the slot points at; clears the
    slot. *)

val free_addr : t -> int -> unit
(** Transactional free by block address, for blocks just unlinked from
    a structure inside this same transaction (no slot points at them
    any more).  The caller is responsible for having removed every
    persistent reference transactionally. *)

(** {1 Asynchronous truncation} *)

val pending_truncations : thread -> int

val log_occupancy : thread -> int * int
(** [(used_words, capacity_words)] of this thread's RAWL right now —
    the volatile cursors only, no SCM traffic and no yield point.  An
    admission controller probes this before dispatching a request so it
    can shed load {e before} a producer wedges in the log-full stall
    path (DESIGN.md section 17). *)

val process_one_truncation : thread -> Region.Pmem.view -> bool
(** Truncation-daemon body: retire the oldest record queued on this
    thread — re-read it from the log, flush the lines it wrote, advance
    the log head past it — charging the work to the daemon view's
    environment.  False when the queue is empty.  One record per call
    lets a daemon interleave its work with CPU-availability accounting
    (the figure-6 harness); loop until false to drain the queue. *)

(** {1 Pipelined commit} *)

val drain_pipeline : ?shard:int * int -> pool -> Region.Pmem.view -> bool
(** One sweep of the pipelined-commit drainer: pop every bound thread's
    pending write-backs, charge the work-descriptor reads to [view]'s
    fiber (the commit handed over the write-set addresses in DRAM, so
    unlike the legacy truncation daemon nothing is re-read from the
    log), flush the union of the batch's data lines under one fence,
    then advance every log's head with one combined fence.  False when
    no thread had work.  [shard:(k, n)] restricts the sweep to threads
    with [id mod n = k] — one drainer fiber serializes its producers'
    flush traffic, so large pools deploy several daemons, each owning a
    shard.  {!Drainers} runs it as the work of {!Sim.Service} daemons,
    whose traffic overlaps the producers' next transactions. *)

val set_drain_wake : pool -> (int -> unit) option -> unit
(** Hook the drainer daemons' wake-up ({!Sim.Service.wake}).  Called
    with the committing thread's id whenever a pipelined commit queues
    write-back work, so a sharded deployment wakes the daemon owning
    that thread; [None] (the default) leaves producers draining their
    own queues at the window bound.  {!Drainers.start} installs it. *)

(** The write-back drainers of a pipelined pool, deployed on a
    simulator: the paper's log-manager thread (section 5), sharded. *)
module Drainers : sig
  type t

  val start : ?period_ns:int -> per:int -> Sim.t -> pool -> t
  (** Before the workers spawn: start [n = max 1 (nthreads / per)]
      {!Sim.Service} daemons, daemon [k] sweeping
      [drain_pipeline ~shard:(k, n)] from a fiber environment of its
      own, and route thread [id]'s wake to daemon [id mod n].  A
      positive [period_ns] (default 0) delays every sweep by that much
      simulated time: a log manager that gets the CPU once a period.
      @raise Invalid_argument when the pool's commit is not pipelined. *)

  val wake : t -> int -> unit
  (** Wake the daemon owning thread [id] — what a commit does — so its
      sweep starts now (an admission controller's boost). *)

  val worker_done : t -> unit
  (** Each of the pool's [nthreads] workers calls this as it finishes;
      the last call stops every daemon, which drains what is left. *)
end

(** {1 Statistics and observability} *)

type stats = {
  commits : int;
  aborts : int;
  read_only_commits : int;
  retries : int;  (** Aborted attempts that were retried. *)
  contention_failures : int;  (** [run] calls that raised {!Contention}. *)
  log_full_stalls : int;
      (** Commits that blocked on a full log draining its own
          truncation queue (paper figure 6's stall regime). *)
}

val stats : pool -> stats

val backoff_ns : pool -> int
(** Total simulated time spent in retry backoff and contention-manager
    waits (the time actually parked) since the pool was created — the
    benchmark's backoff-time breakdown. *)

val cm_waits : pool -> int
(** Times an older transaction waited on a younger lock owner
    ([Cm_adaptive] only). *)

val abort_attribution : pool -> (int * int) list
(** Per-64-byte-line abort counts [(line_addr, aborts)], hottest line
    first: which addresses the contention manager is fighting over. *)

val obs : pool -> Obs.t
(** The observability handle of the machine this pool runs on.
    Transaction lifecycle events feed its trace when tracing is
    enabled; a ledger installed with {!set_txprof} records its phase
    histograms in its metrics registry. *)

type log_usage = { slot : int; base : int; cap_words : int; used : int }

val log_usage : pool -> log_usage list
(** Per-thread-slot log occupancy as recovery found it: the words in
    use when pool creation attached each log, before it replayed and
    truncated them.  Later commits do not change it; [regionctl stats]
    reads it right after opening an instance. *)

(** {1 Schedule-exploration hooks}

    Both hooks are [None] by default: the hot paths pay one branch and
    the default schedule stays bit-identical.  The schedule explorer
    ([bin/sched_explore]) installs them to collect a {!History} and to
    make retry backoff replay-deterministic. *)

val set_history_hook : pool -> (History.event -> unit) option -> unit
(** When set, every transaction outcome is reported: commits with their
    first-read values, write set, and commit timestamp (read-only
    commits carry their validated [rv]); aborts with the attempt
    number.  Feed the events to {!History.add} and run {!History.check}
    to test the run for conflict serializability. *)

val set_backoff_draw : pool -> (int -> int) option -> unit
(** When set, the randomized retry-backoff jitter is drawn through this
    function (give it {!Sim.Schedule.draw}) instead of the thread-local
    rng, so a recorded schedule replays the exact backoff delays. *)

val set_txprof : pool -> Obs.Txprof.t option -> unit
(** Install a per-transaction profile ledger ([None] by default, same
    one-branch discipline as the exploration hooks).  When set, every
    commit — read-only included — records a phase-partitioned profile
    entry: execution, validation, log encode+append, fence, write-back,
    truncation wait, backoff, drain wait and residual bookkeeping sum
    exactly to the transaction's duration (first attempt begin to commit return).
    Maintaining the ledger reads the simulated clock but never charges
    time, draws randomness, or allocates on the steady-state path. *)

val set_race : pool -> Race_api.hooks option -> unit
(** Install race-detection hooks over the pool's volatile coordination
    state ([None] by default, same one-branch discipline as the other
    exploration hooks) and propagate them to the lock table, the
    timestamp source, and every bound thread's log.  Annotated state
    (DESIGN.md section 18): the per-thread pending-truncation queue is
    a channel (push = release, pop = acquire) whose descriptors are
    individually checked plain locations — a wake/drain protocol hole
    shows up as a data race on a descriptor; the [draining] flag,
    group-commit leader flag / waiter list / per-thread done flags, the
    contention-manager stamps and abort-line table, and the global
    transaction-id counter are single-word sync objects.  Threads bound
    after installation inherit the hooks. *)

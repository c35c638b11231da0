(** A discrete-event simulator with cooperative processes.

    This is the substrate that stands in for the paper's pthreads (see
    DESIGN.md section 1): benchmark "threads" are simulator processes,
    each memory primitive charges simulated nanoseconds through
    {!delay}, and shared resources ({!Mutex_r}, {!Cond_r}) serialize
    processes exactly where a real lock would.  Because every memory
    operation is a yield point, transactional conflicts and queueing on
    Berkeley DB's central log buffer arise from genuine interleavings —
    deterministically, from a seeded schedule.

    Processes are implemented with OCaml 5 effects: [delay] and blocking
    operations perform an effect captured by the scheduler, which
    resumes the continuation when the simulated clock reaches the wake
    time.

    Events that fall due at the same simulated instant are ordered by a
    pluggable {!Schedule} policy.  The default ({!Schedule.Fifo}) runs
    them in creation order — the historical behaviour, bit-identical —
    while the exploration policies permute same-time ties to fuzz
    interleavings (see DESIGN.md section 10 and [bin/sched_explore]). *)

(** Same-time tiebreak policy, decision recording, and bit-exact
    replay.

    A schedule owns every source of nondeterminism in a simulated run:
    the tiebreak key drawn for each scheduled event, and any client rng
    draws routed through {!Schedule.draw} (the STM's retry backoff).
    In recording mode each decision is appended to an in-memory trace;
    {!Schedule.save} writes it to a file and {!Schedule.load} rebuilds
    a replaying schedule that feeds the recorded decisions back in
    order.  A replayed run may diverge from the recording — notably, a
    regression trace captured against buggy code stops matching once
    the fix changes a transaction's fate — so running off the end of a
    stream falls back to fresh policy draws rather than failing;
    {!Schedule.replay_leftover} and {!Schedule.replay_extra} quantify
    the divergence (both 0 = bit-exact). *)
module Schedule : sig
  (** [Fifo] — creation order among same-time events (the default;
      bit-identical to the pre-exploration scheduler).
      [Seeded_shuffle] — every event gets an independent random key, so
      same-time ties land in a seeded random permutation.  [Priority] —
      PCT-style: each process keeps a seeded priority used as the key;
      after a seeded number of decisions the deciding process's
      priority is re-drawn (a priority change point). *)
  type policy = Fifo | Seeded_shuffle | Priority

  type t

  val fifo : unit -> t
  (** The default schedule: Fifo policy, nothing to record. *)

  val make : ?seed:int -> policy -> t
  (** A recording schedule: decisions are drawn from an rng seeded with
      [seed] and captured for {!save}. *)

  val policy : t -> policy
  val seed : t -> int

  val is_replay : t -> bool
  (** True for schedules built by {!load}. *)

  val policy_name : policy -> string
  (** ["fifo"] / ["shuffle"] / ["priority"]. *)

  val policy_of_string : string -> (policy, string) result

  val draw : t -> bound:int -> int
  (** A captured rng draw in [\[0, bound)]: recorded into (or replayed
      from) the schedule trace.  Client code whose control flow depends
      on random numbers (retry backoff) must route them through here to
      make replay bit-exact. *)

  val decisions : t -> int
  (** Tiebreak keys drawn (recording) or consumed (replay) so far. *)

  val rng_draws : t -> int
  (** {!draw} calls made (recording) or consumed (replay) so far. *)

  val replay_leftover : t -> int
  (** Recorded decisions a replay has not consumed (always 0 when
      recording). *)

  val replay_extra : t -> int
  (** Decisions a replay had to invent because the run outlived the
      recorded streams — fresh policy draws past the end of the key
      stream, or rng draws after the draw stream exhausted or a bound
      mismatched (always 0 when recording).  A replay reproduced the
      recording bit-exactly iff [replay_leftover = 0] and
      [replay_extra = 0]. *)

  val set_meta : t -> string -> string -> unit
  (** Attach a key/value pair saved in the trace header — tools store
      their workload parameters here so a trace file alone suffices to
      reconstruct the run ([sched_explore --replay]).  Values must not
      contain whitespace. *)

  val meta : t -> string -> string option

  val set_observer : t -> (index:int -> key:int -> unit) option -> unit
  (** Called on every tiebreak decision (recording and replay) with its
      index and chosen key; [sched_explore] feeds these to the
      observability trace as schedule-point events. *)

  val save : t -> string -> unit
  (** Write the trace (policy, seed, meta, every decision) to a file. *)

  val load : string -> (t, string) result
  (** Rebuild a replaying schedule from a {!save}d file. *)
end

type t

val create : ?schedule:Schedule.t -> unit -> t
(** [create ()] uses {!Schedule.fifo}, preserving the historical
    deterministic order exactly. *)

val now : t -> int
(** Current simulated time in nanoseconds. *)

val schedule_of : t -> Schedule.t
(** The schedule this simulator draws its tiebreak decisions from. *)

val current_proc : t -> int
(** The process whose event is executing, or [-1] outside any process
    (before {!run}, and between/after runs).  This is the fiber id the
    race detector attributes accesses to. *)

val set_race : t -> Race_api.hooks option -> unit
(** Install (or remove) happens-before race-detection hooks (DESIGN.md
    section 18).  When installed, the simulator fires [fork] at {!spawn},
    [transfer] when a parked process is resumed (not when its timeout
    expires), and release/acquire edges through {!Mutex_r} ownership and
    {!Service} wake tokens.  Plain {!yield}/{!delay} fire nothing: being
    scheduled after someone is not synchronization.  [None] (the default)
    keeps every hook site a single never-taken branch. *)

val race_of : t -> Race_api.hooks option
(** The installed hooks, for layers that piggyback on the sim's. *)

val spawn : ?name:string -> t -> (unit -> unit) -> unit
(** Register a process to start at the current simulated time.  The
    body runs when {!run} reaches that moment. *)

val spawn_at : ?name:string -> t -> int -> (unit -> unit) -> unit
(** Start a process at an absolute simulated time. *)

val delay : t -> int -> unit
(** Advance this process's clock by [ns], yielding to any process
    scheduled earlier.  Must be called from inside a process. *)

val yield : t -> unit
(** [delay t 0]: give same-time processes a chance to run. *)

val park : ?timeout:int -> ((unit -> unit) -> unit) -> unit
(** [park ?timeout register] parks the current process and calls
    [register resume]; calling [resume] (from another process) requeues
    the parked process at the then-current time, and fires the race
    detector's [transfer] edge from the resumer to it.  Only the first
    call of [resume] does anything, so waiter lists may hold stale
    entries.  With [timeout], the process resumes by itself [timeout]
    ns later if nobody resumed it first; a timeout cancelled that way
    neither advances the clock nor keeps {!run} from detecting
    {!Deadlock}.  This is the primitive every synchronization object is
    built from.

    [park] takes no simulator: it is an effect handled by the process
    it runs in, so code that holds only an environment (a [delay]
    closure) can wait.  Raises [Effect.Unhandled] outside any
    simulated process. *)

val suspend : t -> ((unit -> unit) -> unit) -> unit
(** [suspend t register] is [park register]: no timeout. *)

val run : ?until:int -> t -> unit
(** Execute events until the queue is empty (or simulated time would
    exceed [until]).  Re-entrant with respect to [spawn]: processes may
    spawn more processes. *)

val processes_run : t -> int
(** Number of process bodies started so far (for tests). *)

exception Deadlock of string
(** Raised by {!run} when processes remain suspended with no pending
    events — every remaining process is blocked on a resource that
    nobody will release. *)

(** FIFO mutex: the model for any serialized software resource (Berkeley
    DB's centralized log buffer, a page latch).  Lock acquisitions are
    granted in arrival order, so queueing delay is measured faithfully. *)
module Mutex_r : sig
  type sim := t
  type t

  val create : sim -> t
  val lock : t -> unit
  val unlock : t -> unit
  val try_lock : t -> bool
  val holder_waiters : t -> int
  (** Queue length including holder. *)

  val contentions : t -> int
  (** Lock calls that had to wait. *)

  val with_lock : t -> (unit -> 'a) -> 'a
end

(** A background daemon process that repeatedly performs units of work
    and parks itself when none is available.  Built for the pipelined
    commit's write-back drainer: the daemon's memory traffic is charged
    to its own fiber, so deferred work shows up as overlapped DES time
    rather than on the producing transaction's critical path.

    Protocol: [work ()] performs at most one unit and answers whether
    it did anything.  While it answers [true] the daemon loops (with a
    {!yield} between units so same-time producers interleave); on
    [false] it parks until {!wake}.  A {!wake} against a running daemon
    leaves a token consumed before the next park, so wake-ups are never
    lost.  {!stop} drains remaining work ([work] until [false]) and
    exits the process.

    A parked daemon holds a suspended process: a simulation that ends
    with the daemon parked raises {!Deadlock}, so harnesses must call
    {!stop} from inside the simulation (e.g. the last finishing worker
    stops the service). *)
module Service : sig
  type sim := t
  type t

  val spawn : sim -> work:(unit -> bool) -> t
  (** Start the daemon at the current simulated time. *)

  val wake : t -> unit
  (** Re-arm a parked daemon (or leave a token for a running one).
      Safe to call from any process at any time. *)

  val stop : t -> unit
  (** Ask the daemon to drain remaining work and exit. *)

  val stopped : t -> bool
  (** True once the daemon's process has exited. *)
end

(** Condition variable over {!Mutex_r}.  Only the Berkeley DB
    baseline's write-ahead log uses it, to park committers behind its
    flush leader. *)
module Cond_r : sig
  type sim := t
  type t

  val create : sim -> t
  val wait : t -> Mutex_r.t -> unit
  (** Atomically release the mutex and park; re-acquires before
      returning. *)

  val signal : t -> unit
  val broadcast : t -> unit
end

(** Open-loop arrival generators (Poisson and bursty MMPP) for driving
    serving workloads through the simulator; see [arrival.mli]. *)
module Arrival : module type of Arrival

(** Per-transaction profile ledger: phase timings for every commit,
    feeding per-phase histograms and a bounded top-K tail capture.

    A transaction's lifetime — first attempt begin to commit return,
    aborted attempts included — is partitioned into {!nphases} phases
    (execution, validation, log encode+append, fence, write-back,
    truncation wait, backoff, drain wait, other).  The instrumented
    commit path
    accounts every nanosecond to exactly one phase, so an entry's
    phase sum equals its total duration.

    Recording is allocation-free: the K capture entries and their
    phase arrays are preallocated, admission copies ints into the
    evicted min-heap root, and re-heapifying swaps references.  The
    per-phase histograms are ordinary {!Metrics} histograms named
    [mtm.txn.phase.<name>_ns] (total: [mtm.txn.total_ns]), so they
    appear in snapshots and dumps like any other metric. *)

val nphases : int

(** Phase indices into an entry's [phases] array. *)

val ph_exec : int
(** Attempt begin through commit entry: user code, reads, writes. *)

val ph_validate : int
val ph_log : int  (** Record encode + log append (excluding stalls). *)

val ph_fence : int
val ph_write_back : int
val ph_trunc_wait : int  (** Blocked on a full log, draining inline. *)

val ph_backoff : int  (** Contention backoff between attempts. *)

val ph_drain_wait : int
(** Blocked on the pipelined commit's in-flight window: the drain
    queue is full and the producer parks until the drainer retires a
    pending write-back. *)

val ph_other : int
(** Residual commit bookkeeping not in a named phase. *)

val phase_name : int -> string
(** The phase's name in its histogram, [mtm.txn.phase.<name>_ns]. *)

type entry = {
  mutable txid : int;
  mutable tid : int;
  mutable start_ts : int;  (** First attempt begin, simulated ns. *)
  mutable total_ns : int;
  mutable retries : int;
  mutable bytes_logged : int;
  mutable writes : int;
  phases : int array;  (** [nphases] simulated-ns phase totals. *)
}

type t

val create : ?k:int -> Metrics.t -> t
(** Preallocate a K-entry capture (default 16) and register the phase
    histograms in the given registry: [mtm.txn.phase.<phase>_ns] and
    [mtm.txn.total_ns]. *)

val record :
  t ->
  txid:int ->
  tid:int ->
  start_ts:int ->
  total_ns:int ->
  retries:int ->
  bytes_logged:int ->
  writes:int ->
  phases:int array ->
  unit
(** Record one finished transaction; [phases] is copied.
    Allocation-free, O(log K) worst case. *)

val count : t -> int
(** Transactions recorded. *)

val k : t -> int

val captured : t -> int
(** Entries currently held (at most [k]). *)

val top : t -> entry list
(** The captured entries, slowest first.  The entries are the live
    heap slots — read them after the run, before further records. *)

val phase_sum : entry -> int

val table : t -> string
(** The tail-attribution table: one row per captured transaction,
    slowest first, with per-phase nanoseconds and the percentage of
    the total the phase sum accounts for. *)

(** A write-back processor cache of 64-byte lines over the SCM device.

    The cache is the reason consistent updates are hard (paper
    section 3.2.3): dirty lines may be evicted — written back to SCM —
    at any time and in any order, and lines that have not been evicted
    or flushed are simply lost on a crash.  This model reproduces both
    hazards: eviction is randomized (seeded), and {!Crash} drops or
    selectively retains dirty lines.

    One cache is shared by all simulated threads, as on the paper's
    single-socket evaluation machine. *)

type t

val line_size : int
(** 64: the bytes in one cache line. *)

val create :
  ?capacity_lines:int ->
  ?seed:int ->
  ?obs:Obs.t ->
  ?cp:Crashpoint.t ->
  Scm_device.t ->
  t
(** [create dev] makes a cache over [dev].  [capacity_lines] bounds the
    number of resident lines (default 8192 = 512 KiB); exceeding it
    evicts a pseudo-random victim, writing it back if dirty.  The
    memory it takes grows with the lines it holds, not with its
    capacity.  Evictions
    feed [obs] (counter [scm.cache.evictions] plus a [Cache_evict]
    trace event when tracing).  Every dirty-line write-back (flush,
    eviction, or forced) ticks [cp] (default: a private disarmed
    counter). *)

val line_base : int -> int
(** [line_base addr] is the address of the first byte of the line
    containing [addr]. *)

val read_word : t -> int -> int64
(** Read through the cache (allocate-on-read). *)

val peek_word : t -> int -> int64
(** Coherent read that never allocates a line (an uncached load):
    answers from the cache when the line is resident, from the device
    otherwise.  Recovery-time region sweeps use this so a full scan
    neither evicts the working set nor advances the eviction rng. *)

val peek_into : t -> int -> Bytes.t -> int -> int -> unit
(** [peek_into t addr buf off len] copies [len] bytes at [addr] into
    [buf] at [off] as {!peek_word} would read them: a resident line,
    dirty or clean, is copied from the cache and every other line from
    the device, with each run of non-resident lines read in one call.
    It allocates no line, draws no rng and ticks no crash point. *)

val write_word : t -> int -> int64 -> unit
(** Write into the cache, marking the line dirty.  Not durable until the
    line is flushed, evicted, or written back by a crash policy. *)

val read_into : t -> int -> Bytes.t -> int -> int -> unit
val write_from : t -> int -> Bytes.t -> int -> int -> unit

val flush_line : t -> int -> bool
(** [flush_line t addr] models [clflush]: write the line containing
    [addr] back to the device if dirty and invalidate it.  Returns true
    if a dirty line actually went to SCM (the caller charges PCM write
    latency in that case). *)

val invalidate_line : t -> int -> unit
(** Drop the line without write-back (used by streaming stores, which
    bypass and invalidate the cache). *)

val wt_invalidate : t -> int -> unit
(** [wt_invalidate t addr]: write the line containing [addr] back if it
    is dirty, then drop it — the coherence action of a streaming store,
    equivalent to {!writeback_line} then {!invalidate_line} but probing
    the table once.  No-op when the line is not resident. *)

val dirty_lines : t -> int list
(** Addresses of all dirty lines, ascending; used by crash injection. *)

val writeback_line : t -> int -> unit
(** Force a specific line to the device, keeping it resident and clean.
    Used by crash policies that model async eviction. *)

val drop_all : t -> unit
(** Discard every line without write-back: the volatile cache contents
    vanishing at power loss. *)

val set_pmcheck : t -> Pmcheck.t option -> unit
(** Attach (or detach, with [None]) a durability sanitizer: every line
    write-back reports a device-reach event to it.  Installed via
    {!Env.install_pmcheck}. *)

val set_owner : t -> int -> unit
(** Stamp the transaction id that subsequent stores dirty lines on
    behalf of (0 = unattributed).  The access layer sets it before each
    cached store; a later write-back of the line emits a causal flow
    step attributing the deferred work back to that transaction when
    tracing.  Plain int stores: no simulated time, rng, or
    allocation. *)

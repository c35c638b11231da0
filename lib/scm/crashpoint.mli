(** Deterministic crash-point bookkeeping.

    Every crash-relevant persistence operation — a write-through store
    entering the write-combining buffer, a WC drain, a cache-line
    write-back (explicit flush or eviction), a fence — passes through
    {!tick}, which assigns it the next index in a monotonically
    increasing per-machine sequence.  Because the whole simulation is
    deterministic, the operation performed at index [k] is a pure
    function of the workload and its seed, so [(seed, k)] names one
    exact interleaving point.

    Arming the counter at index [k] makes the [k]-th operation raise
    {!Simulated_crash} {e instead of} executing: the machine then holds
    precisely the volatile and durable state that existed after
    operation [k - 1].  The exception unwinds to the driver, which
    applies an adversarial {!Crash.inject} policy to the surviving
    volatile state and re-runs recovery.  After firing, every further
    tick on the same machine re-raises, so no cleanup path can leak
    writes past the crash point. *)

type kind =
  | Wt_post  (** a write-through store posted to the WC buffer *)
  | Wc_drain  (** the WC buffer draining pending stores to the device *)
  | Cache_writeback  (** a dirty cache line written back (flush/evict) *)
  | Fence  (** an ordering fence *)

val kind_name : kind -> string

exception Simulated_crash of { op : int; kind : kind }

type t

val create : unit -> t
(** Fresh counter, disarmed, at op 0. *)

val count : t -> int
(** Persistence operations ticked so far. *)

val target : t -> int option
val crashed : t -> bool

val arm : t -> at:int -> unit
(** Crash when the [at]-th operation (1-based, counting from the
    counter's current state at 0) is about to execute. *)

val disarm : t -> unit
(** Stop injecting; also clears the [crashed] latch ({!Crash.inject}
    calls this before touching volatile state through tick sites). *)

val tick : t -> kind -> unit
(** Count one persistence operation; raises {!Simulated_crash} when the
    armed target is reached (the operation must not be performed). *)

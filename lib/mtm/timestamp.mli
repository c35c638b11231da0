(** TinySTM's global timestamp counter (paper section 5).

    Incremented at every transaction completion; the value is stored in
    the redo log with each transaction so recovery can replay
    transactions from different threads' logs in execution order.

    The counter is a single shared cache line, so bumping it costs more
    as more threads hammer it — the paper observes "the slight increase
    in write latency is due to contention on the global timestamp
    counter".  We charge [timestamp_ns x active threads] per
    shared-line transaction to model that coherence traffic.

    At high thread counts the shared bump is a serialization point;
    {!draw} amortizes it by leasing each thread a block of consecutive
    timestamps and touching the shared line only on refill. *)

type t

type lease
(** A thread-private block of consecutive commit timestamps. *)

val max_cts : int
(** The largest representable commit timestamp: [2^62 - 1].  Redo-record
    headers carry the cts in 62 usable bits (the torn-bit log steals
    one bit, the OCaml int sign another); crossing this ceiling would
    silently wrap and reorder recovery replay. *)

exception Exhausted
(** Raised by {!next}, {!draw} and {!advance_to} instead of wrapping
    past {!max_cts}. *)

val create : unit -> t

val now : t -> int
(** Current value without bumping (transaction read-version snapshot).
    An upper bound on every commit timestamp issued so far, leased
    blocks included. *)

val next : t -> Scm.Env.t -> int
(** Bump and return the new value, charging the contention-scaled
    cost to the calling thread.  @raise Exhausted at the ceiling. *)

val lease_create : unit -> lease
(** A fresh, empty lease: the first {!draw} through it refills. *)

val draw : t -> Scm.Env.t -> lease -> size:int -> floor:int -> int
(** Draw one commit timestamp strictly greater than [floor] (the
    largest version or read timestamp the commit must serialize
    after).  [size <= 1] degenerates to {!next} — the exact legacy
    path.  Otherwise the value comes from the lease when possible
    (thread-local, no simulated cost, no yield); when the lease is
    exhausted — or none of its remaining values exceeds [floor] — a
    block of [size] fresh values is leased from the shared counter,
    charging one contention-scaled shared-line transaction.  Distinct
    leases are disjoint, so issued values are globally unique.
    @raise Exhausted at the ceiling. *)

val advance_to : t -> int -> unit
(** Raise the counter to at least the given value without issuing any
    timestamps: recovery advances past the largest replayed cts in
    O(1).  Charges no simulated time.  @raise Exhausted at the
    ceiling. *)

val register_thread : t -> unit

val set_race : t -> Race_api.hooks option -> unit
(** Race-detection hooks (DESIGN.md section 18): the shared counter is
    a single atomic word; bumps, lease refills and {!advance_to} are
    rmw edges on it.  [None] (the default) keeps every site a single
    never-taken branch. *)

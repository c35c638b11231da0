(** Write-combining buffers for streaming ([movntq]-style) stores.

    Streaming stores are posted here and reach the device only when the
    buffer drains — at a fence, or partially and out of order at a
    crash.  The paper's atomic-log-append trick (the tornbit RAWL) exists
    precisely because these writes "do not guarantee that writes are
    executed in program order: if the system crashes, later writes may
    have completed while earlier ones did not" (section 4.4).

    Loads from the owning thread see pending stores (store forwarding),
    so program-order semantics hold within a thread; durability and
    cross-crash visibility only follow a drain.  Each simulated thread
    has its own buffer, as write-combining buffers are per-core. *)

type t

val create : ?obs:Obs.t -> ?cp:Crashpoint.t -> Scm_device.t -> t
(** Non-empty drains feed [obs] (counter [scm.wc.drains] plus a
    [Wc_drain] trace event carrying the pending word count).  Posts and
    non-empty drains tick [cp] (default: a private disarmed counter), so
    an armed crash point can fire between any two streaming stores. *)

val post : t -> int -> int64 -> unit
(** Queue a 64-bit streaming store to an aligned address. *)

val is_empty : t -> bool
(** No stores pending — the common case on cached-access paths, which
    use it to skip store-forwarding lookups entirely. *)

val lookup : t -> int -> int64 option
(** Most recent pending value for an address, if any. *)

val pending_in_line : t -> int -> bool
(** Whether any pending store targets the 64-byte line containing the
    address.  Cached accesses to such a line first drain the buffer
    (write-combining buffers may flush spontaneously on real hardware),
    keeping same-thread mixed cached/streaming access coherent. *)

val pending_in_span : t -> int -> int -> bool
(** [pending_in_span t lo len]: whether any pending store targets an
    address in [\[lo, lo + len)].  The region manager asks it of every
    buffer before a frame leaves its page. *)

val pending_words : t -> int
val pending_bytes : t -> int

val drain : t -> unit
(** Apply every pending store to the device in program order and empty
    the buffer.  (Order is irrelevant for the final contents; it matters
    only for crashes, which use {!crash_apply_subset} instead.) *)

val crash_apply_subset : t -> Random.State.t -> int
(** Crash semantics: each pending 64-bit store independently either
    completed or did not (probability 1/2), in arbitrary order; the
    buffer is then lost.  Returns how many stores reached the device.
    Word atomicity is preserved — exactly the failure model of paper
    section 2. *)

val discard : t -> unit
(** Drop all pending stores without applying them. *)

val set_pmcheck : t -> Pmcheck.t option -> unit
(** Attach (or detach, with [None]) a durability sanitizer: each word a
    drain writes to the device reports a device-reach event to it.
    Installed via {!Env.install_pmcheck}. *)

val set_owner : t -> int -> unit
(** Stamp the transaction id subsequent posts belong to (0 = none).
    Drains emit one causal flow step per distinct owning transaction
    when tracing, attributing the deferred device writes back to the
    transactions that issued them.  Plain int stores: no simulated
    time, rng, or allocation. *)

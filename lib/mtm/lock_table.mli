(** The global array of volatile locks used for encounter-time locking
    (paper section 5): "a global array of volatile locks, with each lock
    covering a portion of the address space".

    Each entry holds a version (the commit timestamp of the last
    transaction to write a covered address), an owner (the transaction
    currently holding the lock, if any), the address the owner acquired
    it for (false-conflict attribution), and a reader timestamp
    watermark used when commit timestamps are leased out of arrival
    order.  The table is volatile: after a crash it is simply
    recreated, because recovery replays committed transactions
    single-threadedly.

    A handle returned by {!index_of} is the line number modulo the
    table size.  The simulator charges no time for lock metadata, so
    the table's only tunable is its size.

    Host memory follows the entries written, not the nominal size: the
    entries live in chunks of 2^9, each allocated on the first write to
    one of its entries, behind a 2^(bits-9)-word directory.  Reads of
    an entry never written see a free entry at version 0 and allocate
    nothing. *)

type t

val create : ?bits:int -> unit -> t
(** [2^bits] entries (default bits 18). *)

val index_of : t -> int -> int
(** Map an address to a handle for its covering lock: one lock per
    64-byte line, wrapping around the table. *)

val version : t -> int -> int
val owner : t -> int -> int
(** Owning transaction id, or -1. *)

val rts : t -> int -> int
(** Reader watermark: the largest timestamp a validated reader has
    serialized at against this entry's current version. *)

val aliased : t -> int -> addr:int -> bool
(** Whether the entry's current owner acquired it for a different
    address than [addr] — i.e. a conflict observed now would be a
    false (aliasing) conflict.  Only meaningful while held. *)

val try_acquire : t -> int -> owner:int -> addr:int -> bool
(** Acquire if free or already ours; false if another owner holds it.
    Records [addr] as the held address on a fresh acquire. *)

val release : t -> int -> unit
(** Release without changing the version (abort path). *)

val release_versioned : t -> int -> version:int -> unit
(** Release and publish a new version (commit path). *)

val bump_rts : t -> int -> int -> unit
(** Raise the reader watermark to at least the given timestamp. *)

val entries : t -> int

val set_race : t -> Race_api.hooks option -> unit
(** Race-detection hooks (DESIGN.md section 18).  Each entry is a
    single-word atomic and its own sync object: {!try_acquire} and
    {!bump_rts} are rmw edges, the releases publish, reads acquire.
    [None] (the default) keeps every site a single never-taken
    branch. *)

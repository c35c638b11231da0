(** The allocator's atomicity log (paper section 4.3).

    The persistent heap "guarantees atomicity of its operations by
    logging the write to the bitmap vector and the destination/source
    pointer".  This is that log: a {!Pmlog.Rawl} of pure {e redo}
    records, each a list of (address, value) word writes.  An operation
    commits by appending its record and flushing (one fence, thanks to
    the torn bit), then applying the writes; recovery replays every
    surviving record.  Replay is idempotent — records carry absolute
    values — so the log is truncated lazily in batches rather than after
    every operation, saving a fence per allocation. *)

type t

val region_bytes : int

val create : Region.Pmem.view -> base:int -> t

val attach : Region.Pmem.view -> base:int -> t * int
(** Recover: replay all complete records (re-applying their writes
    durably), truncate, and return the handle plus how many records
    were replayed. *)

val commit : t -> (int * int64) list -> unit
(** Durably and atomically apply the given word writes: log record +
    flush, then write-through the data, fence.  The writes list must be
    non-empty. *)

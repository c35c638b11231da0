(** A thread's pipelined write-backs awaiting retirement, as a ring.

    Each queued record is a commit whose log span still has to be
    retired: its span (log words), the owning transaction id and its
    write addresses (sorted ascending).  The span, txid and write-count
    of each record sit in three parallel arrays; every record's
    addresses sit in one flat address ring.  Each part doubles when it
    fills, since asynchronous truncation can queue a whole log's worth
    of records, and is never shrunk: once grown, pushing and claiming
    allocate nothing.

    A retirement claims records into a {!batch}, which copies them out
    of the ring so producers can push into the freed space while the
    claimed records' write-back is still being charged. *)

type t

val create : unit -> t
val length : t -> int
(** Records queued. *)

val is_empty : t -> bool

val push : t -> span:int -> txid:int -> int array -> int -> unit
(** [push t ~span ~txid addrs n] queues a record whose write addresses
    are [addrs.(0 .. n-1)] (copied). *)

(** {1 Claiming} *)

type batch
(** What one retirement claimed: records in claim order, with all their
    addresses in one flat buffer.  Reused from claim to claim. *)

val batch : unit -> batch

val reset : batch -> unit
(** Empty the batch, keeping its buffers. *)

val take : t -> limit:int -> batch -> int
(** [take t ~limit b] moves up to [limit] (positive) of [t]'s oldest
    records, oldest first, to the end of [b] and returns how many it
    moved. *)

val records : batch -> int
val span : batch -> int -> int
val txid : batch -> int -> int

val writes : batch -> int -> int
(** [writes b i] is the number of write addresses of record [i]. *)

val naddrs : batch -> int

val addrs : batch -> int array
(** The flat address buffer: its first {!naddrs} entries are the
    records' addresses, record by record in claim order, until the
    caller reorders them (the drainer sorts them in place). *)

(** The tornbit raw word log — RAWL (paper section 4.4).

    A fixed-size single-producer/single-consumer Lamport circular buffer
    of uninterpreted 64-bit words, with the paper's novel atomic-append
    mechanism: every stored word reserves one torn bit whose value is
    constant within a pass over the buffer and reverses on wrap-around.
    A complete append has consistent torn bits; after a crash, a word
    whose torn bit is out of sequence marks a missing write, so a single
    fence suffices per [flush] — no commit record, no checksum.

    Appends are streamed with write-through stores and become durable at
    the next {!flush}.  The head pointer (offset + pass parity packed in
    one word) is the only other persistent state, updated atomically by
    truncation.

    In-memory layout, relative to [base] (which must point at fresh,
    zeroed persistent memory when created):
    - word 0: head word — offset in bits 0..47, pass parity in bit 48;
    - word 1: capacity in stored words;
    - byte 64 onward: the circular buffer.

    The first pass writes torn bit 1 over the zero-initialized buffer,
    so never-written words are always detectable. *)

type t

val region_bytes_for : cap_words:int -> int
(** Bytes of persistent memory needed for a log with that buffer
    capacity (header + buffer). *)

val max_record_words : t -> int
(** Largest payload (in 64-bit words) a single append can hold.
    Derived from the same bound {!append} admits by and recovery's
    length-plausibility check rejects by: a record of exactly this many
    words appends successfully and recovers; one word more is [Full]. *)

val max_record_words_for : cap_words:int -> int
(** {!max_record_words} as a function of the buffer capacity. *)

val create :
  ?rotate_torn_bit:bool -> Region.Pmem.view -> base:int -> cap_words:int -> t
(** Initialize a fresh log over zeroed persistent memory.

    [rotate_torn_bit] (default false) enables the wear-spreading
    refinement of paper section 4.5: every {!rotate_period} passes the
    torn bit moves to a different bit position (via a whole-buffer
    erase at a truncation, which keeps missing-write detection sound).
    Without it, the torn-bit position flips value on every pass while
    payload bits often repeat, so under bit-level write-skipping
    hardware that one bit column wears fastest. *)

val rotate_period : int
(** Buffer passes between torn-bit rotations (when enabled). *)

val torn_bit_position : t -> int
(** Current torn-bit position (63 unless rotation has occurred). *)

val attach : Region.Pmem.view -> base:int -> t * int64 array list
(** Recover an existing log: returns the handle (tail positioned after
    the last complete record) and every complete record from head to
    tail, in order.  Incomplete trailing appends are discarded, exactly
    as the paper's recovery scan does: {!scan} through
    {!Region.Pmem.load}, then stale free words are rewritten as filler. *)

val scan :
  (int -> int64) ->
  base:int ->
  cap:int ->
  off:int ->
  parity:int ->
  tpos:int ->
  int64 array list * (int * int * int)
(** Recovery's torn-bit scan, the one parser of the record format: from
    the head cursor [(off, parity, tpos)] ({!unpack_head}) of the log at
    [base] with a [cap]-word buffer, read stored words through the given
    load until a torn bit is out of sequence, a length is implausible or
    [cap - 1] words are read.  Returns the complete records in order and
    the tail cursor after the last; a partial trailing record is
    dropped.  {!attach} passes {!Region.Pmem.load}, the offline analyzer
    ({!Check.Pmfsck}) {!Region.Pmem.load_nt}. *)

type append_result = Appended of int  (** stored-word span *) | Full

val append : t -> int64 array -> append_result
(** Stream a record into the log (not yet durable).  [Full] when the
    free space cannot hold it; the caller truncates (or waits for the
    asynchronous truncation daemon) and retries.  The returned span is
    what {!advance_head_group} takes to consume this record. *)

val append_sub : t -> int64 array -> len:int -> append_result
(** [append_sub t buf ~len] appends the first [len] words of [buf]:
    {!append} over a prefix, letting commit paths reuse one
    preallocated encode buffer instead of sizing an array per record.
    Simulated-time charges are identical to [append] on an array of
    exactly [len] words. *)

val append_bytes : t -> Bytes.t -> len:int -> append_result
(** [append_bytes t buf ~len] appends [len] words staged as raw
    little-endian bytes in [buf] (at least [8 * len] bytes): the
    boxing-free variant of {!append_sub} for commit paths that encode
    records into a [Bytes] buffer.  Identical stored-word sequence and
    simulated-time charges as {!append} on the same [len] words. *)

val flush : t -> unit
(** [log_flush]: one fence; all prior appends are durable after this. *)

val flush_group : t list -> unit
(** Group commit: one fence making every listed log's prior appends
    durable at once, with the head of the list (the leader's log)
    paying a single combined cost — see {!Region.Pmem.fence_many}.
    Callers of the other logs must be parked while this runs. *)

val set_owner : t -> int -> unit
(** Stamp the transaction id the next appends belong to (0 = none).
    Each append then opens a causal flow under that id, so deferred
    truncation and write-back work stamped with the same id renders as
    an arrow back to the append in the Chrome trace.  A plain int
    store: no simulated time, rng, or allocation. *)

val truncate_all : t -> unit
(** Drop every record: head := tail, one atomic word write + fence. *)

val advance_head_group : (t * int * int) list -> unit
(** [advance_head_group [(log, records, words); ...]] retires records
    from several logs with one combined fence: every listed log's new
    head word is posted, then a single {!Region.Pmem.fence_many} (the
    first listed log's fiber pays the combined cost, as in
    {!flush_group}) makes them all durable.  Entries with [words = 0]
    are skipped.  This is the pipelined drainer's batched truncation:
    a sweep over many threads' retired commits costs one fence, not
    one per log. *)

val used_words : t -> int
val free_words : t -> int
val capacity : t -> int

val set_race : t -> Race_api.hooks option -> unit
(** Race-detection hooks (DESIGN.md section 18).  The volatile head
    and tail cursors are the appender/drainer handoff: each is a
    single-word atomic sync object — appends rmw the tail (once per
    record), head advances rmw the head, and occupancy probes
    ({!used_words}/{!free_words}) acquire both.  [None] (the default)
    keeps every site a single never-taken branch. *)

(** {1 Read-only format introspection}

    The on-SCM header word formats, exposed for the offline image
    analyzer ({!Check.Pmfsck}), which checks a log's header words and
    then runs {!scan} without a handle and without mutating anything. *)

val header_bytes : int
(** Bytes before the circular buffer (head word, cap word, padding). *)

val unpack_head : int64 -> int * int * int
(** [(offset, pass_parity, torn_bit_position)] from a head word. *)

val unpack_cap : int64 -> int * bool
(** [(capacity_words, rotate_enabled)] from a cap word. *)

val extract_torn : int64 -> int -> int64 * bool
(** [extract_torn word tpos] splits a stored word into its 63 payload
    bits and the torn bit at position [tpos]. *)

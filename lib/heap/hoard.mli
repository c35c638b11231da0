(** The Hoard-derived small-object allocator (paper section 4.3).

    The heap is split into fixed-size 8-KiB superblocks, each holding an
    array of fixed-size blocks; different superblocks may serve
    different block sizes.  The only persistent state per superblock is
    a header word (magic + block size) and an allocation bitmap — so
    "allocating memory requires only one write to SCM to set a bit in
    the superblock's vector".  The bitmap is kept away from the blocks
    themselves to reduce the risk of corruption.  The volatile index
    (per-class availability lists, free counts, in-flight reservations)
    is rebuilt by {!attach} when a program starts.

    Allocation is split into {e reserve} (volatile: pick a block nobody
    else can pick) and a durable commit, so it composes with both
    consistency mechanisms:

    - the non-transactional path ({!alloc}) commits the bitmap write
      plus the caller's destination-pointer write through {!Alloc_log}
      in one atomic record;
    - the transactional path ({!reserve} / {!finalize} / {!cancel})
      lets {!Mtm} route the bitmap read-modify-write and the pointer
      write through the transaction's own redo log, making allocation
      atomic {e with the rest of the transaction} — a crash can never
      leak a block allocated by an uncommitted transaction. *)

type t

val superblock_bytes : int
(** 8192. *)

val max_block_bytes : int
(** Largest size class (4096); bigger requests go to {!Large_alloc}. *)

val create : Region.Pmem.view -> Alloc_log.t -> base:int -> count:int -> t
val attach : Region.Pmem.view -> Alloc_log.t -> base:int -> count:int -> t

(** A block picked but not yet durably allocated. *)
type reservation = {
  addr : int;  (** block address *)
  bitmap_addr : int;  (** word whose bit must be set *)
  bit : int;
  header_write : (int * int64) option;
      (** Superblock-assignment header write, when this superblock's
          header is not yet durable.  Must be committed with the bitmap
          write. *)
}

val reserve : ?arena:int -> t -> int -> reservation
(** Pick a free block of the class for the size; volatile only.
    Hoard's per-processor heaps: superblocks belong to one of 8 arenas,
    and each thread allocates from its own, so concurrent transactions
    do not conflict on shared bitmap words.  [arena] (default 0, taken
    modulo 8) selects the preferred arena — pass the thread id.  Falls
    back to a fresh superblock, then to stealing from other arenas.
    Raises [Failure] when no superblock can serve the class. *)

val finalize : t -> reservation -> unit
(** The reservation's writes were durably committed. *)

val cancel : t -> reservation -> unit
(** The surrounding operation aborted; the block returns to the pool. *)

val alloc : ?arena:int -> t -> int -> extra:(int -> (int * int64) list) -> int
(** Non-transactional allocation: reserve, then atomically commit the
    header/bitmap writes plus [extra addr] via the allocation log. *)

val free : t -> int -> extra:(int * int64) list -> unit
(** Non-transactional free.  [Invalid_argument] on addresses that are
    not currently-allocated block starts (catching double frees).  A
    fully-free superblock returns to the unassigned pool. *)

val free_prepare : t -> load:(int -> int64) -> int -> int * int
(** [free_prepare t ~load addr] validates that [addr] is a live block
    {e as seen through [load]} (a transactional load, so a free earlier
    in the same transaction is visible) and returns
    [(bitmap_addr, bit)] for the caller to clear transactionally. *)

val free_commit : t -> int -> unit
(** Volatile accounting after a transactional free committed. *)

val owns : t -> int -> bool
val block_size_of : t -> int -> int
val assigned_superblocks : t -> int
val superblocks_scanned : t -> int

(** {1 On-SCM format introspection}

    The persistent superblock layout, exposed for the offline analyzer
    ({!Check.Pmfsck}): a header word at the superblock base, then
    {!bitmap_words} bitmap words, then padding up to {!header_bytes},
    then the block array. *)

val header_bytes : int
val bitmap_words : int

val unpack_header : int64 -> int option
(** The block size, if the word is a valid superblock header (magic in
    the top byte, a real size class in the low bits).  The one parser
    of a header: {!attach} and the offline analyzer each read the
    header and then the bitmap words, in that order, and decode the
    header with it. *)

val blocks_per : int -> int
(** Blocks a superblock of that class holds. *)

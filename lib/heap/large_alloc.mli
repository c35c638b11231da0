(** The large-object allocator: the paper's dlmalloc fallback
    (section 4.3), used for requests bigger than a superblock class.

    A boundary-tag free-list allocator over a contiguous persistent
    area: each chunk carries a header word (size | used bit) and a
    footer word (size) so freeing can coalesce with both neighbours.
    The free list is volatile and rebuilt by {!attach} with a linear
    walk of the chunk chain; all persistent updates go through the
    shared {!Alloc_log} so operations are atomic, "logging to ensure
    allocations are atomic" as the paper modified dlmalloc to do. *)

type t

val min_chunk_bytes : int
val overhead_bytes : int
(** Header + footer per chunk (16). *)

val create : Region.Pmem.view -> Alloc_log.t -> base:int -> len:int -> t
(** Initialize one big free chunk over fresh persistent memory. *)

val attach : Region.Pmem.view -> Alloc_log.t -> base:int -> len:int -> t
(** Rebuild the free list by walking the chunk chain. *)

val alloc : t -> int -> extra:(int -> (int * int64) list) -> int
(** First-fit allocation; returns the payload address.  [extra] receives
    the payload address and contributes word writes to the atomic
    record.  Splits when the remainder is big enough.  Raises [Failure]
    when no chunk fits. *)

val free : t -> int -> extra:(int * int64) list -> unit
(** Free by payload address, coalescing with free neighbours.  Raises
    [Invalid_argument] on addresses that are not live payload starts. *)

val owns : t -> int -> bool
val payload_size_of : t -> int -> int
val free_bytes : t -> int
val chunks_scanned : t -> int
(** Chunks examined by the last {!attach}. *)

(** {1 On-SCM format}

    Boundary-tag words, exposed for the offline analyzer
    ({!Check.Pmfsck}): each chunk starts with a header word and ends
    with a footer word holding the chunk size. *)

val walk :
  (int -> int64) ->
  base:int ->
  len:int ->
  (int -> size:int -> used:bool -> unit) ->
  (unit, int * int64) result
(** [walk load ~base ~len f] calls [f chunk ~size ~used] on each chunk
    of the [len]-byte area at [base], in address order, reading each
    header word through [load].  It stops with [Error (chunk, header)]
    at a header whose size is below {!min_chunk_bytes} or runs past the
    area.  The one walk of the chain: {!attach} refuses a broken one,
    the offline analyzer checks each footer in [f]. *)

val hdr_size : int64 -> int
val footer_addr : int -> int -> int
(** [footer_addr chunk size] is the chunk's footer-word address. *)

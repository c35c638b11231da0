(** The storage-class-memory device.

    This is the durable layer: whatever is in the device arena at the
    moment of a crash is what survives.  Caches and write-combining
    buffers above it are volatile overlays ({!Cache}, {!Wc_buffer}).

    Addresses here are {e physical} byte offsets into the device; the
    region manager translates the virtual addresses the rest of the
    system uses.  The device guarantees atomic aligned 64-bit writes
    (paper section 2) and nothing more.

    The arena can be saved to and reloaded from a file, which is how we
    emulate machine reboot: a crash test saves the post-crash image,
    constructs a fresh device from it, and re-runs recovery.

    The arena is one buffer per frame.  Every slot starts on one
    shared, never-written all-zero frame and gets a buffer of its own
    on its first write; a read never allocates.  A device costs its
    slot array plus the frames it has written. *)

type t

val frame_size : int
(** 4096: the bytes in one frame, and so in one page of the persistent
    address space. *)

val create : nframes:int -> unit -> t
(** [create ~nframes ()] makes a zeroed device of [nframes] frames,
    none of them allocated yet. *)

val nframes : t -> int

val load64 : t -> int -> int64
(** [load64 t addr] reads the aligned word at physical byte address
    [addr].  Raises [Invalid_argument] if out of range or unaligned. *)

val store64 : t -> int -> int64 -> unit
(** Atomic durable word write. *)

val store64_unchecked : t -> int -> int64 -> unit
(** {!store64} without the range/alignment precondition checks, for
    drain loops over addresses that were validated when first posted
    (out-of-range still raises, from the underlying bounds checks). *)

val read_into : t -> int -> Bytes.t -> int -> int -> unit
(** [read_into t addr buf off len] copies [len] device bytes at [addr]
    into [buf] starting at [off]. *)

val write_from : t -> int -> Bytes.t -> int -> int -> unit
(** Durable multi-byte write, used by the cache write-back path (a full
    line reaching memory) and by frame swap-in.  Not atomic beyond 64-bit
    granularity; callers must not rely on more.  It counts as one write,
    to the frame of its first byte. *)

val write_count : t -> int -> int
(** [write_count t frame] is the number of word/line writes that have
    landed in [frame] — the wear counter of section 4.5. *)

val total_writes : t -> int

val save_image : t -> string -> unit
(** Persist the full arena (and geometry) to a file: the magic, the
    frame size and [nframes], then every frame in address order.  The
    file always has that full length, but a never-written frame is a
    hole, so the file takes the disk space of the frames written.  The
    last frame is written last, so a save cut short leaves a file that
    {!load_image} rejects. *)

val load_image : string -> t
(** Reconstruct a device from a saved image.  Raises [Failure] unless
    the file is one {!save_image} wrote: the magic, a header frame size
    of {!frame_size}, and exactly [nframes] frames of data.  All-zero
    frames stay unallocated. *)

val copy : t -> t
(** A snapshot of the device; used by tests that compare pre/post-crash
    durable state.  It copies the written frames only.  The copy's undo
    journal starts fresh and disabled regardless of the source's. *)

(** {1 Undo journal}

    Roll-back support for crash-point exploration, which needs to
    restore the device to a known state hundreds of times per sweep.
    With the journal enabled every mutation first records the span's
    old contents, so {!journal_undo_to} costs O(bytes written since the
    mark) instead of the O(arena) of re-copying a pristine device.
    Wear counters ({!write_count}, {!total_writes}) are rolled back
    with the data, so a restored device is indistinguishable from a
    fresh copy of the original. *)

type mark
(** A point in the journal to roll back to. *)

val journal_start : t -> unit
(** Enable journaling (discarding any previous journal contents). *)

val journal_mark : t -> mark
(** The current journal position.  Marks taken later are nested inside
    earlier ones; undoing to an earlier mark invalidates later ones. *)

val journal_undo_to : t -> mark -> unit
(** Restore arena contents and wear counters to their state at [mark]
    by replaying recorded old contents newest-first, then truncate the
    journal back to [mark]. *)

(** libmnemosyne's region layer: persistent virtual memory.

    This is the user-mode half of the two-layer design of paper
    section 4.2.  It owns the process's persistent address space:

    - it records every region in the 16-KiB {e region table} at the base
      of the static region, which doubles as an intention log so that a
      crash in the middle of [pmap] never leaks a half-created region;
    - it translates persistent virtual addresses to SCM frames through
      the kernel {!Manager}, faulting pages in from backing files on
      first touch;
    - it exposes the memory primitives of table 3 on {e virtual}
      addresses, which is what every layer above (log, heap,
      transactions) programs against.

    A {!view} pairs the shared region state with one thread's
    {!Scm.Env.t}, so costs are charged to the right simulated thread. *)

type t

type view = { pmem : t; env : Scm.Env.t }

val open_instance : Scm.Env.machine -> Backing_store.t -> t
(** Attach to (or initialize) persistent memory: boots or formats the
    region manager, creates or maps the static region, replays the
    region-table intention log (recreating completed regions and
    destroying partially created ones), and garbage-collects orphaned
    backing files. *)

val manager : t -> Manager.t
val view : t -> Scm.Env.t -> view
val default_view : t -> view
(** A view over a standalone environment created at [open_instance];
    convenient for single-threaded use. *)

val remap_ns : t -> int
(** Modeled cost of recreating the address-space mappings at process
    start (the "1.1 ms" of paper section 6.3.2). *)

(** {1 Regions} *)

val pmap : view -> ?addr:int -> int -> int
(** [pmap v len] creates a dynamic persistent region of [len] bytes
    (rounded up to pages) and returns its base address.  The paper's
    [pmap] takes a persistent pointer to receive the address so the
    region cannot leak; callers with that requirement should store the
    result via {!store} into a [pstatic] slot inside a transaction —
    see {!Pstatic}. *)

val punmap : view -> int -> unit
(** Delete the whole region based at the given address: clears its
    region-table entry, releases its frames and deletes its backing
    file.  (Partial unmapping is not supported; DESIGN.md section 6.) *)

val regions : t -> (int * int) list
(** [(addr, len)] of every live dynamic region, ascending. *)

val region_containing : t -> int -> (int * int) option

val backing_file : t -> int -> string * int
(** [backing_file t addr]: the name of the backing file of the region
    holding [addr] and its length in bytes, which stays 0 until a page
    of the region is first written to it (an eviction or {!close}). *)

(** {2 Region-table introspection}

    The on-SCM region table layout, exposed read-only for the offline
    image analyzer ({!Check.Pmfsck}) and for corruption-seeding tests.
    The table occupies [Layout.region_table_size] bytes at
    [Layout.region_table_base]: a 64-byte header (magic, capacity)
    followed by 32-byte entries [base; len; inode; flags]. *)

val rt_magic : int64
val rt_capacity : int
val entry_addr : int -> int
(** Virtual address of region-table entry [i]. *)

val flag_intent : int64
val flag_valid : int64

val rt_read_entry : (int -> int64) -> int -> int * int * int * int64
(** Entry [i]'s [(base, len, inode, flags)] through the given load: the
    one parser, {!open_instance}'s replay and the offline analyzer's. *)

val is_persistent : int -> bool
(** The reserved-range check (constant time, no lookup). *)

(** {1 Memory primitives on virtual addresses} *)

val load : view -> int -> int64

val load_nt : view -> int -> int64
(** Non-temporal load: coherent but never allocates a cache line and
    never faults a page in — a non-resident page is read from its
    backing file without installing a frame.  For recovery-time sweeps
    over whole regions (see {!Scm.Primitives.load_nt}).  The address
    must be 8-byte aligned ([Invalid_argument] otherwise). *)

val load_nt_into : view -> int -> Bytes.t -> int -> int -> unit
(** [load_nt_into v addr buf off len] stores in [buf] at [off] the
    [len / 8] words that as many consecutive {!load_nt} calls from the
    aligned [addr] return ([len] a multiple of 8; the range may cross
    pages).  It resolves each page once: a resident page's lines come
    from the cache or the device ({!Scm.Cache.peek_into}), and a page
    that is not resident costs one backing-file read.  While the view's
    write-combining buffer is empty the copy is its only effect on the
    machine; otherwise each word of a resident page goes through
    {!Scm.Primitives.load_nt}, so every drain it causes, and with it
    every crash point, falls where it would. *)

val read_ahead_buf : view -> Bytes.t
(** One page the instance lends to sweeps that read ahead with
    {!load_nt_into}, such as [Rawl.attach]'s erase sweep.  Every
    view of the instance shares it: what a sweep reads into it lasts
    only until the sweep next does something that can let another
    fiber run (any store, fence or charged load). *)

val store : view -> int -> int64 -> unit
val wtstore : view -> int -> int64 -> unit
val flush : view -> int -> unit
val fence : view -> unit

val fence_many : view list -> unit
(** One fence covering several views' write-combining buffers (see
    {!Scm.Primitives.fence_group}); the head of the list pays the
    cost. *)

val load_bytes : view -> int -> Bytes.t -> int -> int -> unit
val store_bytes : view -> int -> Bytes.t -> int -> int -> unit
val wtstore_bytes : view -> int -> Bytes.t -> int -> int -> unit

val translate : view -> int -> int
(** Virtual to physical (faulting the page in); exposed for tests. *)

val wear_level : view -> threshold:float -> int
(** Run one wear-leveling pass over the resident frames, moving at most
    64 pages (see {!Manager.wear_level}); stale translations are
    invalidated through the eviction hook. *)

(** {1 Shutdown} *)

val close : view -> unit
(** Clean shutdown: flush caches for, and write back, every region to
    its backing file, so the backing store alone suffices to recover. *)

(** Tokyo-Cabinet-style persistence: a memory-mapped B+ tree file
    flushed with [msync] (table 4's baseline).

    "Tokyo Cabinet stores data in a B+ tree and periodically calls
    msync on a memory-mapped file to flush modified pages to disk...
    we configured it to save data with msync after every update."

    The store is functionally real (an in-memory map); the cost model
    captures what makes the msync path expensive: every update dirties
    the touched leaf plus tree metadata, and the mmap write-back path
    exhibits heavy write amplification (whole pages rewritten for small
    logical changes, allocation and reorganization traffic as values
    grow).  The constants reproduce the paper's measured TC-on-PCM-disk
    throughput shape: 2 metadata/leaf pages per update, one further
    dirty page per 34 bytes of value (mmap write amplification), and
    12000 ns per synced page (write-back + filesystem path + media). *)

type t

val create : ?sim:Sim.t -> Pcm_disk.t -> t
(** With a simulator handle, concurrent [msync]s serialize under the
    kernel's write-back lock (multi-threaded use). *)

val put : t -> Scm.Env.t -> Bytes.t -> Bytes.t -> unit
(** Update and [msync]: durable on return. *)

val get : t -> Scm.Env.t -> Bytes.t -> Bytes.t option
val delete : t -> Scm.Env.t -> Bytes.t -> bool
val length : t -> int

(** Berkeley-DB-style write-ahead log: one centralized volatile log
    buffer with group commit.

    This is the component the paper identifies as BDB's scaling
    bottleneck: "contention on the centralized log buffer, which
    becomes the serialization bottleneck as I/O latency becomes
    shorter" (section 6.3).  Record insertion happens under a global
    mutex (the serialized software path); the flush to the PCM-disk is
    led by one thread while followers wait on a condition variable and
    are released in a group — BDB's group commit, which is what buys
    the 2-thread improvement and no more.

    Without a simulator handle the log degrades to per-record flushes
    (single-threaded use). *)

type t

val create : ?sim:Sim.t -> Pcm_disk.t -> start_block:int -> blocks:int -> t
(** Each record charges 16000 ns of in-mutex software cost (buffer
    management, lock subsystem) plus a quarter ns per byte. *)

val commit_record : t -> Scm.Env.t -> int -> unit
(** [commit_record t env bytes] durably commits a log record of that
    size: append under the mutex, then group-flush to disk.  Returns
    once the record's LSN is flushed. *)

val records : t -> int
val flushes : t -> int
(** Disk flushes issued; [records t / flushes t] is the achieved group
    size. *)

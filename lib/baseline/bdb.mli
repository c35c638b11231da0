(** A Berkeley-DB-style transactional storage manager on PCM-disk.

    The comparison target of figures 4, 5 and 7 and of OpenLDAP's
    back-bdb backend (table 4).  Implements the mechanisms that give
    the real BDB its disk-era performance profile:

    - a hash access method over fixed pages, cached in a {!Page_cache};
    - per-update commit through the centralized {!Wal} (group commit);
    - lazy checkpoints that trickle dirty pages back to disk;
    - a per-operation software path (buffer and lock management) that
      is partly serialized inside the WAL mutex.

    Transactions here are per-operation ([put]/[delete] each commit),
    matching the paper's microbenchmark configuration ("data is
    committed to storage on every update").

    Functionally a real key-value store: contents survive in the page
    images and a directory, so gets return what puts stored. *)

type t

val create :
  ?sim:Sim.t ->
  ?cache_pages:int ->
  ?op_overhead_ns:int ->
  Pcm_disk.t ->
  t
(** [op_overhead_ns] is the parallel per-operation software path
    (default 9000 ns).  A checkpoint slice runs every 64 commits. *)

val put : t -> Scm.Env.t -> Bytes.t -> Bytes.t -> unit
val get : t -> Scm.Env.t -> Bytes.t -> Bytes.t option
val delete : t -> Scm.Env.t -> Bytes.t -> bool
val length : t -> int

val put_nosync : t -> Scm.Env.t -> Bytes.t -> Bytes.t -> unit
(** Non-transactional put: dirties the page but writes no log record —
    the back-ldbm mode, which "periodically asks Berkeley DB to flush
    dirty data to disk to minimize the window of vulnerability". *)

val flush_dirty : t -> Scm.Env.t -> ?max:int -> unit -> unit
(** The periodic flush back-ldbm relies on. *)

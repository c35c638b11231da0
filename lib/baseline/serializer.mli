(** Boost-style whole-structure serialization to a file on PCM-disk.

    The alternative persistence strategy of table 5: keep the tree in
    DRAM and periodically serialize it to a file ("productivity
    applications including word processors use this approach for
    periodic fast saves").  A real binary encoder walks the entries;
    the cost is the per-byte serialization CPU (Boost's archive
    overhead) plus the sequential file write. *)

val encode : (int64 * Bytes.t) list -> Bytes.t
(** Length-prefixed binary encoding of the entries. *)

val decode : Bytes.t -> (int64 * Bytes.t) list
(** Inverse of {!encode}. *)

val serialize :
  Pcm_disk.t ->
  Scm.Env.t ->
  start_block:int ->
  (int64 * Bytes.t) list ->
  int
(** Encode and write the entries to the file starting at [start_block];
    charges CPU (3 ns/byte) plus the disk write; returns bytes
    written. *)

val deserialize :
  Pcm_disk.t -> Scm.Env.t -> start_block:int -> (int64 * Bytes.t) list
(** Read back the most recent {!serialize} at that location. *)

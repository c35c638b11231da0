(** A buffer pool of disk pages with LRU eviction and dirty tracking —
    the storage manager's cache between the access methods and the
    PCM-disk. *)

type t

val create : Pcm_disk.t -> capacity_pages:int -> t

val get : t -> Scm.Env.t -> int -> Bytes.t
(** Fetch a page (reading from disk on a miss; a dirty victim is
    written back on eviction). *)

val mark_dirty : t -> int -> unit
val resident : t -> int

val flush_some : t -> Scm.Env.t -> max:int -> int
(** Write back up to [max] dirty pages (checkpoint slice); returns how
    many were written. *)

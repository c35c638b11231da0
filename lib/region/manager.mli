(** The kernel region manager (paper section 4.2).

    Owns the SCM frame pool: it reconstructs persistent mappings from
    the {!Mapping_table} at boot, allocates frames to (file, page)
    pairs, faults pages in from backing files, and swaps frames out
    under memory pressure.  Everything volatile here (the free list, the
    residency index) is rebuilt by {!boot}; only the mapping table in
    SCM and the backing files persist.

    All durable mapping-table updates and I/O charges go to the calling
    thread's environment. *)

type t

type boot_stats = {
  frames_scanned : int;
  mappings_rebuilt : int;
  boot_ns : int;
      (** Modeled reconstruction time: what the paper measures as
          "734 ms for 1 GB of SCM" (section 6.3.2). *)
}

val format : Scm.Env.machine -> Backing_store.t -> t
(** Initialize a fresh device: format the mapping table, free-list all
    non-reserved frames. *)

val boot : Scm.Env.machine -> Backing_store.t -> t
(** Reconstruct from an existing device image: scan the mapping table,
    rebuild the residency index and free list, charging 2800 ns per
    frame scanned to [boot_ns].  Raises [Failure] if the device was
    never formatted. *)

val boot_stats : t -> boot_stats

val free_frames : t -> int
val resident_frames : t -> int

val frame_of : t -> inode:int -> page_off:int -> int option
(** Residency lookup, no fault. *)

val fault_in : t -> Scm.Env.t -> inode:int -> page_off:int -> int
(** Return the frame holding the page, loading it from the backing file
    (and evicting a victim if SCM is full).  Raises [Failure] if there
    is genuinely no frame to reclaim. *)

val release_pages : t -> Scm.Env.t -> inode:int -> unit
(** Drop every resident page of a file without writing it back (the
    [punmap]-and-delete path). *)

val sync_to_backing : t -> Scm.Env.t -> inode:int -> unit
(** Write every resident page of a file to the backing file, keeping it
    resident.  Clean-shutdown path: makes the backing files a complete
    copy so even a lost SCM device can be recovered. *)

val on_evict : t -> (inode:int -> page_off:int -> unit) -> unit
(** Register a hook called when a page loses its frame (swap-out,
    release, or wear-leveling migration); the address-translation
    caches above invalidate through this. *)

val wear_level : t -> Scm.Env.t -> threshold:float -> int
(** The remapping the paper sketches in section 4.5: "virtualization
    enables remapping heavily used virtual pages to spread writes to
    different physical PCM frames".  Migrates every resident page whose
    frame has absorbed more than [threshold] times the mean per-frame
    write count (this boot) onto the least-worn free frame: copy, then
    durably install the new mapping, then free the old one — a crash
    between the two steps leaves both frames holding identical data, so
    recovery is safe with either.  Returns pages moved (at most 64).
    No-op when no free frame is colder than
    the source. *)

val swaps_out : t -> int
val swaps_in : t -> int

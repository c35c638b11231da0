(** Backing files for persistent regions.

    Every region is associated with a file (paper section 4.2): the
    region manager swaps SCM pages out to it under memory pressure, and
    it is how a region survives replacement of the SCM device itself.
    Files live in a real directory — the analogue of the program's
    working directory / [MNEMOSYNE_REGION_PATH].

    Files are identified by inode number; a small persistent index file
    maps names ("static", region files) to inodes, standing in for the
    filesystem namespace.  The index is rewritten only when a name goes
    or comes: a named create, a delete and {!sync}.  Its inode count is
    a floor, and {!open_dir} starts above every file the directory
    holds, so an inode is never handed out twice, across a crash too. *)

type t

val open_dir : string -> t
(** Open (creating if needed) a backing directory.  The next inode is
    the larger of the index's count and one above every inode the
    directory lists. *)

val page_io_ns : int
(** 2500: the simulated ns charged for one page transfer to or from the
    file system (the swap path cost). *)

val create_file : t -> ?name:string -> unit -> int
(** Create an empty backing file; returns its inode.  A [name] makes the
    file findable with {!find} (used for the static region's file) and
    rewrites the index; an unnamed create leaves the index as it is. *)

val find : t -> string -> int option

val delete_file : t -> int -> unit
(** Rewrite the index, dropping any name of the inode, then remove its
    file. *)

val file_exists : t -> int -> bool

val file_name : int -> string
(** The directory entry of an inode's file: ["f"] and the inode in at
    least six digits. *)

val file_bytes : t -> int -> int
(** The length of an inode's file; 0 when it is missing. *)

val list_inodes : t -> int list
(** Inodes of all files present in the directory, ascending (the
    orphan-collection scan and {!open_dir}'s floor). *)

val read_page : t -> int -> int -> Bytes.t -> unit
(** [read_page t inode page_off buf] fills [buf] (one page) from page
    [page_off] of file [inode]; absent pages read as zeros. *)

val write_page : t -> int -> int -> Bytes.t -> unit

val sync : t -> unit
(** Rewrite the index; file data is written through. *)

val global_mutations : unit -> int
(** Monotone count of mutating operations ({!create_file},
    {!delete_file}, {!write_page}, {!sync}) across {e all} stores in the
    process.  The crash-point explorer reads it before and after a run
    to prove its scratch directory was left untouched — and, if so,
    skips re-seeding the directory from the pristine setup copy. *)

(** A persistent B+ tree, order 16.

    The structure of the paper's Tokyo Cabinet port (section 6.2):
    "Tokyo Cabinet stores data in a B+ tree"; the modified version
    "allocates its B+ tree in a persistent region and performs updates
    in durable transactions".

    Internal nodes hold up to 15 separator keys and 16 children; leaves
    hold up to 15 (key, value-blob) pairs and are chained for range
    scans.  Insertion splits full nodes proactively on the way down.
    Deletion is lazy: entries are removed (and their blobs freed) but
    underfull leaves are not merged — the standard space/time trade
    Tokyo Cabinet itself makes between compactions. *)

type t

val create : Mtm.Txn.t -> slot:int -> t
val attach : Mtm.Txn.t -> root:int -> t

val put : Mtm.Txn.t -> t -> int64 -> Bytes.t -> unit
val find : Mtm.Txn.t -> t -> int64 -> Bytes.t option
val remove : Mtm.Txn.t -> t -> int64 -> bool
val length : Mtm.Txn.t -> t -> int

val iter : Mtm.Txn.t -> t -> (int64 -> Bytes.t -> unit) -> unit
(** Ascending-key scan along the leaf chain. *)

val range : Mtm.Txn.t -> t -> lo:int64 -> hi:int64 -> (int64 * Bytes.t) list
(** Entries with [lo <= key <= hi], ascending. *)

val validate : Mtm.Txn.t -> t -> unit
(** Structural invariants: sorted keys, consistent separators, uniform
    leaf depth, intact leaf chain.  Test hook. *)

(** {1 On-SCM format introspection}

    The persistent block formats, exposed for the offline analyzer
    ({!Check.Pmfsck}).  Header block: [[magic] [count] [root node]
    [scratch]].  Node block ({!node_bytes} bytes): kind word, key-count
    word, then the leaf or internal arrays at the offsets below. *)

val magic : int64
val max_keys : int
val node_bytes : int

val f_kind : int -> int
(** 0 = internal, 1 = leaf. *)

val f_nkeys : int -> int
val leaf_key : int -> int -> int
val int_key : int -> int -> int
val int_child : int -> int -> int
(** Each takes the node address (and an index). *)

(** A persistent chained hash table.

    The structure of the paper's microbenchmarks (figures 4, 5 and 7):
    "a simple hash table using Mnemosyne transactions for persistence",
    modelled on Christopher Clark's C hash table.  Fixed power-of-two
    bucket array (no rehashing), separate chaining, keys and values are
    byte blobs inlined into each chain node's block.

    Every operation must run inside a durable transaction; the table is
    exactly as consistent as the transactions that touched it.  The
    root is a persistent pointer slot (typically a [pstatic]), so the
    table is found again on the next run. *)

type t
(** A volatile handle (root address + cached geometry). *)

val create : Mtm.Txn.t -> slot:int -> buckets:int -> t
(** Allocate an empty table with [buckets] (rounded up to a power of
    two) chains, rooting it at [slot]. *)

val attach : Mtm.Txn.t -> root:int -> t
(** Re-open a table by its root address (the value in the slot). *)

val put : Mtm.Txn.t -> t -> Bytes.t -> Bytes.t -> unit
(** Insert or replace. *)

val find : Mtm.Txn.t -> t -> Bytes.t -> Bytes.t option

val remove : Mtm.Txn.t -> t -> Bytes.t -> bool
(** True if the key was present. *)

val length : Mtm.Txn.t -> t -> int

(** {1 On-SCM format introspection}

    The persistent block formats, exposed for the offline analyzer
    ({!Check.Pmfsck}).  Header block: [[magic|buckets]] then the bucket
    array address at [root + 8].  Chain node block:
    [[next] [hash] [klen|vlen] [key bytes] [value bytes]]. *)

val magic : int64
(** Top byte of a header word. *)

val unpack_lens : int64 -> int * int
(** [(klen, vlen)] from a node's length word (at [node + 16]). *)

val node_bytes : klen:int -> vlen:int -> int
val key_addr : int -> int

val hash_bytes : Bytes.t -> int64
(** The key hash stored at [node + 8]. *)

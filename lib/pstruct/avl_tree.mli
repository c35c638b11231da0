(** A persistent AVL tree with 64-bit keys and blob values.

    This is the structure the paper's OpenLDAP port keeps its entry
    cache in (section 6.2): "the cache is organized using an AVL tree,
    which we make persistent by allocating nodes with pmalloc and
    placing atomic blocks around updates".  All mutation happens inside
    durable transactions; rotations, node allocation and value blobs
    commit or vanish together. *)

type t

val create : Mtm.Txn.t -> slot:int -> t
(** Allocate an empty tree rooted at the persistent [slot]. *)

val attach : Mtm.Txn.t -> root:int -> t

val put : Mtm.Txn.t -> t -> int64 -> Bytes.t -> unit
(** Insert or replace the value for a key. *)

val find : Mtm.Txn.t -> t -> int64 -> Bytes.t option

val remove : Mtm.Txn.t -> t -> int64 -> bool

val length : Mtm.Txn.t -> t -> int

val iter : Mtm.Txn.t -> t -> (int64 -> Bytes.t -> unit) -> unit
(** In-order (ascending key) traversal. *)

val validate : Mtm.Txn.t -> t -> unit
(** Check the AVL invariants (BST ordering, height bookkeeping, balance
    factors within one); raises [Failure] on violation.  Test hook. *)

(** Length-prefixed byte blobs in persistent memory.

    The unit of storage for keys and values in the persistent data
    structures: one heap block holding a length word followed by the
    bytes.  Allocation and writes ride the surrounding transaction, so
    a blob exists iff the transaction that created it committed. *)

val alloc : Mtm.Txn.t -> slot:int -> Bytes.t -> int
(** Allocate a blob, storing its address into the persistent [slot]
    (usually a field of the node under construction); returns the
    address. *)

val read : Mtm.Txn.t -> int -> Bytes.t
(** Read a blob's contents. *)

val free : Mtm.Txn.t -> slot:int -> unit
(** Free the blob a slot points at, clearing the slot. *)

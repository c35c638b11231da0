(** A persistent red-black tree with fixed-size inline payloads.

    The structure of the paper's serialization comparison (table 5):
    "the cost of maintaining a red-black tree with 128 byte nodes in
    persistent memory" versus serializing it with Boost.  Nodes carry
    their payload inline, so with the default payload size a node block
    is exactly 128 bytes.  Classic CLRS algorithms (parent pointers,
    insert/delete fixups) executed under durable transactions. *)

type t

val create : Mtm.Txn.t -> slot:int -> ?payload_bytes:int -> unit -> t
(** [payload_bytes] defaults to 88, making the node block exactly 128
    bytes. *)

val payload_bytes : t -> int

val put : Mtm.Txn.t -> t -> int64 -> Bytes.t -> unit
(** Insert or overwrite; the payload is truncated or zero-padded to the
    tree's payload size. *)

val find : Mtm.Txn.t -> t -> int64 -> Bytes.t option
val remove : Mtm.Txn.t -> t -> int64 -> bool
val length : Mtm.Txn.t -> t -> int
val iter : Mtm.Txn.t -> t -> (int64 -> Bytes.t -> unit) -> unit

val validate : Mtm.Txn.t -> t -> unit
(** Red-black invariants: root black, no red node with a red child,
    equal black height on every path, BST order.  Test hook. *)

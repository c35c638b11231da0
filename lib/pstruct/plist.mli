(** A persistent singly-linked list (newest first).

    The simplest structure built on the transactional API; used by the
    quickstart example as an append-style log of application records.
    Demonstrates the paper's figure-3 idiom: allocate a node with a
    transactional [pmalloc], fill it, link it — all in one atomic
    block. *)

type t

val create : Mtm.Txn.t -> slot:int -> t
val attach : Mtm.Txn.t -> root:int -> t

val push : Mtm.Txn.t -> t -> Bytes.t -> unit
(** Prepend a value. *)

val pop : Mtm.Txn.t -> t -> Bytes.t option
(** Remove and return the newest value. *)

val length : Mtm.Txn.t -> t -> int

val iter : Mtm.Txn.t -> t -> (Bytes.t -> unit) -> unit
(** Newest to oldest. *)

val to_list : Mtm.Txn.t -> t -> Bytes.t list

(** Transaction histories and the conflict-serializability oracle.

    When a history hook is installed on a pool
    ({!Txn.set_history_hook}), every transaction outcome is reported as
    an {!event}: commits carry the transaction's first-read values, its
    write set, and its commit timestamp; aborts carry the attempt
    number.  {!check} validates a collected history against a serial
    oracle — replaying the committed transactions in commit-timestamp
    order against a model memory and demanding that every recorded read
    and the final memory image match the replay.  Any divergence means
    two transactions overlapped in a non-serializable way: a race.

    The oracle's order is not arbitrary: recovery replays redo records
    in commit-timestamp order (see {!Txn.create_pool}), so cts-order
    view consistency is exactly the contract a crash already depends
    on. *)

type commit_record = {
  tid : int;  (** Thread slot. *)
  cts : int;  (** Commit timestamp; for read-only transactions, [rv]. *)
  read_only : bool;
  reads : (int * int64) array;
      (** (address, value) of every memory read, in program order.
          Reads satisfied from the transaction's own write set are
          internal and not recorded. *)
  writes : (int * int64) array;  (** (address, new value). *)
}

type event = Commit of commit_record | Abort of { tid : int; attempt : int }

type t
(** A collected history (arrival order). *)

val create : unit -> t
val add : t -> event -> unit

val events : t -> event list
(** In arrival order. *)

val check :
  t -> initial:(int -> int64) -> final:(int -> int64) -> string list
(** [check t ~initial ~final] replays the committed transactions in
    (cts, writers-first, arrival) order against a model memory whose
    untouched cells read as [initial addr], checking every recorded
    read against the model and finally the model against [final addr].
    Returns human-readable violation descriptions; [[]] means the
    history is consistent with its commit-timestamp serialization. *)

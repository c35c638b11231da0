(** A persistent binary search tree updated by {e shadow updates} —
    the third consistency mechanism of paper table 2.

    No transactions: every update writes a completely new path of nodes
    into free space (stores unordered), fences once, and then publishes
    the new root with a single atomic pointer write — "the reference can
    only be modified after the new data has completed writing".  Crash
    at any point leaves either the old or the new tree, never a mix.

    The price the paper names: new memory for every update, and "after
    a failure, a program must find and release unreferenced new data" —
    {!attach} performs exactly that mark-and-sweep over the tree's node
    arena, reporting how many leaked nodes it reclaimed.

    Nodes are fixed-size (key + payload chosen at {!create}) and live in
    a dedicated arena inside the tree's region; the free list is
    volatile.  Unbalanced (plain BST): the mechanism, not asymptotics,
    is the point — the paper recommends shadow updates for "tree-like
    structures where data is reachable through a single pointer". *)

type t

val region_bytes_for : payload_bytes:int -> capacity:int -> int
(** Region size needed for a tree of at most [capacity] live nodes. *)

val create :
  Region.Pmem.view -> base:int -> payload_bytes:int -> capacity:int -> t
(** Format a tree over fresh zeroed persistent memory. *)

val attach : Region.Pmem.view -> base:int -> t * int
(** Recover: mark the nodes reachable from the published root, sweep the
    rest onto the free list.  Returns the handle and how many
    previously-used unreferenced nodes were swept — the in-flight
    update a crash cut short plus any shadow garbage not yet reused. *)

val put : t -> int64 -> Bytes.t -> unit
(** Shadow-update insert/replace: durable on return (one fence for the
    new path, one atomic root swing).  Raises [Failure] when the arena
    is full. *)

val find : t -> int64 -> Bytes.t option
val length : t -> int
val iter : t -> (int64 -> Bytes.t -> unit) -> unit

val live_nodes : t -> int

(** FastTrack-style happens-before race detection for volatile
    coordination state (DESIGN.md section 18).

    The detector consumes the {!Race_api.hooks} stream fired by the
    instrumented layers (sim synchronization edges, STM coordination
    state, RAWL cursors, admission counters) and reports every pair of
    plain accesses — at least one a write — unordered by
    happens-before.  Because ordering comes from real synchronization
    edges and never from scheduling accident, a race is flagged even on
    runs where the adversarial interleaving did not fire.

    Per-fiber clocks are vector clocks; per-location metadata is
    epoch-compressed in the default {!Fasttrack} mode and kept as full
    per-fiber maps in {!Naive_vc}, the textbook reference the
    equivalence qcheck property compares against. *)

(** Vector clocks over fiber ids (sparse; absent components read 0).
    Exposed for the partial-order law tests. *)
module Vc : sig
  type t

  val empty : t
  val set : t -> int -> int -> t
  val tick : t -> int -> t
  (** Increment the fiber's own component. *)

  val join : t -> t -> t
  (** Pointwise max — the least upper bound. *)

  val leq : t -> t -> bool
  (** Pointwise order: [leq a b] iff every component of [a] is [<=]
      the same component of [b]. *)

  val equal : t -> t -> bool
end

type mode =
  | Fasttrack  (** Epoch-compressed metadata (the default). *)
  | Naive_vc  (** Full vector clocks everywhere (test reference). *)

type access = {
  fiber : int;  (** Simulator process id ([-1] = outside any fiber). *)
  clock : int;  (** The accessor's own clock component at the access. *)
  op : int;  (** Global detector op index (dual provenance anchor). *)
  time : int;  (** Simulated nanoseconds. *)
}

type race_kind = Write_write | Read_write | Write_read

type race = {
  loc : string;  (** Annotated location label. *)
  kind : race_kind;
  prior : access;  (** The earlier recorded accessor. *)
  cur : access;  (** The access that exposed the race. *)
}

type t

val create :
  ?mode:mode -> fiber:(unit -> int) -> now:(unit -> int) -> unit -> t
(** [create ~fiber ~now ()] builds a detector resolving the current
    fiber id and simulated time through the given closures (the
    harness wires [fiber] to the simulator's current process). *)

val hooks : t -> Race_api.hooks
(** The hook record to install into the instrumented layers. *)

val races : t -> race list
(** Races reported so far, in report order.  Each location is reported
    at most once: the first race taints it. *)

val race_count : t -> int

val ops : t -> int
(** Hook invocations consumed so far (the op-index clock). *)

val render : race -> string
(** One-line report with dual provenance: both accessors' op index,
    simulated time and fiber id, plus the location label. *)

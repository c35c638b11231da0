(** Admission control for the serving front-end.

    The policy replaces the unbounded log-full stall with load
    shedding at two points, both {e before} a transaction can touch
    persistent state:

    - {e enqueue}: a request arriving at a tenant whose queue holds
      [queue_cap] entries is rejected ({!Queue_full}).  This bounds the
      queueing delay any admitted request can see — the open-loop
      arrival process cannot grow an unbounded backlog.
    - {e dispatch}: a worker about to run a request first probes its
      RAWL occupancy ({!Mtm.Txn.log_occupancy}); at or above
      [log_high_pct] percent full the request is rejected
      ({!Log_pressure}) instead of being started and wedging in the
      append path once the log fills mid-commit.

    Between [boost_pct] and [log_high_pct] the worker admits the
    request but wakes its shard's write-back drainer first — truncation
    gets a head start so it outruns arrivals instead of being paged in
    only once producers are already stalled.

    A rejection never starts a transaction, so a shed request leaves
    zero persistent side effects (pinned by the crash-explore serving
    sweep).  Counters are plain mutable fields: the policy object is
    owned by one simulated serving instance. *)

type reason = Queue_full | Log_pressure

type config = {
  queue_cap : int;  (** Per-tenant queue bound; 0 = unbounded. *)
  log_high_pct : int;  (** Shed at this RAWL occupancy; 0 = gate off. *)
  boost_pct : int;  (** Wake drainers at this occupancy; 0 = off. *)
}

val legacy : config
(** Every gate off — the measurable stall-regime baseline. *)

val default : config
(** queue_cap 64, shed at 85% log occupancy, boost drainers at 60%. *)

type t

val make : config -> t
(** Raises [Invalid_argument] on a negative cap or a percentage outside
    [0, 100]. *)

val admit_enqueue : t -> queue_len:int -> (unit, reason) result
(** Decide a request arriving at a tenant queue currently [queue_len]
    deep; counts the decision. *)

val admit_dispatch : t -> used:int -> cap:int -> (unit, reason) result
(** Decide a dequeued request against the dispatching worker's RAWL
    occupancy ([used] of [cap] words); counts a rejection.  Admissions
    were already counted at enqueue. *)

val should_boost : t -> used:int -> cap:int -> bool
(** True when occupancy is at or above [boost_pct] (and the knob is
    on): the worker should wake its shard drainer before dispatching. *)

val admitted : t -> int
val shed_queue : t -> int
val shed_log : t -> int

val shed : t -> int
(** [shed_queue + shed_log]. *)

val set_race : t -> Race_api.hooks option -> unit
(** Race-detection hooks (DESIGN.md section 18): the admit/shed
    tallies are shared single-word counters, so every admission
    decision is one rmw edge on the counter it bumps.  [None] (the
    default) keeps every site a single never-taken branch. *)

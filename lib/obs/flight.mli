(** The one event ring behind both the flight recorder and the trace.

    Every {!Obs} emitter records here exactly once.  Entries are
    int-coded ({!Trace.kind_code}, or 20..22 for causal flow
    start/step/end) and live in one int array, so recording is a
    handful of int stores: no allocation, no simulated-time charge, no
    randomness.  The ring therefore stays on under every run without
    perturbing allocation budgets, simulated figures or crash-point
    indices.

    It holds the last {!flight_capacity} entries until tracing starts,
    then the last {!trace_capacity}, doubling its array as entries
    arrive until it reaches that size.  The trace is the part recorded
    since tracing started; when it overflows, the oldest entries are
    overwritten and counted ({!dropped}). *)

val flight_capacity : int
(** 256 entries: the ring's size while tracing is off, and the window
    a flight dump prints. *)

val trace_capacity : int
(** 65536 entries: the most the ring holds once tracing is on. *)

type entry = {
  code : int;
  ts : int;  (** simulated ns *)
  dur : int;  (** simulated ns; [-1] marks an instant *)
  tid : int;
  arg : int;  (** the payload; the txid for a flow entry *)
}
(** A copy of one held entry, made when the ring is read. *)

type t

val create : unit -> t
(** An empty ring with tracing off. *)

val record : t -> code:int -> ts:int -> dur:int -> tid:int -> arg:int -> unit
(** Overwrite the oldest slot in place.  Allocation-free, except when a
    traced ring below {!trace_capacity} doubles. *)

val start_trace : t -> unit
(** Let the ring grow to {!trace_capacity}, keeping the entries it
    holds, and start the trace at the next entry.  No-op when already
    tracing. *)

val tracing : t -> bool

val total : t -> int
(** Entries ever recorded, held or not. *)

val last : t -> int -> entry list
(** The newest [n] held entries (fewer if the ring holds fewer), oldest
    first. *)

val traced : t -> entry list
(** The held entries recorded since tracing started, oldest first;
    empty when tracing is off. *)

val dropped : t -> int
(** Entries recorded since tracing started that the ring has since
    overwritten. *)

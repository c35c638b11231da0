(** Observability: one handle bundling a metrics registry, the event
    ring that serves as both flight recorder and trace, and the
    simulated clock they are stamped with.

    One [Obs.t] belongs to one simulated machine ({!Scm.Env.machine})
    and is threaded through every layer above it.  Metrics are always
    live — recording them never charges simulated time, so they cannot
    perturb an experiment.  Every emitted event lands once in the
    handle's {!Flight} ring, with no allocation: the last 256 are always
    there for a failure report, and with tracing on the ring grows to
    hold up to 65536 entries and everything recorded since tracing
    started is the trace ({!Trace.to_chrome_json}).

    Timestamps come either from the caller (layers that hold an
    {!Scm.Env.t} pass [env.now ()] explicitly) or from the handle's
    clock, which environment creation keeps pointed at the most
    recently created environment's clock — under the discrete-event
    simulator all environments share one clock, so any of them is the
    truth. *)

module Metrics = Metrics
module Trace = Trace
module Flight = Flight
module Txprof = Txprof
module Json = Json

type t = {
  metrics : Metrics.t;
  flight : Flight.t;
  mutable clock : unit -> int;
  mutable cur_tid : int;
}

val create : ?tracing:bool -> unit -> t
(** A fresh handle; metrics and flight recorder on, trace off unless
    [tracing]. *)

val tracing : t -> bool

val enable_trace : t -> unit
(** Start the trace: events recorded from now on are exported. *)

val set_clock : t -> (unit -> int) -> unit
val now : t -> int

val set_tid : t -> int -> unit
(** Set the current track; cooperative simulated threads set this when
    they are scheduled so events land on their track. *)

(** {1 Emitters}

    Each records one ring entry (a handful of int stores, no
    allocation) and charges no simulated time. *)

val instant : t -> Trace.kind -> arg:int -> unit
(** Instant event stamped with the handle's clock. *)

val instant_at : t -> Trace.kind -> ts:int -> arg:int -> unit
val complete : t -> Trace.kind -> ts:int -> dur:int -> arg:int -> unit

val flow : t -> phase:[ `Start | `Step | `End ] -> id:int -> unit
(** Record one causal flow stamp for transaction [id] at the handle's
    clock (see {!Trace.flow_code}). *)

val flight_dump : t -> string
(** The failure-report payload: the ring's last 256 events plus a
    metrics dump, both human-readable. *)

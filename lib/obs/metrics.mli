(** Named counters and fixed-bucket latency histograms.

    Everything here is volatile bookkeeping about the {e simulated}
    machine: recording never charges simulated time, so enabling
    metrics cannot perturb a measurement.

    Histograms are HDR-style log-linear: values below 512 get
    unit-width buckets, and every power-of-two range above is split
    into 512 equal sub-buckets, bounding the relative quantization
    error by 1/512.  Recording is O(1); count,
    sum, mean, min and max are exact; percentile queries walk the
    bucket array once — O(buckets), independent of the sample count.
    The bucket array is allocated by the first {!record}, so a
    histogram that never sees a sample costs a few words. *)

type counter
type gauge
type histogram

type t
(** A registry: each named counter, gauge or histogram exists once. *)

val create : unit -> t

(** {1 Counters} *)

val counter : t -> string -> counter
(** Get or create the named counter. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

(** {1 Gauges}

    A gauge is a point-in-time value sampled on demand — cache
    occupancy, log fill, wear level — as opposed to a cumulative
    counter.  The gauge holds a sampling closure over the live data
    structure, so reading it never requires the instrumented code to
    push updates: registration is one closure store and steady-state
    cost is zero. *)

val gauge : t -> string -> gauge
(** Get or create the named gauge (sampling 0 until {!set_gauge}). *)

val set_gauge : gauge -> (unit -> int) -> unit
(** Point the gauge at its subject.  Last call wins, which is the
    desired behaviour when a structure is re-created (e.g. a log
    re-attached after recovery). *)

(** {1 Histograms} *)

val make_histogram : string -> histogram
(** A standalone histogram outside any registry. *)

val histogram : t -> string -> histogram
(** Get or create the named histogram in the registry. *)

val record : histogram -> int -> unit
(** Record one sample (negative samples clamp to 0). *)

val hcount : histogram -> int
val hsum : histogram -> int
val hmean : histogram -> float
val hmin : histogram -> int
(** Exact smallest recorded sample; 0 when empty. *)

val hmax : histogram -> int
(** Exact largest recorded sample; 0 when empty. *)

val percentile : histogram -> float -> int
(** [percentile h p] with [p] in [0..100]: the sample at rank
    [round (p/100 * (n-1))], quantized to its bucket (exact below
    512; relative error at most 1/512 above). *)

(** {1 Dumping} *)

val dump : t -> string
(** Human-readable table of every counter, gauge and histogram. *)

(** {1 Export} *)

val to_json : t -> string
(** A JSON document: [{"counters": {..}, "gauges": {..},
    "histograms": {name: {count, sum, min, max, mean, p50, p90, p99,
    p999}}}], each section in ascending name order.  Gauges are sampled
    when the document is built. *)

(** Named counters and fixed-bucket latency histograms.

    Everything here is volatile bookkeeping about the {e simulated}
    machine: recording never charges simulated time, so enabling
    metrics cannot perturb a measurement.

    Histograms are HDR-style log-linear: values below [2^sub_bits] get
    unit-width buckets, and every power-of-two range above is split
    into [2^sub_bits] equal sub-buckets, bounding the relative
    quantization error by [2^-sub_bits].  Recording is O(1); count,
    sum, mean, min and max are exact; percentile queries walk the
    bucket array once — O(buckets), independent of the sample count. *)

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
val counter_name : counter -> string

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

val gauge_value : gauge -> int
(** Sample the gauge now. *)

val gauge_name : gauge -> string

(** {1 Histograms} *)

val default_sub_bits : int
(** 9: unit buckets below 512, relative error bounded by 1/512. *)

val make_histogram : ?sub_bits:int -> string -> histogram
(** A standalone histogram outside any registry. *)

val histogram : ?sub_bits:int -> t -> string -> histogram
(** Get or create the named histogram in the registry.  [sub_bits]
    applies only on creation. *)

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
    [2^sub_bits]; relative error at most [2^-sub_bits] above). *)

val histogram_name : histogram -> string
val nbuckets : histogram -> int
val hreset : histogram -> unit

(** {1 Dumping} *)

val iter_counters : t -> (counter -> unit) -> unit
(** Ascending name order. *)

val iter_gauges : t -> (gauge -> unit) -> unit
(** Ascending name order. *)

val iter_histograms : t -> (histogram -> unit) -> unit
(** Ascending name order. *)

val dump : t -> string
(** Human-readable table of every counter, gauge and histogram. *)

(** {1 Export} *)

val to_json : t -> string
(** A JSON document: [{"counters": {..}, "gauges": {..},
    "histograms": {name: {count, sum, min, max, mean, p50, p90, p99,
    p999}}}], each section in ascending name order.  Gauges are sampled
    when the document is built. *)

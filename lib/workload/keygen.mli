(** Deterministic workload generation: keys, values and access
    distributions for the benchmarks. *)

type t

val create : ?seed:int -> unit -> t

val uniform_int : t -> int -> int
(** Uniform in [0, n). *)

val seq_key : int -> Bytes.t
(** The [i]-th sequential key (loading phases). *)

val value : t -> int -> Bytes.t
(** A pseudo-random value of exactly [n] bytes. *)

(** Zipf-distributed ranks (hot keys), for skewed workloads. *)
module Zipf : sig
  type table = private float array
  (** The cumulative distribution over ranks 0..n-1: [n] floats, built
      once and shared read-only by any number of samplers.  Entry [i]
      is the probability of a rank <= [i]; the last is exactly 1. *)

  val table : n:int -> theta:float -> table
  (** Ranks 0..n-1 with skew [theta] (0 = uniform, ~0.99 = typical
      YCSB-style skew). *)

  type dist

  val sampler : t -> table -> dist
  (** Draws from [table] with the given generator's draws. *)

  val make : t -> n:int -> theta:float -> dist
  (** [sampler rng (table ~n ~theta)]. *)

  val draw : dist -> int
end

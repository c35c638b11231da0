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
  type dist

  val make : t -> n:int -> theta:float -> dist
  (** Ranks 0..n-1 with skew [theta] (0 = uniform, ~0.99 = typical
      YCSB-style skew). *)

  val draw : dist -> int
end

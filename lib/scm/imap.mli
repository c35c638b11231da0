(** Open-addressed integer-keyed maps for simulator hot paths.

    Linear probing over plain arrays, -1 as the empty-key sentinel
    (keys must be non-negative), misses answered by sentinel instead
    of [option] — so lookups on the per-memory-access path neither
    hash strings nor allocate.  Used for the page-translation cache
    ([Region.Pmem]) and the durability sanitizer's shadow state
    ({!Pmcheck}). *)

(** [int -> int]; absent keys read as [-1], so store only values the
    caller never confuses with a miss (frame numbers, packed states). *)
module Int : sig
  type t

  val create : ?initial:int -> unit -> t

  val find : t -> int -> int
  (** Value of a key, or [-1] when absent. *)

  val set : t -> int -> int -> unit

  val remove : t -> int -> unit
  (** Backward-shift deletion; no-op when absent. *)
end

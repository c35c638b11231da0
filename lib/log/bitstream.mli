(** Bit-stream packing for the tornbit RAWL (paper section 4.4).

    The log manager "treats the incoming 64-bit words to be written to
    the log as a stream of bits.  It forms and writes out to the log
    64-bit words that are composed of 63 bits taken from the head of the
    stream and the proper torn bit."  The packer implements exactly
    that: 64-bit payload words in, 63-bit chunks out (LSB first); the
    unpacker reverses it.  The torn bit itself (bit 63) is applied by
    the log, not here. *)

val stored_words_for : int -> int
(** [stored_words_for n] is how many 63-bit stored words hold [n]
    64-bit payload words: ceil(64n / 63). *)

module Packer : sig
  type t

  val create : emit:(int64 -> unit) -> t
  (** [emit] receives each completed 63-bit chunk (bit 63 clear). *)

  val push : t -> int64 -> unit
  (** Feed one 64-bit payload word into the stream. *)

  val flush : t -> unit
  (** Pad any leftover bits with zeros and emit them; resets the packer
      (per-record alignment: every record starts on a stored-word
      boundary). *)
end

module Unpacker : sig
  type t

  val create : unit -> t

  val feed : t -> int64 -> unit
  (** Feed one 63-bit stored chunk (bit 63 is ignored). *)

  val take : t -> int64 option
  (** Next reassembled 64-bit payload word, once enough bits arrived. *)
end

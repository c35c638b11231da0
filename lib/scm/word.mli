(** Helpers for the 64-bit words that storage-class memory is made of.

    The SCM device guarantees atomic writes of aligned 64-bit words
    (paper section 2, "Failure Models"); everything above the device
    speaks in these words, so the bit-twiddling used by the tornbit RAWL
    and the packed head words lives here. *)

val is_aligned : int -> bool
(** [is_aligned addr] is true when [addr] is 8-byte aligned. *)

val align_up : int -> int
(** Round a byte count up to a multiple of 8. *)

val words_for_bytes : int -> int
(** Number of 64-bit words needed to hold that many bytes. *)

val get : Bytes.t -> int -> int64
(** [get buf off] reads the little-endian word at byte offset [off]. *)

val set : Bytes.t -> int -> int64 -> unit
(** [set buf off v] writes the little-endian word at byte offset [off]. *)

val bit : int64 -> int -> bool
(** [bit w i] is bit [i] (0 = least significant) of [w]. *)

val set_bit : int64 -> int -> bool -> int64
(** [set_bit w i b] is [w] with bit [i] forced to [b]. *)

val of_string_chunk : string -> int -> int64
(** [of_string_chunk s off] packs up to 8 bytes of [s] starting at [off]
    into a word (missing bytes are zero).  Used to serialize string keys
    and values into word-granularity SCM. *)

val blit_to_bytes : int64 -> Bytes.t -> int -> int -> unit
(** [blit_to_bytes w buf off len] writes the low [len] bytes of [w]
    (little-endian) into [buf] at [off]; [len <= 8]. *)

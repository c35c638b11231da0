(** Encoding of transaction records in the per-thread RAWL (paper
    section 5).

    A committed transaction appends one record: its global-timestamp
    commit order followed by the (address, new value) pairs of its
    write set.  With write-ahead {e redo} logging, "the only requirement
    is that the log is written completely before any data values are
    updated" — the record is streamed during commit and made durable by
    the RAWL's single tornbit fence. *)

type record = { ts : int; writes : (int * int64) list }

val decode : int64 array -> record option
(** [None] for records that are not well-formed transaction records. *)

val encoded_words : nwrites:int -> int
(** Payload length in words of a record with that many writes. *)

val encode_header_bytes : Bytes.t -> ts:int -> nwrites:int -> unit
(** Allocation-free encode into a caller-owned raw little-endian byte
    staging buffer of at least {!encoded_words} words: writes the record
    header (word [i] at byte [8i]); the caller lays out (address, value)
    pairs at bytes [8 * (2 + 2i)] / [8 * (3 + 2i)] — the layout
    {!decode} parses — for {!Pmlog.Rawl.append_bytes}.  Encoding this way never materializes a
    boxed [Int64] per word. *)

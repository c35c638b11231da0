(** The commit-record log: the baseline the tornbit RAWL is evaluated
    against in table 6.

    This is "the common solution in file systems": write the data, wait
    for it with a fence, write a commit record, wait for it with a
    second fence (paper section 4.4).  Every append therefore costs two
    long-latency fences where the RAWL costs one — but no bit
    manipulation, which is why it wins for records above ~2 KiB.

    Same circular-buffer structure as {!Rawl}; the commit record carries
    a monotonically increasing sequence number so stale buffer contents
    can never be mistaken for a fresh record. *)

type t

val region_bytes_for : cap_words:int -> int

val create : Region.Pmem.view -> base:int -> cap_words:int -> t

val attach : Region.Pmem.view -> base:int -> t * int64 array list
(** Recover: complete records from head to tail; a record whose commit
    word is missing or out of sequence ends the scan and is discarded. *)

type append_result = Appended of int | Full

val append : t -> int64 array -> append_result
(** Write data, fence, write the commit record, fence: durable on
    return (unlike {!Rawl.append}, there is no separate flush step —
    the second fence is what the mechanism is). *)

val truncate_all : t -> unit

(** PCM-disk: the paper's emulated PCM block device (section 6.1).

    "To compare Mnemosyne against other uses of PCM, we constructed an
    emulator, PCM-disk, for a PCM-based block device.  Based on Linux's
    RAM disk, PCM disk introduces delays when writing a block.  We
    model block writes using sequential write-through operations."

    A write charges the block-layer + filesystem software path plus the
    bandwidth-limited media transfer (with the PCM write latency as a
    floor); sequential multi-block writes amortize the software cost.
    Reads hit DRAM-speed media and charge only the software path.
    Contents are held functionally so the stores built on top really
    store and retrieve data. *)

type t

val block_bytes : int
(** 4096. *)

val create : ?latency:Scm.Latency_model.t -> nblocks:int -> unit -> t
(** Each request also charges the kernel path (block layer + ext2):
    2500 ns per write, half that per read. *)

val nblocks : t -> int
val latency_model : t -> Scm.Latency_model.t

val read_block : t -> Scm.Env.t -> int -> Bytes.t
val write_block : t -> Scm.Env.t -> int -> Bytes.t -> unit

val write_blocks : t -> Scm.Env.t -> int -> Bytes.t -> unit
(** Sequential write of a multi-block buffer starting at the given
    block: one software charge, bandwidth-limited transfer. *)

val write_cost_ns : t -> int -> int
(** Modeled cost of writing that many bytes sequentially (exposed for
    analytical checks in tests). *)

val blocks_written : t -> int

(** [pstatic] variables: named persistent globals (paper section 4.2).

    The paper's [pstatic] keyword makes the linker place a global in the
    [.persistent] ELF section; the variable is initialized the first
    time the program runs and keeps its value across invocations.  Our
    equivalent is a persistent name -> (address, length) directory in
    the static region: [get v "counter" 8] returns the same address on
    every run, zero-initialized on the first.

    Static variables are the durable roots of everything else — the
    paper's idiom is "static persistent variables serve as pointers into
    dynamically allocated persistent regions". *)

val lookup : Pmem.view -> string -> (int * int) option
(** [(addr, len)] if the variable exists. *)

val get : Pmem.view -> string -> int -> int
(** [get v name len] returns the variable's address, allocating and
    zero-initializing it on first use.  Raises [Invalid_argument] if it
    exists with a different length, [Failure] if the directory or data
    area is full.  Crash-safe: a variable either exists completely or
    not at all. *)

val iter : Pmem.view -> (string -> addr:int -> len:int -> unit) -> unit
(** Enumerate all static variables. *)

val iter_nt : Pmem.view -> (string -> addr:int -> len:int -> unit) -> unit
(** Like {!iter}, but entirely over the non-faulting {!Pmem.load_nt}
    path and without initializing an empty directory: safe on
    arbitrary (even corrupt) images and guaranteed not to perturb
    cache state, frames, or the backing store.  A corrupt entry whose
    name length is implausible is reported with an empty name. *)

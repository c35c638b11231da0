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

val max_name_length : int
(** 32: the longest name {!get} stores. *)

(** One directory entry as the image holds it. *)
type entry = {
  entry_addr : int;  (** where the directory entry itself lives *)
  name : (string, int) result;
      (** [Error n] when the stored name length [n] is negative or
          above {!max_name_length}: no {!get} wrote it, and no name is
          read.  An empty name is [Ok ""]. *)
  addr : int;  (** the variable's address *)
  len : int;  (** its length in bytes *)
}

val iter : Pmem.view -> (entry -> unit) -> unit
(** Enumerate every static variable, in directory order.  The one walk
    of the directory, shared by inspection tools and the offline
    analyzer ({!Check.Pmfsck}): it reads entirely over the non-faulting
    {!Pmem.load_nt} path and does not initialize an empty directory,
    so it is safe on any image, however corrupt, and leaves cache
    state, frames and the backing store as they were.  {!lookup} and
    {!get} keep their own temporal reads. *)

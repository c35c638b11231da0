(** The persistent virtual address space.

    Mnemosyne allocates all regions in one reserved power-of-two range
    of virtual address space, which "allows a quick determination of
    whether an address refers to persistent data" (paper section 4.2) —
    the range check the transaction system performs on every write.

    The static region sits at the base of the range; it holds the region
    table (the intention log for [pmap]) followed by the [pstatic]
    variable area.  Dynamic regions are placed above [dynamic_base]. *)

val page_size : int
(** {!Scm.Scm_device.frame_size}: a page of the address space fills one
    device frame. *)

val persistent_base : int
(** Base virtual address of the reserved persistent range. *)

val persistent_size : int
(** Size of the reserved range (a power of two). *)

val is_persistent : int -> bool
(** The quick range check. *)

val static_base : int
val static_size : int

val region_table_base : int
val region_table_size : int
(** 16 KiB at the start of the static region (paper section 4.2). *)

val pstatic_base : int
val pstatic_size : int
(** The [pstatic] variable area: the rest of the static region. *)

val dynamic_base : int
(** First virtual address available to dynamically created regions. *)

val page_of : int -> int
val pages_for : int -> int
(** Number of pages covering a byte length. *)

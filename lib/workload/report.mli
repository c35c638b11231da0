(** Fixed-width table rendering for the benchmark harness, so every
    reproduced table/figure prints in a uniform, diffable format. *)

val section : string -> string -> unit
(** [section id title] prints a banner like
    ["== table6: RAWL throughput =="]. *)

val table : header:string list -> string list list -> unit
(** Aligned columns with a separator rule under the header. *)

val note : string -> unit
(** An indented free-text note under a section. *)

val ops : float -> string
(** Format an operations-per-second quantity with thousands grouping. *)

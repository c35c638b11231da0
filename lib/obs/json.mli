(** The JSON string writer shared by every exporter in the repository
    (Chrome trace, metrics document, pmfsck and crash-sweep reports,
    [regionctl stats --json]). *)

val string : string -> string
(** [s] as a quoted JSON string literal: quote, backslash and control
    characters escaped. *)

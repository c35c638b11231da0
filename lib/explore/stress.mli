(** The paper's crash-stress workload (section 6.2) on a live
    instance, for [crash_stress], [crash_explore] and {!Sched_harness};
    {!Workload.Stress_model} computes what memory must hold. *)

val ensure_data : ?root:string -> ?nslots:int -> Mnemosyne.t -> int
(** The [nslots]-word array (default
    {!Workload.Stress_model.default_nslots}) behind the [pstatic] root
    [root] (default ["stress.data"]), allocated and zeroed in one
    transaction by the first call. *)

val run_updates : Mnemosyne.t -> seed:int -> txns:int -> unit
(** Commit the next [txns] transactions of the [seed] stream, each
    also storing the committed count under ["stress.count"]. *)

val verify : Mnemosyne.t -> seed:int -> (int, string) result
(** [Ok count] when the array equals the replay of exactly the
    committed count. *)

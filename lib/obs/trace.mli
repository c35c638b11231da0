(** The event vocabulary and the exporters of the recorded trace.

    Events live in the one {!Flight} ring as int codes; this module
    names them and renders the part of the ring recorded since tracing
    started.  Timestamps are {e simulated} nanoseconds, each event
    carries one integer payload and a track id (the simulated thread).

    The Chrome exporter emits [trace_event] JSON (open the file in
    [chrome://tracing] or Perfetto); complete events become ["X"]
    phases and instants become ["i"], with [ts]/[dur] in microseconds
    carrying nanosecond precision in the fractional digits. *)

type kind =
  | Txn_begin
  | Txn_commit
  | Txn_abort
  | Txn_retry
  | Fence
  | Flush
  | Wc_drain
  | Cache_evict
  | Log_append
  | Log_truncate
  | Log_stall  (** Producer blocked on a full log, draining inline. *)
  | Recovery_replay
  | Heap_alloc
  | Heap_free
  | Swap_in
  | Swap_out
  | Sched_decision
      (** A same-time tiebreak drawn by the schedule explorer; the
          argument is the chosen key (see {!Sim.Schedule}). *)
  | Pmcheck_violation
      (** The durability sanitizer detected a rule violation; the
          argument is the offending virtual word address. *)
  | Req_shed
      (** A serving request shed by admission control; the argument is
          the tenant it belonged to (see [lib/serve]). *)
  | Crash
      (** A simulated crash injected by the crash explorer; the
          argument is the persistence-op index it fired at. *)

val kind_code : kind -> int
(** The kind's code in the ring, 0..19. *)

val flow_code : [ `Start | `Step | `End ] -> int
(** Codes 20..22: one phase of a causal flow whose payload is the
    owning transaction id.  The Chrome exporter renders them as flow
    events (["ph":"s"/"t"/"f"], name ["txn"]) that draw arrows from a
    transaction's log append to its deferred truncation, write-back
    and drain work. *)

val code_name : int -> string
(** The name both the Chrome export and the flight dump print. *)

val to_chrome_json : Flight.t -> string
(** The complete JSON document ([{"traceEvents": [...], ...}]) of the
    entries recorded since tracing started, with the overflow count
    as [otherData.dropped_events]. *)

val save_chrome : Flight.t -> string -> unit
(** Write {!to_chrome_json} to the file, then warn on stderr if any
    events were dropped — the shared save path, so truncated traces
    are never silent. *)

val summary : Flight.t -> string
(** Flamegraph-style plain-text rollup of the trace: per event name,
    the count, total and mean duration, sorted by total time. *)

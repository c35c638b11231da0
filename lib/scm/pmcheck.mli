(** Pmcheck: a pmemcheck-style durability sanitizer.

    Tracks a shadow state machine per 8-byte persistent word
    (clean/durable -> dirty-in-cache -> WC-pending, plus
    logged/covered/uninitialized bits) and reports typed rule
    violations with simulated-time provenance.  Hook sites live in
    {!Cache}, {!Wc_buffer}, {!Primitives}, the region translation
    layer, RAWL, and libmtm's commit paths; every site is guarded by an
    option match so a disabled sanitizer costs one branch -- no
    allocation, no simulated time, no crash-point drift.

    Install via {!Env.install_pmcheck}. *)

type kind =
  | Write_ahead
      (** a transactionally written value reached the device before its
          covering log record was proven durable (fence dropped) *)
  | Unlogged_store
      (** a cached (write-back) store to persistent memory with no
          durable log record covering the word *)
  | Uninit_read  (** load of an allocated but never-written word *)
  | Redundant_fence
      (** a fence that ordered nothing -- perf lint, only reported as a
          violation when [lint_fences] is set *)
  | Trunc_unfenced
      (** log truncation retired a record while the data it covers was
          still volatile (dirty in cache or WC-pending) *)
  | Write_back_lost
      (** log truncation retired a record while a word it covers was
          still in the "durable-in-log, write-back pending" state: the
          committed value never reached the device (and nothing
          volatile holds it, and no younger record covers it), so the
          truncation erased its only copy.  This is the hazard the
          pipelined commit's deferred write-back opens; the drainer
          must retire a record only after its write-back landed. *)

type violation = {
  kind : kind;
  addr : int;  (** virtual word address; 0 when not address-specific *)
  ts : int;  (** simulated time of detection *)
  op : int;  (** persistence-op index ({!Crashpoint.count}) *)
  detail : string;
}

type t

val create :
  ?lint_fences:bool ->
  obs:Obs.t ->
  cp:Crashpoint.t ->
  nframes:int ->
  unit ->
  t

val kind_name : kind -> string
val render : violation -> string

val violations : t -> violation list
(** Retained violations, oldest first: the first 256. *)

val total_violations : t -> int
(** All violations observed, including ones beyond the first 256. *)

(** {1 Hooks} -- called by the layers that own each event. *)

val note_mapping : t -> vpage:int -> frame:int -> unit
(** The translation layer installed [vpage -> frame]. *)

val register_log : t -> base:int -> bytes:int -> unit
(** A RAWL instance spans [\[base, base+bytes)]; idempotent. *)

val note_wtstore : t -> int -> unit
(** Write-through store posted for the virtual word. *)

val check_store : t -> int -> unit
(** Cached store to the virtual word: raises [Unlogged_store] shadow
    violation unless a log record covers it. *)

val check_load : t -> int -> unit
(** Cached load: raises [Uninit_read] if the word was allocated but
    never stored.  [load_nt] paths must NOT call this. *)

val note_txn_store : t -> int -> unit
(** A transactional store targets the word (clears UNDEF before the
    STM's own bookkeeping reads the old value). *)

val mark_undef : t -> int -> len:int -> unit
(** Freshly allocated range: reads before a store are violations. *)

val note_fence : t -> pending_words:int -> unit
(** A fence is executing with [pending_words] WC entries to drain. *)

val device_reach_word : t -> int -> unit
(** One word (physical address) reached the device via a WC drain. *)

val device_reach_line : t -> int -> int -> unit
(** [device_reach_line t phys_base line_bytes]: a cache line reached
    the device via write-back/eviction. *)

val commit_begin : t -> log:int -> int array -> int -> unit
(** [commit_begin t ~log addrs n]: a commit over [addrs.(0..n-1)] is
    about to append its record to the log at [log]. *)

val commit_logged : t -> log:int -> unit
(** The caller claims the commit record is fenced; verified against
    the log range's WC-pending count before blessing the write set. *)

val commit_end : t -> log:int -> unit
(** Commit or abort finished: write-set coverage is closed. *)

val note_covered : t -> log:int -> int -> unit
(** Eager-undo: an undo record covering the addr is durable. *)

val note_truncate : ?count:int -> t -> log:int -> all:bool -> unit
(** The log is truncating: [all] retires every outstanding session
    (plus open undo coverage), otherwise the [count] oldest (default
    1) — batched truncation advances the head over several records at
    once. *)

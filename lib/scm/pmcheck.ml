(* Pmcheck: a pmemcheck-style durability sanitizer.

   Shadow state is tracked per 8-byte persistent word, keyed by VIRTUAL
   address (the address user code and the STM reason about).  The SCM
   hooks below the translation layer (cache write-backs, WC drains) see
   physical frame addresses, so the checker keeps a frame -> vpage
   reverse map fed by {!note_mapping} from the translation layer's
   fault-in path.  A frame whose mapping is unknown (mapping table,
   reserved frames, stale after wear-levelling migration) translates to
   -1 and its traffic is ignored.

   Per-word state machine (packed into one int in an {!Imap.Int}):

     bits 0-1  where the word's newest value lives:
               0 = durable on the device (or never observed),
               1 = dirty in the write-back cache,
               2 = pending in a write-combining buffer
     bit 2     UNDEF    allocated by a transaction, never stored
     bit 3     LOGPEND  member of a commit's write set whose covering
                        log record has not yet been proven durable
     bit 4     COVERED  covering log record is durable and untruncated
     bit 5     NEWVAL   stored while LOGPEND (the in-flight value, not
                        a stale committed one, is what sits in the
                        cache) -- the write-ahead rule only cares about
                        the new value reaching the device early

   The checker is pull-free: every hook is invoked from the layer that
   owns the event, and every hook site is guarded by a
   [match .. with None -> ()] so a disabled sanitizer costs one load
   and one branch -- no allocation, no simulated time, no change to
   crash-point indices. *)

type kind =
  | Write_ahead
  | Unlogged_store
  | Uninit_read
  | Redundant_fence
  | Trunc_unfenced
  | Write_back_lost

let kind_name = function
  | Write_ahead -> "write_ahead"
  | Unlogged_store -> "unlogged_store"
  | Uninit_read -> "uninit_read"
  | Redundant_fence -> "redundant_fence"
  | Trunc_unfenced -> "trunc_unfenced"
  | Write_back_lost -> "write_back_lost"

type violation = {
  kind : kind;
  addr : int;  (* virtual word address; 0 when not address-specific *)
  ts : int;  (* simulated time of detection *)
  op : int;  (* persistence-op index (Crashpoint counter) *)
  detail : string;
}

let render v =
  Printf.sprintf "[%s] op=%d t=%dns addr=%#x: %s" (kind_name v.kind) v.op v.ts
    v.addr v.detail

(* word-state bits *)
let where_mask = 0b11
let where_dirty = 1
let where_wc = 2
let bit_undef = 0b100
let bit_logpend = 0b1000
let bit_covered = 0b1_0000
let bit_newval = 0b10_0000

(* WBPEND: the word's covering redo record is durable but the new
   value has not yet been proven to reach the device — the pipelined
   commit's "durable-in-log, write-back pending" window.  Armed at
   {!commit_logged}, cleared when a volatile copy of the word reaches
   the device.  A record truncated while an addr still carries WBPEND
   with nothing volatile means the write-back never ran: the committed
   value existed only in the now-erased log. *)
let bit_wbpend = 0b100_0000

type log_state = {
  lbase : int;
  lbytes : int;
  mutable wc_pending : int;
      (* words of this log's range posted to a WC buffer and not yet
         drained: zero means every record byte written so far is
         durable *)
  mutable inflight : int array;  (* write set of the commit being logged *)
  mutable inflight_n : int;  (* -1 = no commit in flight *)
  sessions : int array Queue.t;
      (* write sets whose records are durable but not yet truncated,
         oldest first -- the order {!Rawl.advance_head_group} retires
         them *)
  mutable undo_open : int list;
      (* addrs covered by undo records of the open eager transaction *)
}

(* Violations retained for {!violations}; later ones are only counted. *)
let max_keep = 256

type t = {
  lint_fences : bool;
  obs : Obs.t;
  cp : Crashpoint.t;
  state : Imap.Int.t;
  frame_vpage : int array;  (* frame -> vpage, -1 = unknown *)
  mutable logs : log_state list;
  mutable work_since_fence : bool;
  mutable total : int;
  mutable kept : violation list;  (* newest first, bounded by max_keep *)
  mutable nkept : int;
  ctr_write_ahead : Obs.Metrics.counter;
  ctr_unlogged : Obs.Metrics.counter;
  ctr_uninit : Obs.Metrics.counter;
  ctr_redundant : Obs.Metrics.counter;
  ctr_trunc : Obs.Metrics.counter;
  ctr_wb_lost : Obs.Metrics.counter;
  ctr_fence_noop : Obs.Metrics.counter;
}

let create ?(lint_fences = false) ~obs ~cp ~nframes () =
  let c name = Obs.Metrics.counter obs.Obs.metrics ("pmcheck." ^ name) in
  {
    lint_fences;
    obs;
    cp;
    state = Imap.Int.create ~initial:4096 ();
    frame_vpage = Array.make nframes (-1);
    logs = [];
    work_since_fence = false;
    total = 0;
    kept = [];
    nkept = 0;
    ctr_write_ahead = c "violation.write_ahead";
    ctr_unlogged = c "violation.unlogged_store";
    ctr_uninit = c "violation.uninit_read";
    ctr_redundant = c "violation.redundant_fence";
    ctr_trunc = c "violation.trunc_unfenced";
    ctr_wb_lost = c "violation.write_back_lost";
    ctr_fence_noop = c "fence.ordered_nothing";
  }

let counter_of t = function
  | Write_ahead -> t.ctr_write_ahead
  | Unlogged_store -> t.ctr_unlogged
  | Uninit_read -> t.ctr_uninit
  | Redundant_fence -> t.ctr_redundant
  | Trunc_unfenced -> t.ctr_trunc
  | Write_back_lost -> t.ctr_wb_lost

let violate t kind ~addr detail =
  Obs.Metrics.incr (counter_of t kind);
  t.total <- t.total + 1;
  if t.nkept < max_keep then begin
    t.kept <-
      {
        kind;
        addr;
        ts = Obs.now t.obs;
        op = Crashpoint.count t.cp;
        detail;
      }
      :: t.kept;
    t.nkept <- t.nkept + 1
  end;
  Obs.instant t.obs Obs.Trace.Pmcheck_violation ~arg:addr

let violations t = List.rev t.kept
let total_violations t = t.total

(* ------------------------------------------------------------------ *)
(* Shadow-state plumbing                                               *)

let[@inline] get t a =
  let s = Imap.Int.find t.state a in
  if s < 0 then 0 else s

let[@inline] set t a s = Imap.Int.set t.state a s
let page_size = Scm_device.frame_size

let note_mapping t ~vpage ~frame =
  if frame >= 0 && frame < Array.length t.frame_vpage then
    t.frame_vpage.(frame) <- vpage

let[@inline] vaddr_of_phys t pa =
  let frame = pa / page_size in
  if frame < 0 || frame >= Array.length t.frame_vpage then -1
  else
    let vp = Array.unsafe_get t.frame_vpage frame in
    if vp < 0 then -1 else (vp * page_size) lor (pa land (page_size - 1))

(* ------------------------------------------------------------------ *)
(* Log registry                                                        *)

let register_log t ~base ~bytes =
  if not (List.exists (fun l -> l.lbase = base) t.logs) then
    t.logs <-
      {
        lbase = base;
        lbytes = bytes;
        wc_pending = 0;
        inflight = [||];
        inflight_n = -1;
        sessions = Queue.create ();
        undo_open = [];
      }
      :: t.logs

let log_containing t a =
  let rec go = function
    | [] -> None
    | l :: rest ->
        if a >= l.lbase && a < l.lbase + l.lbytes then Some l else go rest
  in
  go t.logs

let log_at t base =
  let rec go = function
    | [] -> None
    | l :: rest -> if l.lbase = base then Some l else go rest
  in
  go t.logs

(* ------------------------------------------------------------------ *)
(* Store / load hooks (virtual addresses, from the Pmem layer)         *)

let note_wtstore t a =
  t.work_since_fence <- true;
  (match log_containing t a with
  | Some l -> l.wc_pending <- l.wc_pending + 1
  | None -> ());
  let s = get t a in
  set t a ((s land lnot (bit_undef lor where_mask)) lor where_wc)

let check_store t a =
  let s = get t a in
  if s land (bit_logpend lor bit_covered) = 0 then
    violate t Unlogged_store ~addr:a
      (Printf.sprintf
         "cached store to %#x is not covered by any durable log record" a);
  let s' = (s land lnot (bit_undef lor where_mask)) lor where_dirty in
  let s' = if s land bit_logpend <> 0 then s' lor bit_newval else s' in
  set t a s'

let check_load t a =
  let s = get t a in
  if s land bit_undef <> 0 then begin
    violate t Uninit_read ~addr:a
      (Printf.sprintf "load of never-initialized persistent word %#x" a);
    set t a (s land lnot bit_undef)
  end

let note_txn_store t a =
  let s = get t a in
  if s land bit_undef <> 0 then set t a (s land lnot bit_undef)

let mark_undef t a ~len =
  if len > 0 then begin
    let first = a land lnot 7 in
    let last = (a + len - 1) land lnot 7 in
    let w = ref first in
    while !w <= last do
      set t !w (get t !w lor bit_undef);
      w := !w + 8
    done
  end

(* ------------------------------------------------------------------ *)
(* Device-reach hooks (physical addresses, from Cache / Wc_buffer)     *)

let[@inline] reach_word t a ~drained =
  if drained then (
    match log_containing t a with
    | Some l -> if l.wc_pending > 0 then l.wc_pending <- l.wc_pending - 1
    | None -> ());
  let s = get t a in
  if s <> 0 then
    if s land bit_logpend <> 0 && s land bit_newval <> 0 then begin
      violate t Write_ahead ~addr:a
        (Printf.sprintf
           "new value of %#x reached the device before its covering log \
            record was fenced"
           a);
      set t a
        (s land lnot (where_mask lor bit_logpend lor bit_newval lor bit_wbpend))
    end
    else if s land where_mask <> 0 then
      (* a volatile newer value reached the device: the pending
         write-back (if any) is hereby proven done *)
      set t a (s land lnot (where_mask lor bit_wbpend))

let device_reach_word t pa =
  t.work_since_fence <- true;
  let a = vaddr_of_phys t pa in
  if a >= 0 then reach_word t a ~drained:true

let device_reach_line t pa line_size =
  t.work_since_fence <- true;
  let base = vaddr_of_phys t (pa land lnot (line_size - 1)) in
  if base >= 0 then
    for i = 0 to (line_size / 8) - 1 do
      reach_word t (base + (8 * i)) ~drained:false
    done

(* ------------------------------------------------------------------ *)
(* Fence                                                               *)

let note_fence t ~pending_words =
  if pending_words = 0 && not t.work_since_fence then begin
    Obs.Metrics.incr t.ctr_fence_noop;
    if t.lint_fences then
      violate t Redundant_fence ~addr:0
        "fence ordered nothing: no posts, write-backs or flushes since the \
         previous fence"
  end;
  t.work_since_fence <- false

(* ------------------------------------------------------------------ *)
(* Transaction protocol (from libmtm's commit paths)                   *)

let commit_begin t ~log addrs n =
  match log_at t log with
  | None -> ()
  | Some l ->
      l.inflight <- Array.sub addrs 0 n;
      l.inflight_n <- n;
      for i = 0 to n - 1 do
        let a = addrs.(i) in
        set t a (get t a lor bit_logpend)
      done

(* Verified, not trusted: the caller claims it fenced the record, and
   the claim is checked against the log range's WC-pending count.  A
   dropped fence leaves LOGPEND armed, so the first write-back of a new
   value raises {!Write_ahead}. *)
let commit_logged t ~log =
  match log_at t log with
  | None -> ()
  | Some l ->
      if l.inflight_n >= 0 && l.wc_pending = 0 then begin
        let sess = Array.sub l.inflight 0 l.inflight_n in
        Queue.push sess l.sessions;
        Array.iter
          (fun a ->
            let s = get t a in
            (* WBPEND arms here: from this point the committed value is
               durable in the log but its data write-back is still
               owed.  Only a device reach of a volatile copy (the
               write-back landing) discharges it. *)
            set t a
              ((s land lnot (bit_logpend lor bit_newval))
              lor bit_covered lor bit_wbpend))
          sess
      end

let commit_end t ~log =
  match log_at t log with
  | None -> ()
  | Some l ->
      if l.inflight_n >= 0 then begin
        for i = 0 to l.inflight_n - 1 do
          let a = l.inflight.(i) in
          set t a
            (get t a land lnot (bit_logpend lor bit_covered lor bit_newval))
        done;
        l.inflight <- [||];
        l.inflight_n <- -1
      end;
      List.iter
        (fun a -> set t a (get t a land lnot bit_covered))
        l.undo_open;
      l.undo_open <- []

(* Eager-undo coverage: one addr per undo record, blessed only if the
   record is actually durable (no WC-pending bytes in the log range). *)
let note_covered t ~log a =
  match log_at t log with
  | None -> ()
  | Some l ->
      if l.wc_pending = 0 then begin
        set t a (get t a lor bit_covered);
        l.undo_open <- a :: l.undo_open
      end

(* ------------------------------------------------------------------ *)
(* Truncation                                                          *)

(* A retired addr whose newest value is still volatile is only a
   violation if no other un-truncated record still covers it: in
   async-truncation mode a hot word is re-logged by a younger session
   before the older one retires, and truncating the older record does
   not endanger the younger value.  The covering record can live in ANY
   log, not just the retiring one — the volatile value belongs to the
   most recent committed writer, and that writer's own record (in its
   own per-thread log) stays queued until its truncation, which flushes
   the line before retiring.  Crash recovery replays every surviving
   record in timestamp order, so the newest covered value wins. *)
let covered_in l addr =
  Queue.fold
    (fun acc sess -> acc || Array.exists (fun a -> a = addr) sess)
    false l.sessions
  || (l.inflight_n > 0
     && Array.exists (fun a -> a = addr)
          (Array.sub l.inflight 0 l.inflight_n))

let covered_later t addr = List.exists (fun l -> covered_in l addr) t.logs

let retire t sess =
  Array.iter
    (fun a ->
      let s = get t a in
      if s land where_mask <> 0 then begin
        if not (covered_later t a) then
          violate t Trunc_unfenced ~addr:a
            (Printf.sprintf
               "log record truncated while %#x is still volatile (%s)" a
               (if s land where_mask = where_wc then "WC-pending"
                else "dirty in cache"))
      end
      else if s land bit_wbpend <> 0 && not (covered_later t a) then begin
        (* Nothing volatile AND the write-back never landed: the
           committed value of this word existed only in the record
           being erased.  A crash after this truncation loses it —
           the relaxed pipelined ordering is only safe while the
           record outlives the write-back (or a younger record covers
           the word).  When a younger record covers the addr the bit is
           left armed: it answers for the younger session's retire. *)
        violate t Write_back_lost ~addr:a
          (Printf.sprintf
             "log record truncated while the committed value of %#x was \
              never written back to the device"
             a);
        set t a (s land lnot bit_wbpend)
      end)
    sess

let note_truncate ?(count = 1) t ~log ~all =
  match log_at t log with
  | None -> ()
  | Some l ->
      if all then begin
        let rec drain () =
          match Queue.take_opt l.sessions with
          | None -> ()
          | Some sess ->
              retire t sess;
              drain ()
        in
        drain ();
        List.iter
          (fun a ->
            let s = get t a in
            if s land where_mask <> 0 then
              violate t Trunc_unfenced ~addr:a
                (Printf.sprintf
                   "undo log truncated while %#x is still volatile" a))
          l.undo_open
      end
      else
        (* batched truncation retires several records with one head
           advance; keep the session queue in lockstep *)
        for _ = 1 to count do
          match Queue.take_opt l.sessions with
          | None -> ()
          | Some sess -> retire t sess
        done

module Pmem = Region.Pmem

type t = {
  v : Pmem.view;
  base : int;
  cap : int;
  rotate : bool;
  mutable passes : int;  (* wraps since the last rotation (volatile) *)
  mutable head_off : int;
  mutable head_parity : int;
  mutable head_tpos : int;  (* torn-bit position of the pass at head *)
  mutable tail_off : int;
  mutable tail_parity : int;
  mutable tail_tpos : int;
  append_ctr : Obs.Metrics.counter;  (* log.appends, resolved once *)
  trunc_ctr : Obs.Metrics.counter;  (* log.truncations, likewise *)
  mutable owner : int;
      (* transaction id the next append belongs to, stamped by the STM
         layer; 0 = none.  Appends open a causal flow under this id so
         the deferred truncation can be attributed back. *)
  (* Record staging area for the allocation-free packing loop in
     {!append_sub}: the length word and payload are laid out here as
     raw little-endian bytes, then each 63-bit chunk is read straight
     out of the byte stream.  8 spare bytes past the record keep the
     chunk reads in bounds (and are zeroed so the final chunk's padding
     bits are zero, as {!Bitstream.Packer.flush} would emit). *)
  mutable scratch : Bytes.t;
  mutable race : Race_api.hooks option;
      (* The head and tail cursors are the volatile handoff between
         appender and drainer: each is a single atomic word and its own
         sync object (DESIGN.md section 18).  Appends rmw the tail,
         head advances rmw the head, occupancy probes acquire both. *)
  race_head : string;  (* "log.<base>.head" *)
  race_tail : string;
}

let header_bytes = 64

let region_bytes_for ~cap_words = header_bytes + (8 * cap_words)

(* Single source of truth for the largest admissible payload.  A record
   of n payload words stores [Bitstream.stored_words_for (n + 1)] words
   (payload plus the length word); the buffer keeps one word free, so
   admission requires stored <= cap - 1, i.e.
   ceil (64 * (n + 1) / 63) <= cap - 1, i.e.
   n <= 63 * (cap - 1) / 64 - 1 (integer division).  [append]'s
   admission check and recovery's length-plausibility bound must both
   agree with this, or recovery could accept a length no append could
   have produced (or reject one it could). *)
let max_record_words_for ~cap_words = (63 * (cap_words - 1) / 64) - 1

let max_record_words t = max_record_words_for ~cap_words:t.cap

let race_labels_for base =
  ( Printf.sprintf "log.%08x.head" base,
    Printf.sprintf "log.%08x.tail" base )

let set_race t h = t.race <- h

let[@inline] race_acq t label =
  match t.race with None -> () | Some hk -> hk.Race_api.acquire label

let[@inline] race_rmw t label =
  match t.race with None -> () | Some hk -> hk.Race_api.rmw label

let capacity t = t.cap

let used_words t =
  race_acq t t.race_head;
  race_acq t t.race_tail;
  (t.tail_off - t.head_off + t.cap) mod t.cap

let free_words t = t.cap - 1 - used_words t
let torn_bit_position t = t.tail_tpos

let head_addr t = t.base
let cap_addr t = t.base + 8
let slot_addr t pos = t.base + header_bytes + (8 * pos)

(* Head word: offset in bits 0..47, pass parity in bit 48, torn-bit
   position in bits 49..54 — one atomic word still truncates. *)
let pack_head ~off ~parity ~tpos =
  Int64.logor (Int64.of_int off)
    (Int64.logor
       (Int64.shift_left (Int64.of_int parity) 48)
       (Int64.shift_left (Int64.of_int tpos) 49))

let unpack_head w =
  ( Int64.to_int (Int64.logand w 0xffff_ffff_ffffL),
    Int64.to_int (Int64.logand (Int64.shift_right_logical w 48) 1L),
    Int64.to_int (Int64.logand (Int64.shift_right_logical w 49) 63L) )

(* Cap word: capacity in the low bits, the rotation flag in bit 62. *)
let pack_cap ~cap ~rotate =
  Int64.logor (Int64.of_int cap)
    (if rotate then Int64.shift_left 1L 62 else 0L)

let unpack_cap w =
  ( Int64.to_int (Int64.logand w 0xffff_ffff_ffffL),
    Int64.logand (Int64.shift_right_logical w 62) 1L = 1L )

(* Place the 63 payload bits of [chunk] around a hole at bit [tpos]
   carrying the torn bit [b].  With tpos = 63 this is exactly the
   classic layout (payload low, torn bit on top). *)
let[@inline] insert_torn chunk tpos b =
  let low_mask = Int64.sub (Int64.shift_left 1L tpos) 1L in
  let low = Int64.logand chunk low_mask in
  let high =
    if tpos >= 63 then 0L
    else Int64.shift_left (Int64.shift_right_logical chunk tpos) (tpos + 1)
  in
  Int64.logor low
    (Int64.logor high (if b then Int64.shift_left 1L tpos else 0L))

(* The torn bit at [tpos] as 0 or 1, without boxing [word]. *)
let[@inline] torn_bit word tpos =
  Int64.to_int (Int64.shift_right_logical word tpos) land 1

let extract_torn word tpos =
  let low_mask = Int64.sub (Int64.shift_left 1L tpos) 1L in
  let low = Int64.logand word low_mask in
  let high =
    if tpos >= 63 then 0L
    else Int64.shift_left (Int64.shift_right_logical word (tpos + 1)) tpos
  in
  (Int64.logor low high, Scm.Word.bit word tpos)

(* Each wrap flips the parity; the torn-bit position is constant within
   a generation (rotating it at a wrap would be unsound: stale words
   checked at a new position pass the check half the time).  Rotation
   happens in {!truncate_all} instead — see below. *)
let next_pass ~parity ~tpos = (1 - parity, tpos)

(* How many buffer passes between torn-bit rotations. *)
let rotate_period = 16

let mk_counters v =
  let obs = v.Pmem.env.Scm.Env.machine.Scm.Env.obs in
  ( Obs.Metrics.counter obs.Obs.metrics "log.appends",
    Obs.Metrics.counter obs.Obs.metrics "log.truncations" )

let set_owner t txid = t.owner <- txid

(* One occupancy gauge per log base (per-thread logs share the
   machine registry, so the base disambiguates); re-attaching the same
   log re-points the gauge at the new handle, which is the live one. *)
let register_gauges t =
  let obs = t.v.Pmem.env.Scm.Env.machine.Scm.Env.obs in
  Obs.Metrics.set_gauge
    (Obs.Metrics.gauge obs.Obs.metrics
       (Printf.sprintf "log.%08x.occupancy_pct" t.base))
    (fun () -> 100 * used_words t / t.cap)

(* Durability-sanitizer hooks: a registered log lets the checker verify
   record durability (its WC-pending count) and catch truncations that
   race un-fenced data.  One branch each when no sanitizer is
   installed. *)
let[@inline] pmchk (v : Pmem.view) = v.Pmem.env.Scm.Env.machine.Scm.Env.pmcheck

let register_with_pmcheck v ~base ~cap_words =
  match pmchk v with
  | None -> ()
  | Some chk ->
      Scm.Pmcheck.register_log chk ~base
        ~bytes:(region_bytes_for ~cap_words)

let create ?(rotate_torn_bit = false) v ~base ~cap_words =
  if cap_words < 4 then invalid_arg "Rawl.create: capacity too small";
  register_with_pmcheck v ~base ~cap_words;
  let append_ctr, trunc_ctr = mk_counters v in
  let race_head, race_tail = race_labels_for base in
  let t =
    {
      v;
      base;
      cap = cap_words;
      rotate = rotate_torn_bit;
      passes = 0;
      head_off = 0;
      head_parity = 1;  (* zeroed buffer: pass-0 words carry torn bit 1 *)
      head_tpos = 63;
      tail_off = 0;
      tail_parity = 1;
      tail_tpos = 63;
      append_ctr;
      trunc_ctr;
      owner = 0;
      scratch = Bytes.make 512 '\000';
      race = None;
      race_head;
      race_tail;
    }
  in
  register_gauges t;
  Pmem.wtstore v (cap_addr t) (pack_cap ~cap:cap_words ~rotate:rotate_torn_bit);
  Pmem.wtstore v (head_addr t) (pack_head ~off:0 ~parity:1 ~tpos:63);
  Pmem.fence v;
  t

type append_result = Appended of int | Full

let[@inline] write_stored t chunk =
  let word = insert_torn chunk t.tail_tpos (t.tail_parity = 1) in
  Pmem.wtstore t.v (slot_addr t t.tail_off) word;
  t.tail_off <- t.tail_off + 1;
  if t.tail_off = t.cap then begin
    t.tail_off <- 0;
    t.passes <- t.passes + 1;
    let parity, tpos = next_pass ~parity:t.tail_parity ~tpos:t.tail_tpos in
    t.tail_parity <- parity;
    t.tail_tpos <- tpos
  end

let mask63 = 0x7fff_ffff_ffff_ffffL

let ensure_scratch t bytes =
  if Bytes.length t.scratch < bytes then begin
    let size = ref (Bytes.length t.scratch) in
    while !size < bytes do
      size := 2 * !size
    done;
    t.scratch <- Bytes.make !size '\000'
  end

(* Stream the m = n+1 record words staged in [t.scratch] (length word
   then payload, little-endian).  Chunk j is bits [63j, 63j+63) of the
   byte stream, read directly as an aligned-enough int64 load plus one
   spill byte — equivalent to pushing every word through
   {!Bitstream.Packer} but with no closure, no boxed accumulator, and
   no per-word carry bookkeeping.  The 8 bytes past the record are
   zero, so the final chunk's padding bits match [Packer.flush]. *)
let append_staged t ~n ~span =
  let env = t.v.env in
  let obs = env.Scm.Env.machine.obs in
  let t0 = env.Scm.Env.now () in
  (* The paper charges the bit manipulation per word streamed; this is
     the cost that makes tornbit lose to a commit record for large
     records (table 6). *)
  env.Scm.Env.delay ((n + 1) * env.Scm.Env.machine.latency.bit_pack_ns_per_word);
  let scratch = t.scratch in
  for j = 0 to span - 1 do
    let bitpos = 63 * j in
    let byte = bitpos lsr 3 and bit = bitpos land 7 in
    let chunk =
      if bit = 0 then Int64.logand (Bytes.get_int64_le scratch byte) mask63
      else
        Int64.logand
          (Int64.logor
             (Int64.shift_right_logical (Bytes.get_int64_le scratch byte) bit)
             (Int64.shift_left
                (Int64.of_int (Bytes.get_uint8 scratch (byte + 8)))
                (64 - bit)))
          mask63
    in
    write_stored t chunk
  done;
  (* One tail-cursor rmw per record, not per word: the record lands
     atomically from the drainer's point of view (it only trusts words
     behind the published tail). *)
  race_rmw t t.race_tail;
  Obs.Metrics.incr t.append_ctr;
  Obs.complete obs Obs.Trace.Log_append ~ts:t0
    ~dur:(env.Scm.Env.now () - t0) ~arg:span;
  (* Open the causal flow: deferred truncation / write-back / drain
     work stamped with the same txid binds back to this append. *)
  if t.owner <> 0 then Obs.flow obs ~phase:`Start ~id:t.owner;
  Appended span

let append_sub t payload ~len =
  let n = len in
  if n = 0 then invalid_arg "Rawl.append: empty record";
  if n < 0 || n > Array.length payload then
    invalid_arg "Rawl.append_sub: len";
  let span = Bitstream.stored_words_for (n + 1) in
  if span > free_words t then Full
  else begin
    ensure_scratch t (8 * (n + 2));
    Bytes.set_int64_le t.scratch 0 (Int64.of_int n);
    for i = 0 to n - 1 do
      Bytes.set_int64_le t.scratch (8 * (i + 1)) payload.(i)
    done;
    Bytes.set_int64_le t.scratch (8 * (n + 1)) 0L;
    append_staged t ~n ~span
  end

let append t payload = append_sub t payload ~len:(Array.length payload)

(* Same record, but the payload arrives as raw little-endian bytes
   ([len] words): one blit stages it, so a commit path that encodes
   into a [Bytes] buffer never materializes a boxed [Int64]. *)
let append_bytes t payload ~len =
  let n = len in
  if n = 0 then invalid_arg "Rawl.append: empty record";
  if n < 0 || 8 * n > Bytes.length payload then
    invalid_arg "Rawl.append_bytes: len";
  let span = Bitstream.stored_words_for (n + 1) in
  if span > free_words t then Full
  else begin
    ensure_scratch t (8 * (n + 2));
    Bytes.set_int64_le t.scratch 0 (Int64.of_int n);
    Bytes.blit payload 0 t.scratch 8 (8 * n);
    Bytes.set_int64_le t.scratch (8 * (n + 1)) 0L;
    append_staged t ~n ~span
  end

let flush t = Pmem.fence t.v

(* Group commit's durability point: one fence drains every listed log's
   pending appends at once.  The logs are per-thread but may share a
   machine; the head of the list belongs to the running (leader)
   thread, which pays the combined cost. *)
let flush_group ts = Pmem.fence_many (List.map (fun t -> t.v) ts)

(* Post the new head word without the fence: the group truncation path
   batches several logs' head advances under one combined fence. *)
let post_head t ~off ~parity ~tpos =
  race_rmw t t.race_head;
  Pmem.wtstore t.v (head_addr t) (pack_head ~off ~parity ~tpos);
  t.head_off <- off;
  t.head_parity <- parity;
  t.head_tpos <- tpos

let set_head t ~off ~parity ~tpos =
  post_head t ~off ~parity ~tpos;
  Pmem.fence t.v

(* Shift the torn bit one position down and erase the buffer (zeros
   read as torn bit 0 at any position, and the fresh generation starts
   with parity 1, so detection stays sound).  Section 4.5's suggestion,
   made safe by only rotating through a whole-buffer erase, amortized
   over [rotate_period] passes. *)
let rotate_generation t =
  let tpos = (t.tail_tpos + 63) mod 64 in
  for i = 0 to t.cap - 1 do
    Pmem.wtstore t.v (slot_addr t i) 0L
  done;
  Pmem.fence t.v;
  race_rmw t t.race_tail;
  t.tail_off <- 0;
  t.tail_parity <- 1;
  t.tail_tpos <- tpos;
  t.passes <- 0;
  set_head t ~off:0 ~parity:1 ~tpos

let note_truncate t ~words =
  let obs = t.v.env.Scm.Env.machine.Scm.Env.obs in
  Obs.Metrics.incr t.trunc_ctr;
  Obs.instant_at obs Obs.Trace.Log_truncate ~ts:(t.v.env.Scm.Env.now ())
    ~arg:words

let truncate_all t =
  let words = used_words t in
  (match pmchk t.v with
  | None -> ()
  | Some chk -> Scm.Pmcheck.note_truncate chk ~log:t.base ~all:true);
  if t.rotate && t.passes >= rotate_period then rotate_generation t
  else set_head t ~off:t.tail_off ~parity:t.tail_parity ~tpos:t.tail_tpos;
  note_truncate t ~words

let advance_head_post ~records t ~words =
  if words < 0 || words > used_words t then
    invalid_arg "Rawl.advance_head_group: beyond tail";
  (match pmchk t.v with
  | None -> ()
  | Some chk ->
      Scm.Pmcheck.note_truncate chk ~count:records ~log:t.base ~all:false);
  let raw = t.head_off + words in
  if raw >= t.cap then begin
    let parity, tpos = next_pass ~parity:t.head_parity ~tpos:t.head_tpos in
    post_head t ~off:(raw - t.cap) ~parity ~tpos
  end
  else post_head t ~off:raw ~parity:t.head_parity ~tpos:t.head_tpos

(* The drainer's batched retirement: every listed log's head word is
   posted, then ONE combined fence (the running fiber's log leads, as
   in {!flush_group}) makes them all durable, then the per-log metrics
   fire: a single fence for the whole sweep. *)
let advance_head_group entries =
  match List.filter (fun (_, _, words) -> words > 0) entries with
  | [] -> ()
  | live ->
      List.iter
        (fun (t, records, words) -> advance_head_post ~records t ~words)
        live;
      Pmem.fence_many (List.map (fun (t, _, _) -> t.v) live);
      List.iter (fun (t, _, words) -> note_truncate t ~words) live

(* ------------------------------------------------------------------ *)
(* Recovery *)

exception Scan_end

(* Scan forward from the head "until it reaches the end of the log,
   where the torn bit reverses, or until it finds a log word with an
   out-of-sequence torn bit, indicating a partial write."  The one
   parser of the record format: recovery reads through [Pmem.load], the
   offline analyzer through [Pmem.load_nt]. *)
let scan ld ~base ~cap ~off ~parity ~tpos =
  let pos = ref off and parity = ref parity and tpos = ref tpos in
  let budget = ref (cap - 1) in
  let read_chunk () =
    if !budget = 0 then raise Scan_end;
    let w = ld (base + header_bytes + (8 * !pos)) in
    let chunk, torn = extract_torn w !tpos in
    if torn <> (!parity = 1) then raise Scan_end;
    decr budget;
    incr pos;
    if !pos = cap then begin
      pos := 0;
      let parity', tpos' = next_pass ~parity:!parity ~tpos:!tpos in
      parity := parity';
      tpos := tpos'
    end;
    chunk
  in
  let read_record () =
    let unp = Bitstream.Unpacker.create () in
    let next_word () =
      let rec go () =
        match Bitstream.Unpacker.take unp with
        | Some w -> w
        | None ->
            Bitstream.Unpacker.feed unp (read_chunk ());
            go ()
      in
      go ()
    in
    let n = Int64.to_int (next_word ()) in
    if n < 1 || n > max_record_words_for ~cap_words:cap then raise Scan_end;
    let payload = Array.make n 0L in
    for i = 0 to n - 1 do
      payload.(i) <- next_word ()
    done;
    payload
  in
  let rec records acc =
    (* Checkpoint the cursor: a partial record rolls back to here. *)
    let rec_pos = !pos and rec_parity = !parity and rec_tpos = !tpos in
    match read_record () with
    | payload -> records (payload :: acc)
    | exception Scan_end ->
        (* The end of the log, or a partial record: discard it, stop. *)
        (List.rev acc, (rec_pos, rec_parity, rec_tpos))
  in
  records []

let attach v ~base =
  let cap, rotate = unpack_cap (Pmem.load v (base + 8)) in
  if cap < 4 then failwith "Rawl.attach: no log at this address";
  register_with_pmcheck v ~base ~cap_words:cap;
  let head_off, head_parity, head_tpos = unpack_head (Pmem.load v base) in
  let records, (tail_off, tail_parity, tail_tpos) =
    scan (Pmem.load v) ~base ~cap ~off:head_off ~parity:head_parity
      ~tpos:head_tpos
  in
  let append_ctr, trunc_ctr = mk_counters v in
  let race_head, race_tail = race_labels_for base in
  let t =
    { v; base; cap; rotate; passes = 0; head_off; head_parity; head_tpos;
      tail_off; tail_parity; tail_tpos; append_ctr; trunc_ctr; owner = 0;
      scratch = Bytes.make 512 '\000'; race = None; race_head; race_tail }
  in
  register_gauges t;
  (* Erase the stale suffix: words of a discarded partial append ahead
     of the recovered tail still carry the current pass parity, and a
     later crash could mis-parse them as a record continuation.  Rewrite
     them as previous-pass filler so the torn-bit scan stays sound.

     The sweep must cover the ENTIRE free region, not just the
     contiguous current-parity run at the tail: streaming stores land
     as an arbitrary subset on a crash, so a stale word can sit beyond
     a gap of never-written (previous-parity) words — and a crash
     during a previous recovery's erase leaves landed filler words in
     front of not-yet-erased stale ones.  Stopping at the first
     mismatch would leave such words behind; once later appends fill
     the gap with current-parity data, a subsequent recovery scan would
     run straight into the stale word and mis-parse it as a record.
     Sweeping every free word (rewriting only those that need it) is
     idempotent and converges even if this erase itself crashes partway
     through: whatever subset of the filler writes lands, the next
     recovery sweeps the same region again.

     Every free word is read non-temporally: sweeping the whole free
     region must not evict the working set or perturb the eviction
     rng.  While the view's write-combining buffer is empty such a read
     is a pure copy that charges no time, so the sweep reads ahead
     ({!Pmem.load_nt_into}) a page at a time, each run ending at a page
     boundary or where the buffer wraps, and tests each torn bit in the
     copy.  A filler stays pending until the closing fence, so from the
     first filler on (or if a store was pending on entry) it reads word
     by word: a posted filler makes the next load in its line drain the
     buffer, and each drain is a crash point that must fall where it
     always has. *)
  let erase_pos = ref t.tail_off
  and erase_parity = ref t.tail_parity
  and erase_tpos = ref t.tail_tpos
  and left = ref (free_words t)
  and erased = ref false in
  let advance words =
    erase_pos := !erase_pos + words;
    left := !left - words;
    if !erase_pos = cap then begin
      erase_pos := 0;
      let parity', tpos' =
        next_pass ~parity:!erase_parity ~tpos:!erase_tpos
      in
      erase_parity := parity';
      erase_tpos := tpos'
    end
  in
  let write_filler () =
    let filler =
      (* looks like the previous pass at this position *)
      if !erase_parity = 1 then 0L else Int64.shift_left 1L !erase_tpos
    in
    Pmem.wtstore v (slot_addr t !erase_pos) filler;
    erased := true;
    advance 1
  in
  (* Runs are read into the instance's read-ahead page, which other
     fibers' sweeps share: nothing between a run's read and its last
     torn-bit test can yield. *)
  let buf = Pmem.read_ahead_buf v in
  let page_size = Region.Layout.page_size in
  let wc = v.Pmem.env.Scm.Env.wc in
  while !left > 0 && Scm.Wc_buffer.is_empty wc do
    (* a run stops at the end of its page, and where the buffer wraps:
       the pass parity flips there *)
    let a = slot_addr t !erase_pos in
    let n = (page_size - (a land (page_size - 1))) / 8 in
    let n = Int.min n (Int.min (cap - !erase_pos) !left) in
    Pmem.load_nt_into v a buf 0 (8 * n);
    let i = ref 0 in
    while
      !i < n
      && torn_bit (Bytes.get_int64_le buf (8 * !i)) !erase_tpos
         <> !erase_parity
    do
      incr i
    done;
    advance !i;
    (* the word the run stopped at is stale: its read was a pure copy
       too, so the filler follows it directly *)
    if !i < n then write_filler ()
  done;
  while !left > 0 do
    let w = Pmem.load_nt v (slot_addr t !erase_pos) in
    if torn_bit w !erase_tpos = !erase_parity then write_filler ()
    else advance 1
  done;
  if !erased then Pmem.fence v;
  (t, records)

(* The volatile lock array, stored as chunks allocated on first write.

   Each entry is four adjacent words of its chunk:
   - the version;
   - the owner plus one (0 = free), so a default entry is all zeros;
   - the address the current owner acquired it for — a conflicting
     acquirer with a *different* address never touched common data;
     the table aliased them together (a false conflict, which
     {!aliased} exposes so the STM can count them);
   - [rts]: the largest commit timestamp any validated reader has
     ordered itself at.  With leased (out-of-arrival-order) commit
     timestamps a writer must publish a version above every reader
     that already serialized against the old version; [rts] is where
     readers leave that watermark (TicToc-style).

   Every directory slot starts on one shared chunk of default entries,
   so reads never allocate; {!writable} gives a slot its private chunk
   on the first write to it.  A table costs the chunks it has written
   plus its directory, not its nominal size. *)

let chunk_bits = 9
let chunk_entries = 1 lsl chunk_bits
let fields = 4

(* Field offsets within an entry. *)
let f_version = 0
let f_owner = 1 (* owner + 1; 0 = free *)
let f_addr = 2 (* owner's acquiring address; 0 = unknown *)
let f_rts = 3 (* max cts/rv a validated reader serialized at *)

(* Shared by every table and never written. *)
let default_chunk = Array.make (chunk_entries * fields) 0

type t = {
  chunks : int array array;  (* 2^(bits-9) slots, at least one *)
  chunk_words : int;  (* a full chunk, or the whole of a smaller table *)
  mask : int;  (* entry count - 1 *)
  mutable race : Race_api.hooks option;
      (* Every entry is a single-word CAS-able atomic in a real
         runtime: acquisition is an rmw, releases publish, reads
         acquire.  Each entry is its own sync object, so HB flows
         per entry, never through the table as a whole (DESIGN.md
         section 18). *)
}

let create ?(bits = 18) () =
  let n = 1 lsl bits in
  {
    chunks = Array.make (max 1 (n lsr chunk_bits)) default_chunk;
    chunk_words = fields * min n chunk_entries;
    mask = n - 1;
    race = None;
  }

let set_race t h = t.race <- h

let[@inline] entry_label h = "mtm.lock." ^ string_of_int h

let[@inline] race_acq t h =
  match t.race with
  | None -> ()
  | Some hk -> hk.Race_api.acquire (entry_label h)

let[@inline] race_rel t h =
  match t.race with
  | None -> ()
  | Some hk -> hk.Race_api.release (entry_label h)

let[@inline] race_rmw t h =
  match t.race with
  | None -> ()
  | Some hk -> hk.Race_api.rmw (entry_label h)

(* Each lock covers one cache line of the address space (the paper:
   "each lock covering a portion of the address space").  Range
   striding, not hashing: contiguous writes take contiguous locks, so a
   large write set occupies few entries and disjoint structures rarely
   false-conflict.  The line number is a shift, not a division. *)
let line_shift =
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  log2 Scm.Cache.line_size

let[@inline] index_of t addr = (addr lsr line_shift) land t.mask

(* Word [f] of entry [h]: the chunk, and the index within it. *)
let[@inline] chunk t h = t.chunks.(h lsr chunk_bits)
let[@inline] slot h f = ((h land (chunk_entries - 1)) * fields) + f
let[@inline] get t h f = (chunk t h).(slot h f)

let install t h =
  let c = Array.make t.chunk_words 0 in
  t.chunks.(h lsr chunk_bits) <- c;
  c

(* The one write path: the chunk holding [h], made private first. *)
let[@inline] writable t h =
  let c = chunk t h in
  if c != default_chunk then c else install t h

let[@inline] version t h =
  race_acq t h;
  get t h f_version

let[@inline] owner t h =
  race_acq t h;
  get t h f_owner - 1

let[@inline] rts t h =
  race_acq t h;
  get t h f_rts

(* Only meaningful while the entry is held: conflicts are attributed at
   the moment they are observed, against the current owner. *)
let[@inline] aliased t h ~addr =
  race_acq t h;
  let held = get t h f_addr in
  held <> 0 && held <> addr

let[@inline] try_acquire t h ~owner ~addr =
  if get t h f_owner = 0 then begin
    race_rmw t h;
    let c = writable t h in
    c.(slot h f_owner) <- owner + 1;
    c.(slot h f_addr) <- addr;
    true
  end
  else begin
    (* A failed (or re-entrant) probe still reads the word. *)
    race_acq t h;
    get t h f_owner = owner + 1
  end

let[@inline] release t h =
  race_rel t h;
  (writable t h).(slot h f_owner) <- 0

let[@inline] release_versioned t h ~version =
  race_rel t h;
  let c = writable t h in
  c.(slot h f_version) <- version;
  c.(slot h f_owner) <- 0

(* Reader watermark: monotone, bumped inside the same atomic
   (yield-free) step as the validation that justifies it. *)
let[@inline] bump_rts t h v =
  race_rmw t h;
  if get t h f_rts < v then (writable t h).(slot h f_rts) <- v

let entries t = t.mask + 1

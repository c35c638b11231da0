(* Array-backed, open-addressed cache: the per-word load/store fast
   path is a handful of array reads with zero allocation.  Lines live
   in a linear-probing table whose entries own [line_size] buffers,
   each allocated the first time its slot holds a line; deletion is
   backward-shift, so there are no tombstones and probes stay short.
   The table starts at 16 slots and doubles as resident lines grow, so
   the load factor stays under 1/2 and a machine costs what its run
   touches; at capacity it is the power of two >= 2x capacity.

   Eviction semantics are pinned: the victim is drawn uniformly from a
   dense insertion-ordered array of resident line addresses
   ([members], maintained by append + swap-remove exactly as the
   original Hashtbl-based cache did), and the rng is consumed ONLY for
   that draw.  Crash-point indices and eviction sequences are
   therefore bit-identical to the previous implementation — the
   cache-eviction determinism test in test_scm.ml checks the sequence
   against a reference model. *)

let line_size = 64

type t = {
  dev : Scm_device.t;
  capacity : int;
  mutable mask : int;  (* table size - 1; table size is a power of two *)
  mutable shift : int;  (* 63 - log2 (table size): see [hash] *)
  mutable keys : int array;  (* line base address, or -1 for an empty slot *)
  mutable data : Bytes.t array;
      (* line buffers, one per slot; empty until used *)
  mutable dirty : bool array;
  mutable mslot : int array;  (* index of this entry's base in [members] *)
  rng : Random.State.t;
  obs : Obs.t;
  cp : Crashpoint.t;
  evict_ctr : Obs.Metrics.counter;
  mutable pmcheck : Pmcheck.t option;
      (* durability sanitizer, observing lines that reach the device;
         None (the default) costs one branch per write-back *)
  (* Dense array of resident line addresses for O(1) random victim
     selection; insertion-ordered, removal swaps the last entry in.
     Half the table's size: it grows with the table. *)
  mutable members : int array;
  mutable nmembers : int;
  (* Causal attribution: [cur_owner] is the transaction id stamped by
     the access layer before each store; dirtying a line records it in
     [owner] so a later write-back can be attributed to the
     transaction that dirtied the line.  Plain int stores — never
     simulated time, rng draws, or allocation. *)
  mutable cur_owner : int;
  mutable owner : int array;  (* per slot; 0 = unattributed *)
}

let initial_bits = 4

let create ?(capacity_lines = 8192) ?(seed = 0xcafe) ?obs ?cp dev =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let cp = match cp with Some c -> c | None -> Crashpoint.create () in
  let size = 1 lsl initial_bits in
  let t =
    {
      dev;
      capacity = capacity_lines;
      mask = size - 1;
      shift = 63 - initial_bits;
      keys = Array.make size (-1);
      data = Array.make size Bytes.empty;
      dirty = Array.make size false;
      mslot = Array.make size 0;
      rng = Random.State.make [| seed |];
      obs;
      cp;
      evict_ctr = Obs.Metrics.counter obs.Obs.metrics "scm.cache.evictions";
      pmcheck = None;
      members = Array.make (size / 2) (-1);
      nmembers = 0;
      cur_owner = 0;
      owner = Array.make size 0;
    }
  in
  Obs.Metrics.set_gauge
    (Obs.Metrics.gauge obs.Obs.metrics "scm.cache.resident_lines")
    (fun () -> t.nmembers);
  t

let line_base addr = addr land lnot (line_size - 1)

(* Fibonacci hashing: the top log2 (size) bits of the line base times
   an odd constant, so every bit of the line number reaches the slot,
   in a table of any size and for lines a page apart too.  The table is
   an implementation detail: no probe order reaches the eviction draw
   or the members order. *)
let[@inline] hash t base = (base * 0x2545F4914F6CDD1D) lsr t.shift

(* Slot holding [base], or -1 if not resident. *)
let[@inline] find_slot t base =
  let keys = t.keys and mask = t.mask in
  let i = ref (hash t base) in
  let k = ref keys.(!i) in
  while !k <> base && !k <> -1 do
    i := (!i + 1) land mask;
    k := keys.(!i)
  done;
  if !k = base then !i else -1

(* First empty slot on [base]'s probe path (caller knows it's absent). *)
let[@inline] free_slot t base =
  let keys = t.keys and mask = t.mask in
  let i = ref (hash t base) in
  while keys.(!i) <> -1 do
    i := (!i + 1) land mask
  done;
  !i

(* Double the table, moving every resident line with its buffer; the
   members array keeps its order.  Then each buffer whose line has gone
   moves to an empty slot, so a growth turns no buffer into garbage. *)
let grow t =
  let keys = t.keys and data = t.data and dirty = t.dirty
  and mslot = t.mslot and owner = t.owner in
  let size = 2 * Array.length keys in
  t.mask <- size - 1;
  t.shift <- t.shift - 1;
  t.keys <- Array.make size (-1);
  t.data <- Array.make size Bytes.empty;
  t.dirty <- Array.make size false;
  t.mslot <- Array.make size 0;
  t.owner <- Array.make size 0;
  Array.iteri
    (fun i base ->
      if base <> -1 then begin
        let j = free_slot t base in
        t.keys.(j) <- base;
        t.data.(j) <- data.(i);
        t.dirty.(j) <- dirty.(i);
        t.mslot.(j) <- mslot.(i);
        t.owner.(j) <- owner.(i)
      end)
    keys;
  let j = ref 0 in
  Array.iteri
    (fun i base ->
      if base = -1 && Bytes.length data.(i) > 0 then begin
        while t.keys.(!j) <> -1 || Bytes.length t.data.(!j) > 0 do
          incr j
        done;
        t.data.(!j) <- data.(i)
      end)
    keys;
  let members = Array.make (size / 2) (-1) in
  Array.blit t.members 0 members 0 t.nmembers;
  t.members <- members

let member_add t base slot =
  t.members.(t.nmembers) <- base;
  t.mslot.(slot) <- t.nmembers;
  t.nmembers <- t.nmembers + 1

let member_remove t slot =
  let ms = t.mslot.(slot) in
  let last = t.nmembers - 1 in
  let moved = t.members.(last) in
  t.members.(ms) <- moved;
  t.nmembers <- last;
  if ms <> last then begin
    let moved_slot = find_slot t moved in
    t.mslot.(moved_slot) <- ms
  end

(* Backward-shift deletion: walk the cluster after [slot], moving back
   any entry whose home position does not lie cyclically inside
   (hole, entry].  Buffers are swapped, not copied, so a line keeps its
   buffer and a freed slot keeps whatever buffer it last held. *)
let table_delete t slot =
  let mask = t.mask in
  let hole = ref slot in
  t.keys.(!hole) <- -1;
  let j = ref ((slot + 1) land mask) in
  while t.keys.(!j) <> -1 do
    let home = hash t t.keys.(!j) in
    let dist_home = (!j - home) land mask in
    let dist_hole = (!j - !hole) land mask in
    if dist_home >= dist_hole then begin
      t.keys.(!hole) <- t.keys.(!j);
      t.dirty.(!hole) <- t.dirty.(!j);
      t.owner.(!hole) <- t.owner.(!j);
      t.mslot.(!hole) <- t.mslot.(!j);
      let tmp = t.data.(!hole) in
      t.data.(!hole) <- t.data.(!j);
      t.data.(!j) <- tmp;
      t.keys.(!j) <- -1;
      t.dirty.(!j) <- false;
      t.owner.(!j) <- 0;
      hole := !j
    end;
    j := (!j + 1) land mask
  done

let set_pmcheck t c = t.pmcheck <- c
let set_owner t txid = t.cur_owner <- txid

let write_back t base slot =
  Crashpoint.tick t.cp Crashpoint.Cache_writeback;
  Scm_device.write_from t.dev base t.data.(slot) 0 line_size;
  t.dirty.(slot) <- false;
  (* Attribute the deferred write-back to the transaction that dirtied
     the line; only when tracing, so the common path stays one
     branch. *)
  if t.owner.(slot) <> 0 then begin
    if Obs.tracing t.obs then Obs.flow t.obs ~phase:`Step ~id:t.owner.(slot);
    t.owner.(slot) <- 0
  end;
  match t.pmcheck with
  | None -> ()
  | Some chk -> Pmcheck.device_reach_line chk base line_size

let remove_line t slot =
  member_remove t slot;
  table_delete t slot

let evict_one t =
  if t.nmembers > 0 then begin
    let victim = t.members.(Random.State.int t.rng t.nmembers) in
    let slot = find_slot t victim in
    if t.dirty.(slot) then write_back t victim slot;
    remove_line t slot;
    Obs.Metrics.incr t.evict_ctr;
    Obs.instant t.obs Obs.Trace.Cache_evict ~arg:victim
  end

(* Returns the slot of [addr]'s line, filling it on a miss. *)
let get_line t base =
  let slot = find_slot t base in
  if slot >= 0 then slot
  else begin
    if t.nmembers >= t.capacity then evict_one t;
    if 2 * (t.nmembers + 1) > Array.length t.keys then grow t;
    let slot = free_slot t base in
    t.keys.(slot) <- base;
    t.dirty.(slot) <- false;
    t.owner.(slot) <- 0;
    if Bytes.length t.data.(slot) = 0 then
      t.data.(slot) <- Bytes.create line_size;
    Scm_device.read_into t.dev base t.data.(slot) 0 line_size;
    member_add t base slot;
    slot
  end

let read_word t addr =
  let base = line_base addr in
  let slot = get_line t base in
  Word.get t.data.(slot) (addr - base)

(* Coherent read that never allocates a line (an uncached/non-temporal
   load): resident lines answer from the cache, everything else reads
   the device directly.  Recovery-time sweeps use this so scanning a
   whole region does not evict the working set or consume the eviction
   rng. *)
let peek_word t addr =
  let base = line_base addr in
  let slot = find_slot t base in
  if slot >= 0 then Word.get t.data.(slot) (addr - base)
  else Scm_device.load64 t.dev (addr - (addr mod 8))

(* Device bytes [lo, hi) of a copy of [addr..] into [buf] at [off]. *)
let peek_device t addr buf off lo hi =
  if hi > lo then Scm_device.read_into t.dev lo buf (off + lo - addr) (hi - lo)

(* [peek_word] over a byte range: each resident line is copied from the
   cache, each run of lines that are not resident in one device read. *)
let peek_into t addr buf off len =
  let stop = addr + len in
  let run = ref addr (* start of the pending non-resident run *)
  and a = ref addr in
  while !a < stop do
    let base = line_base !a in
    let next = if base + line_size < stop then base + line_size else stop in
    let slot = find_slot t base in
    if slot >= 0 then begin
      peek_device t addr buf off !run !a;
      Bytes.blit t.data.(slot) (!a - base) buf (off + !a - addr) (next - !a);
      run := next
    end;
    a := next
  done;
  peek_device t addr buf off !run stop

let write_word t addr v =
  let base = line_base addr in
  let slot = get_line t base in
  Word.set t.data.(slot) (addr - base) v;
  t.dirty.(slot) <- true;
  t.owner.(slot) <- t.cur_owner

let rec read_into t addr buf off len =
  if len > 0 then begin
    let base = line_base addr in
    let slot = get_line t base in
    let within = addr - base in
    let n = min len (line_size - within) in
    Bytes.blit t.data.(slot) within buf off n;
    read_into t (addr + n) buf (off + n) (len - n)
  end

let rec write_from t addr buf off len =
  if len > 0 then begin
    let base = line_base addr in
    let slot = get_line t base in
    let within = addr - base in
    let n = min len (line_size - within) in
    Bytes.blit buf off t.data.(slot) within n;
    t.dirty.(slot) <- true;
    t.owner.(slot) <- t.cur_owner;
    write_from t (addr + n) buf (off + n) (len - n)
  end

let flush_line t addr =
  let base = line_base addr in
  let slot = find_slot t base in
  if slot < 0 then false
  else begin
    let was_dirty = t.dirty.(slot) in
    if was_dirty then write_back t base slot;
    remove_line t slot;
    was_dirty
  end

let invalidate_line t addr =
  let base = line_base addr in
  let slot = find_slot t base in
  if slot >= 0 then remove_line t slot

(* Write-back (if dirty) and invalidate in one probe: the streaming
   store path runs this per word, and probing once instead of twice
   (writeback_line / invalidate_line) is visible on the commit
   microbench.  Semantics and crash-tick sequence are exactly the
   composition of those two calls. *)
let wt_invalidate t addr =
  let base = line_base addr in
  let slot = find_slot t base in
  if slot >= 0 then begin
    if t.dirty.(slot) then write_back t base slot;
    remove_line t slot
  end

let dirty_lines t =
  let acc = ref [] in
  for m = t.nmembers - 1 downto 0 do
    let base = t.members.(m) in
    if t.dirty.(find_slot t base) then acc := base :: !acc
  done;
  List.sort (fun (a : int) b -> compare a b) !acc

let writeback_line t addr =
  let base = line_base addr in
  let slot = find_slot t base in
  if slot >= 0 && t.dirty.(slot) then write_back t base slot

let drop_all t =
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  t.nmembers <- 0

(* The volatile lock array.

   Each entry also carries:
   - [addrs]: the address the current owner acquired it for — a
     conflicting acquirer with a *different* address never touched
     common data; the table aliased them together (a false conflict,
     which {!aliased} exposes so the STM can count them);
   - [rts]: the largest commit timestamp any validated reader has
     ordered itself at.  With leased (out-of-arrival-order) commit
     timestamps a writer must publish a version above every reader
     that already serialized against the old version; [rts] is where
     readers leave that watermark (TicToc-style). *)

type t = {
  versions : int array;
  owners : int array;
  addrs : int array; (* owner's acquiring address; 0 = unknown *)
  rts : int array; (* max cts/rv a validated reader serialized at *)
  mask : int; (* entry count - 1 *)
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
    versions = Array.make n 0;
    owners = Array.make n (-1);
    addrs = Array.make n 0;
    rts = Array.make n 0;
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

(* Each lock covers one 64-byte line of the address space (the paper:
   "each lock covering a portion of the address space").  Range
   striding, not hashing: contiguous writes take contiguous locks, so a
   large write set occupies few entries and disjoint structures rarely
   false-conflict. *)
let[@inline] index_of t addr = (addr lsr 6) land t.mask

let[@inline] version t h =
  race_acq t h;
  t.versions.(h)

let[@inline] owner t h =
  race_acq t h;
  t.owners.(h)

let[@inline] rts t h =
  race_acq t h;
  t.rts.(h)

let[@inline] held_addr t h =
  race_acq t h;
  t.addrs.(h)

(* Only meaningful while the entry is held: conflicts are attributed at
   the moment they are observed, against the current owner. *)
let[@inline] aliased t h ~addr =
  let held = held_addr t h in
  held <> 0 && held <> addr

let[@inline] try_acquire t h ~owner ~addr =
  if t.owners.(h) = -1 then begin
    race_rmw t h;
    t.owners.(h) <- owner;
    t.addrs.(h) <- addr;
    true
  end
  else begin
    (* A failed (or re-entrant) probe still reads the word. *)
    race_acq t h;
    t.owners.(h) = owner
  end

let[@inline] release t h =
  race_rel t h;
  t.owners.(h) <- -1

let[@inline] release_versioned t h ~version =
  race_rel t h;
  t.versions.(h) <- version;
  t.owners.(h) <- -1

(* Reader watermark: monotone, bumped inside the same atomic
   (yield-free) step as the validation that justifies it. *)
let[@inline] bump_rts t h v =
  race_rmw t h;
  if t.rts.(h) < v then t.rts.(h) <- v

let entries t = t.mask + 1

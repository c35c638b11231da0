(* FastTrack-style happens-before race detection (DESIGN.md section 18).

   The detector consumes the Race_api hook stream fired by the
   instrumented layers and maintains:

   - one vector clock per fiber (the fiber's knowledge of every other
     fiber's progress);
   - per annotated location, epoch-compressed last-access metadata: the
     last write as a single (fiber, clock) epoch, and the reads either
     as one epoch (the common same-fiber / ordered-readers case) or
     inflated to a full per-fiber read map when reads are concurrent;
   - per location used as a sync object, a sync clock that [release]
     publishes into and [acquire] joins from.

   A plain access races when it is not ordered after the recorded
   accesses it conflicts with: write-after-write and write-after-read
   check the current fiber's clock against every recorded epoch,
   read-after-write checks the write epoch only.  Atomic accesses
   (acquire/release/rmw) are never reported — they are the
   synchronization vocabulary itself.

   Epoch compression is the FastTrack insight: once a write is known
   race-free it is totally ordered after every earlier access, so one
   epoch represents the whole access history; reads stay an epoch
   until two reads are mutually unordered, the only case that needs
   the full map.  [Naive_vc] keeps full per-fiber maps for both reads
   and writes — the textbook vector-clock detector — and exists so the
   test suite can check the equivalence property: both modes taint the
   same locations on the same op (FastTrack's soundness/completeness
   theorem), which test/test_check.ml exercises with qcheck.

   Each race is reported once per location (first report taints the
   location) with dual provenance: both accessors' global op index,
   simulated time, fiber id, and the location label — enough to line
   the report up with the flight recorder and a replayed schedule. *)

module Im = Map.Make (Int)

module Vc = struct
  type t = int Im.t

  let empty : t = Im.empty
  let get c f = match Im.find_opt f c with Some v -> v | None -> 0
  let set c f v : t = Im.add f v c
  let tick c f = Im.add f (get c f + 1) c
  let join a b = Im.union (fun _ x y -> Some (max x y)) a b

  (* Pointwise order with absent components reading as 0. *)
  let leq a b = Im.for_all (fun f v -> v <= get b f) a
  let equal a b = leq a b && leq b a
end

type mode = Fasttrack | Naive_vc

type access = { fiber : int; clock : int; op : int; time : int }

type race_kind = Write_write | Read_write | Write_read

type race = {
  loc : string;
  kind : race_kind;
  prior : access;
  cur : access;
}

(* Location metadata.  FastTrack keeps writes as [Wepoch] and promotes
   reads [Repoch] -> [Rmap] only on concurrent readers; Naive_vc keeps
   both as maps from the start.  The maps double as provenance: each
   fiber's entry is its full last-access record, so the read/write
   vector clock is the [clock] projection. *)
type reads = Rnone | Repoch of access | Rmap of (int, access) Hashtbl.t
type writes = Wnone | Wepoch of access | Wmap of (int, access) Hashtbl.t

type loc = {
  label : string;
  mutable w : writes;
  mutable rd : reads;
  mutable sync : Vc.t;
  mutable tainted : bool;
}

type t = {
  mode : mode;
  fiber : unit -> int;
  now : unit -> int;
  mutable ops : int;
  clocks : (int, Vc.t) Hashtbl.t;
  locs : (string, loc) Hashtbl.t;
  mutable races : race list;
  mutable nraces : int;
}

let create ?(mode = Fasttrack) ~fiber ~now () =
  {
    mode;
    fiber;
    now;
    ops = 0;
    clocks = Hashtbl.create 64;
    locs = Hashtbl.create 64;
    races = [];
    nraces = 0;
  }

let ops t = t.ops
let races t = List.rev t.races
let race_count t = t.nraces

let clock_of t f =
  match Hashtbl.find_opt t.clocks f with
  | Some c -> c
  | None ->
      (* A fiber's first event lives at its own clock 1. *)
      let c = Vc.set Vc.empty f 1 in
      Hashtbl.replace t.clocks f c;
      c

let set_clock t f c = Hashtbl.replace t.clocks f c

let loc_of t label =
  match Hashtbl.find_opt t.locs label with
  | Some l -> l
  | None ->
      let l =
        { label; w = Wnone; rd = Rnone; sync = Vc.empty; tainted = false }
      in
      Hashtbl.replace t.locs label l;
      l

(* Epoch (a.fiber, a.clock) happens-before the current event of the
   fiber whose clock is [c]. *)
let covered c a = a.clock <= Vc.get c a.fiber

let report t l kind ~prior ~cur =
  if not l.tainted then begin
    l.tainted <- true;
    t.nraces <- t.nraces + 1;
    t.races <- { loc = l.label; kind; prior; cur } :: t.races
  end

let access_now t f c =
  { fiber = f; clock = Vc.get c f; op = t.ops; time = t.now () }

(* ---------------------------------------------------------------- *)
(* Plain (checked) accesses                                          *)

let check_writes t l c cur kind =
  match l.w with
  | Wnone -> ()
  | Wepoch a -> if not (covered c a) then report t l kind ~prior:a ~cur
  | Wmap m ->
      Hashtbl.iter
        (fun _ a -> if not (covered c a) then report t l kind ~prior:a ~cur)
        m

let check_reads t l c cur =
  match l.rd with
  | Rnone -> ()
  | Repoch a ->
      if not (covered c a) then report t l Read_write ~prior:a ~cur
  | Rmap m ->
      Hashtbl.iter
        (fun _ a ->
          if not (covered c a) then report t l Read_write ~prior:a ~cur)
        m

let on_write t label =
  t.ops <- t.ops + 1;
  let f = t.fiber () in
  let c = clock_of t f in
  let l = loc_of t label in
  let cur = access_now t f c in
  check_writes t l c cur Write_write;
  check_reads t l c cur;
  match t.mode with
  | Fasttrack ->
      (* A clean write is ordered after every recorded access, so its
         epoch represents the whole history (and after a race the
         location is tainted anyway): collapse both sets.  This is the
         compression whose equivalence with [Naive_vc] the qcheck
         property in test_check.ml exercises. *)
      l.w <- Wepoch cur;
      l.rd <- Rnone
  | Naive_vc ->
      (* The textbook detector: full per-fiber last-access maps,
         nothing ever discarded. *)
      let m = match l.w with Wmap m -> m | _ -> Hashtbl.create 4 in
      Hashtbl.replace m f cur;
      l.w <- Wmap m

let on_read t label =
  t.ops <- t.ops + 1;
  let f = t.fiber () in
  let c = clock_of t f in
  let l = loc_of t label in
  let cur = access_now t f c in
  check_writes t l c cur Write_read;
  match t.mode with
  | Naive_vc ->
      let m = match l.rd with Rmap m -> m | _ -> Hashtbl.create 4 in
      (match l.rd with Rmap _ -> () | _ -> l.rd <- Rmap m);
      Hashtbl.replace m f cur
  | Fasttrack -> (
      match l.rd with
      | Rnone -> l.rd <- Repoch cur
      | Repoch a when a.fiber = f || covered c a ->
          (* Same reader, or the previous read happens-before us: the
             new epoch subsumes it. *)
          l.rd <- Repoch cur
      | Repoch a ->
          (* Two concurrent readers: inflate to the full map. *)
          let m = Hashtbl.create 4 in
          Hashtbl.replace m a.fiber a;
          Hashtbl.replace m f cur;
          l.rd <- Rmap m
      | Rmap m -> Hashtbl.replace m f cur)

(* ---------------------------------------------------------------- *)
(* Atomic accesses and fiber edges                                   *)

let on_acquire t label =
  t.ops <- t.ops + 1;
  let f = t.fiber () in
  let l = loc_of t label in
  set_clock t f (Vc.join (clock_of t f) l.sync)

let on_release t label =
  t.ops <- t.ops + 1;
  let f = t.fiber () in
  let c = clock_of t f in
  let l = loc_of t label in
  (* Join rather than overwrite: with several releasers (many producers
     into one queue) every one of them must happen-before the next
     acquirer. *)
  l.sync <- Vc.join l.sync c;
  set_clock t f (Vc.tick c f)

let on_rmw t label =
  t.ops <- t.ops + 1;
  let f = t.fiber () in
  let l = loc_of t label in
  let c = Vc.join (clock_of t f) l.sync in
  l.sync <- Vc.join l.sync c;
  set_clock t f (Vc.tick c f)

let on_fork t ~parent ~child =
  t.ops <- t.ops + 1;
  let cp = clock_of t parent in
  set_clock t child (Vc.join (clock_of t child) cp);
  set_clock t parent (Vc.tick cp parent)

let on_transfer t ~src ~dst =
  t.ops <- t.ops + 1;
  if src <> dst then begin
    let cs = clock_of t src in
    set_clock t dst (Vc.join (clock_of t dst) cs);
    set_clock t src (Vc.tick cs src)
  end

let hooks t : Race_api.hooks =
  {
    read = on_read t;
    write = on_write t;
    acquire = on_acquire t;
    release = on_release t;
    rmw = on_rmw t;
    fork = (fun ~parent ~child -> on_fork t ~parent ~child);
    transfer = (fun ~src ~dst -> on_transfer t ~src ~dst);
  }

(* ---------------------------------------------------------------- *)
(* Reporting                                                         *)

let kind_name = function
  | Write_write -> "write/write"
  | Read_write -> "read/write"
  | Write_read -> "write/read"

let side = function Write_write -> ("write", "write")
  | Read_write -> ("read", "write")
  | Write_read -> ("write", "read")

let render r =
  let pk, ck = side r.kind in
  Printf.sprintf
    "data race (%s) on %s: %s by fiber %d (op %d, t=%dns) unordered with %s \
     by fiber %d (op %d, t=%dns)"
    (kind_name r.kind) r.loc ck r.cur.fiber r.cur.op r.cur.time pk
    r.prior.fiber r.prior.op r.prior.time

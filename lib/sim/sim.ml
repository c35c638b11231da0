exception Deadlock of string

(* ------------------------------------------------------------------ *)
(* Same-time tiebreak policy (schedule exploration)                    *)

module Schedule = struct
  type policy = Fifo | Seeded_shuffle | Priority

  let policy_name = function
    | Fifo -> "fifo"
    | Seeded_shuffle -> "shuffle"
    | Priority -> "priority"

  let policy_of_string = function
    | "fifo" -> Ok Fifo
    | "shuffle" | "seeded_shuffle" -> Ok Seeded_shuffle
    | "priority" | "pct" -> Ok Priority
    | s -> Error (Printf.sprintf "unknown schedule policy %S" s)

  (* Growable int buffer: the recorded decision streams. *)
  module Ibuf = struct
    type t = { mutable a : int array; mutable n : int }

    let create () = { a = Array.make 64 0; n = 0 }
    let of_array a = { a; n = Array.length a }

    let push b x =
      if b.n = Array.length b.a then begin
        let bigger = Array.make (2 * b.n) 0 in
        Array.blit b.a 0 bigger 0 b.n;
        b.a <- bigger
      end;
      b.a.(b.n) <- x;
      b.n <- b.n + 1

    let get b i = b.a.(i)
    let length b = b.n
  end

  type t = {
    policy : policy;
    seed : int;
    replay : bool;
    rng : Random.State.t;
    keys : Ibuf.t;  (* one tiebreak key per event push (non-Fifo) *)
    draw_bounds : Ibuf.t;  (* captured client rng draws (retry backoff) *)
    draw_vals : Ibuf.t;
    mutable ki : int;  (* replay cursors *)
    mutable di : int;
    mutable extra : int;  (* fresh decisions made after replay diverged *)
    mutable draws_diverged : bool;  (* a draw bound mismatched: stop
                                       consuming the recorded stream *)
    mutable meta : (string * string) list;
    (* PCT-style per-process priorities, re-drawn at seeded change
       points *)
    mutable prio : int array;
    mutable until_change : int;
    mutable observer : (index:int -> key:int -> unit) option;
  }

  (* Keys stay well below [max_int] so (time, key, seq) comparisons
     cannot overflow, and 0 is reserved as the Fifo key. *)
  let key_range = 0x3FFFFFFF

  let make ?(seed = 0) policy =
    {
      policy;
      seed;
      replay = false;
      rng = Random.State.make [| 0x5c4ed; seed |];
      keys = Ibuf.create ();
      draw_bounds = Ibuf.create ();
      draw_vals = Ibuf.create ();
      ki = 0;
      di = 0;
      extra = 0;
      draws_diverged = false;
      meta = [];
      prio = Array.make 64 (-1);
      until_change = 0;
      observer = None;
    }

  let fifo () = make Fifo

  let policy t = t.policy
  let seed t = t.seed
  let decisions t = if t.replay then t.ki else Ibuf.length t.keys
  let rng_draws t = if t.replay then t.di else Ibuf.length t.draw_vals

  let replay_leftover t =
    if not t.replay then 0
    else Ibuf.length t.keys - t.ki + (Ibuf.length t.draw_vals - t.di)

  let replay_extra t = t.extra

  let set_meta t k v = t.meta <- (k, v) :: List.remove_assoc k t.meta
  let meta t k = List.assoc_opt k t.meta
  let set_observer t f = t.observer <- f

  let notify t key =
    match t.observer with
    | None -> ()
    | Some f -> f ~index:(decisions t - 1) ~key

  let ensure_prio t proc =
    if proc >= Array.length t.prio then begin
      let bigger = Array.make (2 * (proc + 1)) (-1) in
      Array.blit t.prio 0 bigger 0 (Array.length t.prio);
      t.prio <- bigger
    end;
    if t.prio.(proc) < 0 then
      t.prio.(proc) <- 1 + Random.State.int t.rng key_range

  (* PCT-flavoured: every process carries a seeded priority; after a
     seeded number of scheduling decisions the deciding process's
     priority is re-drawn (the "priority change point"), so one process
     dominates for a stretch and then the balance shifts. *)
  let priority_key t proc =
    ensure_prio t proc;
    if t.until_change <= 0 then
      t.until_change <- 1 + Random.State.int t.rng 63;
    t.until_change <- t.until_change - 1;
    if t.until_change = 0 then
      t.prio.(proc) <- 1 + Random.State.int t.rng key_range;
    t.prio.(proc)

  let fresh_key t ~proc =
    match t.policy with
    | Fifo -> 0
    | Seeded_shuffle -> 1 + Random.State.int t.rng key_range
    | Priority -> priority_key t proc

  (* The key of the event being pushed, for the heap's same-time
     ordering: lower keys run first; equal keys fall back to FIFO
     [seq].  [Fifo] always answers 0 (bit-identical to the historical
     behaviour); the other policies draw from the seeded rng and record
     the value, or consume the recorded stream when replaying.

     A replay that outlives its recorded stream is not an error: the
     code under replay may legitimately diverge from the code that
     recorded the trace — a regression trace captured against pre-fix
     code makes the fixed code abort a transaction the recording
     committed, after which the two runs make different numbers of
     decisions.  Past the end of the stream we fall back to fresh
     policy draws (still deterministic: same trace, same fallback) and
     count them in [replay_extra]; bit-exact replay is [replay_leftover
     = 0 && replay_extra = 0]. *)
  let next_key t ~proc =
    match t.policy with
    | Fifo -> 0
    | Seeded_shuffle | Priority ->
        let k =
          if t.replay then
            if t.ki >= Ibuf.length t.keys then begin
              t.extra <- t.extra + 1;
              fresh_key t ~proc
            end
            else begin
              let k = Ibuf.get t.keys t.ki in
              t.ki <- t.ki + 1;
              k
            end
          else begin
            let k = fresh_key t ~proc in
            Ibuf.push t.keys k;
            k
          end
        in
        notify t k;
        k

  let draw t ~bound =
    if bound <= 0 then invalid_arg "Schedule.draw: bound must be positive";
    if t.replay then
      if
        t.draws_diverged
        || t.di >= Ibuf.length t.draw_vals
        || Ibuf.get t.draw_bounds t.di <> bound
      then begin
        (* Exhausted, or the caller asked with a different bound than
           the recording paired with this position: the replayed run
           took a different retry path.  Re-syncing after a mismatch
           would pair recorded draws with the wrong call sites, so stop
           consuming the stream and fall back to fresh draws. *)
        if t.di < Ibuf.length t.draw_vals then t.draws_diverged <- true;
        t.extra <- t.extra + 1;
        Random.State.int t.rng bound
      end
      else begin
        let v = Ibuf.get t.draw_vals t.di in
        t.di <- t.di + 1;
        v
      end
    else begin
      let v = Random.State.int t.rng bound in
      Ibuf.push t.draw_bounds bound;
      Ibuf.push t.draw_vals v;
      v
    end

  (* ---------------------------------------------------------------- *)
  (* Trace files: a replayable record of every decision               *)

  let save t path =
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc "mnemosyne-sched-trace 1\n";
        Printf.fprintf oc "policy %s\n" (policy_name t.policy);
        Printf.fprintf oc "seed %d\n" t.seed;
        List.iter
          (fun (k, v) -> Printf.fprintf oc "meta %s %s\n" k v)
          (List.rev t.meta);
        let nkeys = Ibuf.length t.keys in
        Printf.fprintf oc "keys %d\n" nkeys;
        for i = 0 to nkeys - 1 do
          Printf.fprintf oc "%d%c" (Ibuf.get t.keys i)
            (if i mod 16 = 15 || i = nkeys - 1 then '\n' else ' ')
        done;
        let ndraws = Ibuf.length t.draw_vals in
        Printf.fprintf oc "draws %d\n" ndraws;
        for i = 0 to ndraws - 1 do
          Printf.fprintf oc "%d %d\n" (Ibuf.get t.draw_bounds i)
            (Ibuf.get t.draw_vals i)
        done)

  let load path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | content -> (
        let toks =
          String.split_on_char '\n' content
          |> List.concat_map (String.split_on_char ' ')
          |> List.filter (fun s -> s <> "")
          |> Array.of_list
        in
        let pos = ref 0 in
        let exception Parse of string in
        let tok what =
          if !pos >= Array.length toks then
            raise (Parse (Printf.sprintf "truncated trace: expected %s" what));
          let t = toks.(!pos) in
          incr pos;
          t
        in
        let int what =
          let t = tok what in
          match int_of_string_opt t with
          | Some i -> i
          | None ->
              raise (Parse (Printf.sprintf "expected %s, got %S" what t))
        in
        let expect lit =
          let t = tok lit in
          if t <> lit then
            raise (Parse (Printf.sprintf "expected %S, got %S" lit t))
        in
        (* a count of entries [per] tokens long each, all still to come *)
        let count what ~per =
          let n = int what in
          let left = Array.length toks - !pos in
          if n < 0 || n > left / per then
            raise
              (Parse
                 (Printf.sprintf "%s %d out of range (%d tokens left)" what n
                    left));
          n
        in
        try
          expect "mnemosyne-sched-trace";
          let version = int "version" in
          if version <> 1 then
            raise (Parse (Printf.sprintf "unknown version %d" version));
          expect "policy";
          let policy =
            match policy_of_string (tok "policy name") with
            | Ok p -> p
            | Error e -> raise (Parse e)
          in
          expect "seed";
          let seed = int "seed" in
          let meta = ref [] in
          while !pos < Array.length toks && toks.(!pos) = "meta" do
            incr pos;
            let k = tok "meta key" in
            let v = tok "meta value" in
            meta := (k, v) :: !meta
          done;
          expect "keys";
          let nkeys = count "key count" ~per:1 in
          let keys = Array.init nkeys (fun _ -> int "key") in
          expect "draws";
          let ndraws = count "draw count" ~per:2 in
          let draw_bounds = Array.make ndraws 0 in
          let draw_vals = Array.make ndraws 0 in
          for i = 0 to ndraws - 1 do
            let bound = int "draw bound" in
            let v = int "draw value" in
            if bound <= 0 || v < 0 || v >= bound then
              raise
                (Parse
                   (Printf.sprintf "draw %d: value %d outside [0, %d)" i v
                      bound));
            draw_bounds.(i) <- bound;
            draw_vals.(i) <- v
          done;
          Ok
            {
              policy;
              seed;
              replay = true;
              rng = Random.State.make [| 0x5c4ed; seed |];
              keys = Ibuf.of_array keys;
              draw_bounds = Ibuf.of_array draw_bounds;
              draw_vals = Ibuf.of_array draw_vals;
              ki = 0;
              di = 0;
              extra = 0;
              draws_diverged = false;
              meta = !meta;
              prio = Array.make 64 (-1);
              until_change = 0;
              observer = None;
            }
        with Parse msg -> Error (Printf.sprintf "%s: %s" path msg))
end

(* The event queue, a binary min-heap over slots.  Each queued event owns
   one slot: its wake time, tiebreak key, sequence number and process
   sit in int arrays, and what it runs is either a continuation (a delay
   or a park resume) or a thunk (a spawn or a park timeout).  Events
   order by (time, key, seq): [key] is the schedule policy's same-time
   tiebreak (always 0 under Fifo), [seq] gives FIFO order among
   same-time same-key events.  The heap orders slot numbers, so a sift
   moves ints and never runs the write barrier.  [heap] holds every
   slot: its first [n] entries are the heap, the rest the free list, so
   the slot a pop frees is the next one taken.  A cancelled slot (a park
   timeout whose waiter was notified first) stays queued until it
   surfaces and is then dropped unrun. *)
module Events = struct
  type kont = (unit, unit) Effect.Deep.continuation

  (* What a slot runs. *)
  let kind_kont = 'k'
  let kind_thunk = 't'
  let kind_cancelled = 'x'

  type t = {
    mutable heap : int array;
    mutable n : int;
    mutable time : int array;
    mutable key : int array;
    mutable seq : int array;
    mutable proc : int array;
    mutable kind : Bytes.t;
    mutable konts : kont array;  (* empty until the first continuation *)
    mutable thunks : (unit -> unit) array;
  }

  let create () =
    let cap = 256 in
    {
      heap = Array.init cap Fun.id;
      n = 0;
      time = Array.make cap 0;
      key = Array.make cap 0;
      seq = Array.make cap 0;
      proc = Array.make cap 0;
      kind = Bytes.make cap kind_kont;
      konts = [||];
      thunks = Array.make cap ignore;
    }

  let grow q =
    let cap = Array.length q.heap in
    let ext a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    q.heap <- Array.init (2 * cap) (fun i -> if i < cap then q.heap.(i) else i);
    q.time <- ext q.time 0;
    q.key <- ext q.key 0;
    q.seq <- ext q.seq 0;
    q.proc <- ext q.proc 0;
    q.kind <- Bytes.extend q.kind 0 cap;
    if Array.length q.konts > 0 then q.konts <- ext q.konts q.konts.(0);
    q.thunks <- ext q.thunks ignore

  (* Slots come from [heap], so they are always in bounds. *)
  let before q a b =
    let ta = Array.unsafe_get q.time a and tb = Array.unsafe_get q.time b in
    ta < tb
    || ta = tb
       &&
       let ka = Array.unsafe_get q.key a and kb = Array.unsafe_get q.key b in
       ka < kb
       || (ka = kb && Array.unsafe_get q.seq a < Array.unsafe_get q.seq b)

  (* Place slot [s] in the hole at [i], moving parents down past it. *)
  let rec sift_up q i s =
    let p = (i - 1) / 2 in
    if i > 0 && before q s q.heap.(p) then begin
      q.heap.(i) <- q.heap.(p);
      sift_up q p s
    end
    else q.heap.(i) <- s

  (* Move the hole at [i] down to a leaf, along the earlier child, and
     answer the leaf.  Refilling a hole at the root this way and then
     sifting the new slot up from the leaf takes about half the
     comparisons of a plain sift-down, because the slot that refills it
     usually belongs near the bottom. *)
  let rec hole_to_leaf q i =
    let l = (2 * i) + 1 in
    if l >= q.n then i
    else begin
      let c =
        if l + 1 < q.n && before q q.heap.(l + 1) q.heap.(l) then l + 1 else l
      in
      q.heap.(i) <- q.heap.(c);
      hole_to_leaf q c
    end

  (* Queue an event in a free slot and answer the slot. *)
  let add q ~time ~key ~seq ~proc kind =
    if q.n = Array.length q.heap then grow q;
    let s = q.heap.(q.n) in
    q.time.(s) <- time;
    q.key.(s) <- key;
    q.seq.(s) <- seq;
    q.proc.(s) <- proc;
    Bytes.set q.kind s kind;
    sift_up q q.n s;
    q.n <- q.n + 1;
    s

  let add_kont q ~time ~key ~seq ~proc k =
    let s = add q ~time ~key ~seq ~proc kind_kont in
    if Array.length q.konts = 0 then
      q.konts <- Array.make (Array.length q.heap) k
    else q.konts.(s) <- k

  let add_thunk q ~time ~key ~seq ~proc f =
    let s = add q ~time ~key ~seq ~proc kind_thunk in
    q.thunks.(s) <- f;
    s

  let cancel q s =
    Bytes.set q.kind s kind_cancelled;
    q.thunks.(s) <- ignore

  (* The earliest event's slot; [n > 0].  It stays readable until the
     next [add]. *)
  let pop q =
    let s = q.heap.(0) in
    q.n <- q.n - 1;
    let last = q.heap.(q.n) in
    q.heap.(q.n) <- s;
    if q.n > 0 then sift_up q (hole_to_leaf q 0) last;
    s

  (* Give the earliest event a new [seq] (a fresh one, so it falls
     behind its same-time same-key peers). *)
  let reseq_top q seq =
    let s = q.heap.(0) in
    q.seq.(s) <- seq;
    sift_up q (hole_to_leaf q 0) s

  (* Would an event at [time] with tiebreak [key], whose [seq] is newer
     than every queued one, run before everything queued? *)
  let precedes_all q ~time ~key =
    q.n = 0
    ||
    let s = q.heap.(0) in
    let t = q.time.(s) in
    time < t || (time = t && key < q.key.(s))
end

type t = {
  mutable clock : int;
  mutable seq : int;
  events : Events.t;
  mutable suspended : int;  (* processes parked via [park] *)
  sched : Schedule.t;
  mutable cur_proc : int;  (* process whose event is executing;
                              -1 = outside any process (the root) *)
  mutable in_proc : bool;  (* [run] is executing [cur_proc]'s fiber, not
                              scheduler code such as a park callback *)
  mutable until : int;  (* the running [run]'s limit, else [max_int] *)
  mutable next_proc : int;
  mutable nsync : int;  (* labels for anonymous sync objects *)
  mutable race : Race_api.hooks option;
      (* Happens-before edge hooks (DESIGN.md section 18).  The
         simulator's synchronization vocabulary — spawn, park/notify
         delivery, mutex ownership, service wake tokens — is where HB
         edges come from; plain [yield]/[delay] and park timeouts
         deliberately fire nothing. *)
  (* The delay being queued, passed from [delay] to its handler. *)
  mutable due_time : int;
  mutable due_key : int;
  mutable due_seq : int;
  delay_eff : unit Effect.t;
  on_delay : (Events.kont -> unit) option;
  handler : (unit, unit) Effect.Deep.handler;
}

(* [Park] carries no simulator: the handler a process runs under knows
   which simulation it belongs to, so layers that hold only an
   environment's [delay] closure can still wait. *)
type _ Effect.t +=
  | Delay : t -> unit Effect.t
  | Park : int option * ((unit -> unit) -> unit) -> unit Effect.t

let now t = t.clock
let current_proc t = t.cur_proc
let set_race t h = t.race <- h

let sync_label t prefix =
  let n = t.nsync in
  t.nsync <- n + 1;
  Printf.sprintf "sim.%s.%d" prefix n

(* Every queued event takes the next [seq] and one tiebreak decision. *)
let next_seq t =
  let seq = t.seq in
  t.seq <- seq + 1;
  seq

let schedule_kont t ~proc time k =
  let seq = next_seq t in
  let key = Schedule.next_key t.sched ~proc in
  Events.add_kont t.events ~time ~key ~seq ~proc k

let schedule_thunk t ~proc time f =
  let seq = next_seq t in
  let key = Schedule.next_key t.sched ~proc in
  Events.add_thunk t.events ~time ~key ~seq ~proc f

let park_process t timeout register k =
  t.in_proc <- false;
  let proc = t.cur_proc in
  t.suspended <- t.suspended + 1;
  let parked = ref true in
  let unpark () =
    parked := false;
    t.suspended <- t.suspended - 1
  in
  let timer =
    match timeout with
    | None -> -1
    | Some ns ->
        schedule_thunk t ~proc (t.clock + ns) (fun () ->
            unpark ();
            Effect.Deep.continue k ())
  in
  register (fun () ->
      if !parked then begin
        unpark ();
        if timer >= 0 then Events.cancel t.events timer;
        (* Resume delivery is a direct fiber-to-fiber HB edge: the
           resumer's history happens-before everything the parked
           process does next. *)
        (match t.race with
        | Some h -> h.transfer ~src:t.cur_proc ~dst:proc
        | None -> ());
        schedule_kont t ~proc t.clock k
      end)

let create ?schedule () =
  let sched =
    match schedule with Some s -> s | None -> Schedule.fifo ()
  in
  let rec t =
    {
      clock = 0;
      seq = 0;
      events = Events.create ();
      suspended = 0;
      sched;
      cur_proc = -1;
      in_proc = false;
      until = max_int;
      next_proc = 0;
      nsync = 0;
      race = None;
      due_time = 0;
      due_key = 0;
      due_seq = 0;
      delay_eff = Delay t;
      on_delay =
        Some
          (fun k ->
            Events.add_kont t.events ~time:t.due_time ~key:t.due_key
              ~seq:t.due_seq ~proc:t.cur_proc k);
      handler =
        {
          retc = ignore;
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) :
                 ((a, unit) Effect.Deep.continuation -> unit) option ->
              match eff with
              | Delay sim -> sim.on_delay
              | Park (timeout, register) ->
                  Some (park_process t timeout register)
              | _ -> None);
        };
    }
  in
  t

(* A delay takes its [seq] and tiebreak decision up front.  If the
   running process's wake-up would be the next event [run] pops anyway
   (before every queued event, within the running [until]), the clock
   advances in place: the same event in the same order, without the two
   stack switches through the run loop.  Otherwise the process suspends
   and its continuation is queued. *)
let delay t ns =
  if ns < 0 then invalid_arg "Sim.delay: negative";
  let time = t.clock + ns in
  let seq = next_seq t in
  let key = Schedule.next_key t.sched ~proc:t.cur_proc in
  if t.in_proc && time <= t.until && Events.precedes_all t.events ~time ~key
  then t.clock <- time
  else begin
    t.due_time <- time;
    t.due_key <- key;
    t.due_seq <- seq;
    Effect.perform t.delay_eff
  end

let yield t = delay t 0

let park ?timeout register =
  (match timeout with
  | Some ns when ns < 0 -> invalid_arg "Sim.park: negative timeout"
  | _ -> ());
  Effect.perform (Park (timeout, register))

let suspend (_ : t) register = park register

let spawn t body =
  let proc = t.next_proc in
  t.next_proc <- proc + 1;
  (* Spawn seeds the child's clock with the parent's: everything the
     parent did before the spawn happens-before the child's body. *)
  (match t.race with
  | Some h -> h.fork ~parent:t.cur_proc ~child:proc
  | None -> ());
  ignore
    (schedule_thunk t ~proc t.clock (fun () ->
         Effect.Deep.match_with body () t.handler))

let rec run_events t =
  let q = t.events in
  if q.n = 0 then begin
    if t.suspended > 0 then
      raise
        (Deadlock
           (Printf.sprintf "%d process(es) suspended with no events"
              t.suspended))
  end
  else
    let s = q.heap.(0) in
    let kind = Bytes.get q.kind s in
    if kind = Events.kind_cancelled then begin
      ignore (Events.pop q);
      run_events t
    end
    else if q.time.(s) > t.until then begin
      (* Stop, leaving the event queued behind its same-time peers: the
         caller may resume later.  It keeps its tiebreak key (no
         schedule decision is spent). *)
      Events.reseq_top q (next_seq t);
      t.clock <- t.until
    end
    else begin
      ignore (Events.pop q);
      t.clock <- q.time.(s);
      t.cur_proc <- q.proc.(s);
      t.in_proc <- true;
      if kind = Events.kind_kont then Effect.Deep.continue q.konts.(s) ()
      else begin
        let f = q.thunks.(s) in
        q.thunks.(s) <- ignore;
        f ()
      end;
      run_events t
    end

let run ?until t =
  t.until <- Option.value until ~default:max_int;
  let outside () =
    t.cur_proc <- -1;
    t.in_proc <- false;
    t.until <- max_int
  in
  match run_events t with
  | () -> outside ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      outside ();
      Printexc.raise_with_backtrace e bt

module Mutex_r = struct
  type sim = t

  type t = {
    sim : sim;
    label : string;  (* race-detector sync object *)
    mutable locked : bool;
    waiters : (unit -> unit) Queue.t;
  }

  let create sim =
    {
      sim;
      label = sync_label sim "mutex";
      locked = false;
      waiters = Queue.create ();
    }

  (* HB edges: [unlock] releases the holder's clock into the mutex's
     sync clock, [lock] acquires it.  The contended handoff
     additionally rides the suspend/resume transfer edge, but the
     release/acquire pair is what orders a later uncontended lock after
     an earlier unlocker. *)
  let lock m =
    if not m.locked then m.locked <- true
    else begin
      suspend m.sim (fun resume -> Queue.push resume m.waiters)
      (* The unlocker hands us ownership directly: [locked] stays true. *)
    end;
    match m.sim.race with Some h -> h.acquire m.label | None -> ()

  let unlock m =
    if not m.locked then invalid_arg "Mutex_r.unlock: not locked";
    (match m.sim.race with Some h -> h.release m.label | None -> ());
    match Queue.take_opt m.waiters with
    | Some resume -> resume ()  (* ownership transfers; stays locked *)
    | None -> m.locked <- false

  let with_lock m f =
    lock m;
    Fun.protect ~finally:(fun () -> unlock m) f
end

(* A background daemon: a process that repeatedly performs units of
   work and parks itself when none is available, to be re-armed by
   [wake] from a producer.  This is the substrate for the pipelined
   commit's write-back drainer: modelled as first-class DES work, its
   memory traffic is charged to its own fiber, not to the transaction
   that produced it.

   The lost-wakeup race (producer wakes while the daemon is mid-round,
   daemon then parks on stale information) is closed by [wakes_pending]:
   a wake against a running daemon leaves a token the daemon consumes
   before parking. *)
module Service = struct
  type sim = t

  type t = {
    sim : sim;
    label : string;  (* race-detector sync object: the wake token *)
    work : unit -> bool;
    mutable parked : (unit -> unit) option;
    mutable wakes_pending : bool;
    mutable stopping : bool;
    mutable stopped : bool;
  }

  (* HB edges: every [wake] releases the producer's clock into the
     token's sync clock; the daemon acquires it when it consumes a
     pending token and when it unparks (the parked path additionally
     rides the resume transfer edge).  So whatever a producer
     published before [wake] happens-before the daemon round that the
     wake triggers — on both the parked and the token path. *)
  let consumed s =
    match s.sim.race with Some h -> h.acquire s.label | None -> ()

  let rec loop s =
    if s.work () then begin
      (* one unit done; yield so same-time producers interleave *)
      yield s.sim;
      loop s
    end
    else if s.stopping then s.stopped <- true
    else if s.wakes_pending then begin
      s.wakes_pending <- false;
      consumed s;
      loop s
    end
    else begin
      suspend s.sim (fun resume -> s.parked <- Some resume);
      consumed s;
      loop s
    end

  let spawn sim ~work =
    let s =
      {
        sim;
        label = sync_label sim "service";
        work;
        parked = None;
        wakes_pending = false;
        stopping = false;
        stopped = false;
      }
    in
    spawn sim (fun () -> loop s);
    s

  let wake s =
    (match s.sim.race with Some h -> h.release s.label | None -> ());
    match s.parked with
    | Some resume ->
        s.parked <- None;
        s.wakes_pending <- false;
        resume ()
    | None -> s.wakes_pending <- true

  let stop s =
    s.stopping <- true;
    wake s

  let stopped s = s.stopped
end

module Cond_r = struct
  type sim = t

  type t = { sim : sim; waiters : (unit -> unit) Queue.t }

  let create sim = { sim; waiters = Queue.create () }

  let wait c m =
    (* Release, park, re-acquire: the classic monitor protocol. *)
    Mutex_r.unlock m;
    suspend c.sim (fun resume -> Queue.push resume c.waiters);
    Mutex_r.lock m

  let broadcast c =
    let all = Queue.to_seq c.waiters |> List.of_seq in
    Queue.clear c.waiters;
    List.iter (fun resume -> resume ()) all
end

(* Open-loop arrival generators, re-exported so harness code reaches
   them as [Sim.Arrival] (the library's interface is this module). *)
module Arrival = Arrival

(* The shared commit-timestamp counter, plus per-thread leases.

   The counter is one shared cache line: bumping it costs coherence
   traffic that grows with the number of threads hammering it, modeled
   as [timestamp_ns x active threads] per shared-line transaction.
   {!next} is the legacy one-at-a-time bump (one shared transaction per
   commit); {!draw} hands out timestamps from a thread-local lease of
   [size] consecutive values, touching the shared line only on refill —
   the scalable path.

   Leased values can be issued out of global arrival order (a thread
   can commit from an old lease after a neighbour committed from a
   newer one), so callers must pass the serialization [floor] — the
   largest version or read timestamp the commit must order after.  A
   lease whose remaining values cannot exceed the floor is abandoned
   and refilled above it; disjoint leases keep every issued value
   unique, which is what recovery's replay-in-cts-order relies on. *)

type t = {
  mutable now : int;
  mutable active : int;
  mutable race : Race_api.hooks option;
      (* The counter is one shared atomic word: bumps and lease refills
         are rmw edges on "mtm.ts.now" (DESIGN.md section 18).  Leases
         themselves are thread-private and fire nothing. *)
}

type lease = { mutable next : int; mutable last : int }

let[@inline] race_rmw t label =
  match t.race with None -> () | Some hk -> hk.Race_api.rmw label

(* Commit timestamps are packed into 62 usable bits of a redo-record
   header word (the torn-bit log steals one bit, the sign another).
   Wrapping silently would reorder recovery replay; fail loud instead. *)
let max_cts = (1 lsl 62) - 1

exception Exhausted

let () =
  Printexc.register_printer (function
    | Exhausted ->
        Some
          (Printf.sprintf
             "Mtm.Timestamp.Exhausted: commit timestamp space exhausted \
              (62-bit ceiling %#x)"
             max_cts)
    | _ -> None)

(* [max_cts] is also OCaml's max_int, so arithmetic one past the
   ceiling wraps negative before a [> max_cts] comparison could see
   it; a negative candidate is the wrapped form of exhaustion. *)
let[@inline] check_ceiling n = if n > max_cts || n < 0 then raise Exhausted

let create () = { now = 0; active = 0; race = None }
let set_race t h = t.race <- h
let now t = t.now
let lease_create () = { next = 1; last = 0 } (* empty: next > last *)
let lease_remaining l = if l.last >= l.next then l.last - l.next + 1 else 0

let next t (env : Scm.Env.t) =
  env.delay (env.machine.latency.timestamp_ns * max 1 t.active);
  race_rmw t "mtm.ts.now";
  check_ceiling (t.now + 1);
  t.now <- t.now + 1;
  t.now

(* Draw one timestamp strictly above [floor].  With [size <= 1] this is
   exactly the legacy shared bump (the global counter is monotone in
   real time, so it already exceeds any floor a caller can observe).
   Otherwise serve from the lease when it still has a value above the
   floor; refill from the shared counter when it does not — the refill
   is the only step that yields (it charges the coherence cost), which
   is why commit paths re-validate after drawing. *)
let draw t (env : Scm.Env.t) (l : lease) ~size ~floor =
  if size <= 1 then next t env
  else begin
    let cand = if l.next > floor then l.next else floor + 1 in
    if cand <= l.last then begin
      l.next <- cand + 1;
      cand
    end
    else begin
      env.delay (env.machine.latency.timestamp_ns * max 1 t.active);
      (* The refill is the contended shared-word rmw — and the only
         yield in the draw path, which is why commit paths
         re-validate after drawing. *)
      race_rmw t "mtm.ts.now";
      let base = if t.now > floor then t.now else floor in
      check_ceiling (base + size);
      t.now <- base + size;
      l.next <- base + 2;
      l.last <- base + size;
      base + 1
    end
  end

(* Jump the counter forward without issuing values: recovery advances
   past the largest replayed cts in O(1).  Callers charge whatever
   simulated cost the jump models; this only moves the counter. *)
let advance_to t n =
  race_rmw t "mtm.ts.now";
  check_ceiling n;
  if n > t.now then t.now <- n

let register_thread t =
  race_rmw t "mtm.ts.active";
  t.active <- t.active + 1

let unregister_thread t =
  race_rmw t "mtm.ts.active";
  t.active <- max 0 (t.active - 1)

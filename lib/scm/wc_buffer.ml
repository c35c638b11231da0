(* Pending stores live in growable parallel arrays (insertion order,
   int64 values unboxed in a [Bytes] buffer).  A post is a tick plus
   two array writes — no tuples, queue cells, or hashtable nodes.  The
   buffer only fills between a log append and its fence and is bounded
   by one record, so the rare queries (store forwarding on a load,
   line-overlap checks on a cached store) just scan it; {!is_empty}
   gives the cached-access path a one-load fast exit when nothing is
   pending, the overwhelmingly common case. *)

type t = {
  dev : Scm_device.t;
  mutable o_addrs : int array;  (* pending stores, program order *)
  mutable o_vals : Bytes.t;  (* 8 bytes per pending store *)
  mutable o_txids : int array;  (* owning txn per pending store; 0 = none *)
  mutable n : int;
  obs : Obs.t;
  cp : Crashpoint.t;
  drain_ctr : Obs.Metrics.counter;
  mutable cur_owner : int;
      (* txn id stamped on posts, set by the access layer; attribution
         only — plain int stores, never simulated time *)
  mutable pmcheck : Pmcheck.t option;
      (* durability sanitizer, observing drained words; None (the
         default) costs one branch per drain *)
}

let create ?obs ?cp dev =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let cp = match cp with Some c -> c | None -> Crashpoint.create () in
  {
    dev;
    o_addrs = Array.make 64 0;
    o_vals = Bytes.create (64 * 8);
    o_txids = Array.make 64 0;
    n = 0;
    obs;
    cp;
    drain_ctr = Obs.Metrics.counter obs.Obs.metrics "scm.wc.drains";
    cur_owner = 0;
    pmcheck = None;
  }

let set_pmcheck t c = t.pmcheck <- c
let set_owner t txid = t.cur_owner <- txid

let[@inline] is_empty t = t.n = 0

let post t addr v =
  if not (Word.is_aligned addr) then
    invalid_arg (Printf.sprintf "Wc_buffer.post: unaligned %#x" addr);
  Crashpoint.tick t.cp Crashpoint.Wt_post;
  if t.n = Array.length t.o_addrs then begin
    let size = 2 * t.n in
    t.o_addrs <- Array.append t.o_addrs (Array.make t.n 0);
    t.o_txids <- Array.append t.o_txids (Array.make t.n 0);
    let vals = Bytes.create (size * 8) in
    Bytes.blit t.o_vals 0 vals 0 (t.n * 8);
    t.o_vals <- vals
  end;
  t.o_addrs.(t.n) <- addr;
  Bytes.set_int64_le t.o_vals (t.n * 8) v;
  t.o_txids.(t.n) <- t.cur_owner;
  t.n <- t.n + 1

(* Newest pending value wins, so scan backward from the tail. *)
let lookup t addr =
  let i = ref (t.n - 1) in
  while !i >= 0 && t.o_addrs.(!i) <> addr do
    decr i
  done;
  if !i < 0 then None else Some (Bytes.get_int64_le t.o_vals (!i * 8))

let pending_in_line t addr =
  let line = Cache.line_base addr in
  let i = ref (t.n - 1) in
  while !i >= 0 && Cache.line_base t.o_addrs.(!i) <> line do
    decr i
  done;
  !i >= 0

let pending_in_span t lo len =
  let i = ref (t.n - 1) in
  while !i >= 0 && (t.o_addrs.(!i) < lo || t.o_addrs.(!i) >= lo + len) do
    decr i
  done;
  !i >= 0

let pending_words t = t.n
let pending_bytes t = 8 * t.n
let clear t = t.n <- 0

let drain t =
  if t.n > 0 then begin
    Crashpoint.tick t.cp Crashpoint.Wc_drain;
    Obs.Metrics.incr t.drain_ctr;
    Obs.instant t.obs Obs.Trace.Wc_drain ~arg:t.n;
    (* One causal flow step per distinct owning transaction in the
       drained window (posts from one txn are contiguous), tracing
       only. *)
    if Obs.tracing t.obs then begin
      let last = ref 0 in
      for i = 0 to t.n - 1 do
        let id = t.o_txids.(i) in
        if id <> 0 && id <> !last then begin
          Obs.flow t.obs ~phase:`Step ~id;
          last := id
        end
      done
    end;
    (match t.pmcheck with
    | None ->
        for i = 0 to t.n - 1 do
          Scm_device.store64_unchecked t.dev t.o_addrs.(i)
            (Bytes.get_int64_le t.o_vals (i * 8))
        done
    | Some chk ->
        for i = 0 to t.n - 1 do
          let addr = t.o_addrs.(i) in
          Scm_device.store64_unchecked t.dev addr
            (Bytes.get_int64_le t.o_vals (i * 8));
          Pmcheck.device_reach_word chk addr
        done);
    clear t
  end

let crash_apply_subset t rng =
  let applied = ref 0 in
  (* Apply a random subset in a random order.  Later writes to the same
     address may land while earlier ones do not — the torn-write
     hazard. *)
  let pending =
    Array.init t.n (fun i -> (t.o_addrs.(i), Bytes.get_int64_le t.o_vals (i * 8)))
  in
  let n = Array.length pending in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = pending.(i) in
    pending.(i) <- pending.(j);
    pending.(j) <- tmp
  done;
  Array.iter
    (fun (addr, v) ->
      if Random.State.bool rng then begin
        Scm_device.store64 t.dev addr v;
        incr applied
      end)
    pending;
  clear t;
  !applied

let discard t = clear t

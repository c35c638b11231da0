type commit_record = {
  tid : int;
  cts : int;
  read_only : bool;
  reads : (int * int64) array;
  writes : (int * int64) array;
}

type event = Commit of commit_record | Abort of { tid : int; attempt : int }

type t = { mutable rev_events : event list }

let create () = { rev_events = [] }
let add t e = t.rev_events <- e :: t.rev_events

let events t = List.rev t.rev_events

let commits t =
  List.filter_map
    (function Commit c -> Some c | Abort _ -> None)
    (events t)

(* The serial oracle.  Writers carry unique commit timestamps (drawn
   from the global {!Timestamp} one at a time, or from disjoint
   per-thread leases — uniqueness holds either way), and recovery
   replays redo records in cts order — so cts order *is* the system's
   serialization contract.  Leased timestamps can leave the counter in
   non-arrival order, which is exactly why this check matters there:
   the lock-table reader watermarks must force every writer above the
   readers it would otherwise invalidate, and any failure of that
   protocol shows up here as a read that the cts-order replay cannot
   reproduce.  Read-only transactions never take a
   timestamp; their reads were validated against [rv], so they order
   directly after the writer whose cts equals their recorded [rv].
   Replaying the history in that order against a model memory must
   reproduce every recorded read and the final memory image; any
   divergence is a caught race. *)
let check t ~initial ~final =
  let commits = commits t in
  let indexed = List.mapi (fun i c -> (i, c)) commits in
  let ordered =
    List.stable_sort
      (fun (i, a) (j, b) ->
        match compare a.cts b.cts with
        | 0 -> (
            (* writers (read_only = false) before readers at the same
               timestamp: the reader validated against that version *)
            match compare a.read_only b.read_only with
            | 0 -> compare i j
            | c -> c)
        | c -> c)
      indexed
  in
  let violations = ref [] in
  let viol fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* cts uniqueness among writers *)
  let seen_cts = Hashtbl.create 64 in
  List.iter
    (fun (i, c) ->
      if not c.read_only then begin
        (match Hashtbl.find_opt seen_cts c.cts with
        | Some j ->
            viol "txn #%d (tid %d) and txn #%d share commit timestamp %d" i
              c.tid j c.cts
        | None -> ());
        Hashtbl.replace seen_cts c.cts i
      end)
    indexed;
  let model = Hashtbl.create 256 in
  let model_read addr =
    match Hashtbl.find_opt model addr with
    | Some v -> v
    | None -> initial addr
  in
  List.iter
    (fun (i, c) ->
      Array.iter
        (fun (addr, v) ->
          let expect = model_read addr in
          if v <> expect then
            viol
              "txn #%d (tid %d, %s %d) read [0x%x] = %Ld; the serial replay \
               in commit-timestamp order requires %Ld"
              i c.tid
              (if c.read_only then "ro, rv" else "cts")
              c.cts addr v expect)
        c.reads;
      Array.iter (fun (addr, v) -> Hashtbl.replace model addr v) c.writes)
    ordered;
  (* The final memory image must equal the serial replay of the write
     sets — the same invariant crash recovery relies on. *)
  let touched =
    List.sort_uniq compare
      (Hashtbl.fold (fun addr _ acc -> addr :: acc) model [])
  in
  List.iter
    (fun addr ->
      let want = Hashtbl.find model addr in
      let got = final addr in
      if got <> want then
        viol "final memory [0x%x] = %Ld; the serial replay gives %Ld" addr
          got want)
    touched;
  List.rev !violations

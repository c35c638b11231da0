module Pmem = Region.Pmem

type t = {
  v : Pmem.view;
  base : int;
  cap : int;
  mutable head_off : int;
  mutable head_seq : int;  (* sequence number of the record at head *)
  mutable tail_off : int;
  mutable next_seq : int;
}

let header_bytes = 64
let magic = 0xC3L

let region_bytes_for ~cap_words = header_bytes + (8 * cap_words)

let used_words t = (t.tail_off - t.head_off + t.cap) mod t.cap
let free_words t = t.cap - 1 - used_words t

let head_addr t = t.base
let cap_addr t = t.base + 8
let slot_addr t pos = t.base + header_bytes + (8 * (pos mod t.cap))

(* Head word: offset in bits 0..23, sequence in bits 24..62. *)
let pack_head ~off ~seq =
  Int64.logor (Int64.of_int off) (Int64.shift_left (Int64.of_int seq) 24)

let unpack_head w =
  (Int64.to_int (Int64.logand w 0xff_ffffL),
   Int64.to_int (Int64.shift_right_logical w 24))

let pack_hdr n = Int64.logor (Int64.shift_left magic 56) (Int64.of_int n)

let unpack_hdr w =
  if Int64.shift_right_logical w 56 <> magic then None
  else Some (Int64.to_int (Int64.logand w 0xff_ffff_ffff_ffffL))

let create v ~base ~cap_words =
  if cap_words < 4 then invalid_arg "Commit_log.create: capacity too small";
  let t =
    { v; base; cap = cap_words; head_off = 0; head_seq = 0; tail_off = 0;
      next_seq = 0 }
  in
  Pmem.wtstore v (cap_addr t) (Int64.of_int cap_words);
  Pmem.wtstore v (head_addr t) (pack_head ~off:0 ~seq:0);
  Pmem.fence v;
  t

type append_result = Appended of int | Full

let append t payload =
  let n = Array.length payload in
  if n = 0 then invalid_arg "Commit_log.append: empty record";
  let span = n + 2 in
  if span > free_words t then Full
  else begin
    Pmem.wtstore t.v (slot_addr t t.tail_off) (pack_hdr n);
    Array.iteri
      (fun i w -> Pmem.wtstore t.v (slot_addr t (t.tail_off + 1 + i)) w)
      payload;
    Pmem.fence t.v;  (* first fence: data is stable *)
    Pmem.wtstore t.v
      (slot_addr t (t.tail_off + 1 + n))
      (Int64.of_int t.next_seq);
    Pmem.fence t.v;  (* second fence: commit record is stable *)
    t.tail_off <- (t.tail_off + span) mod t.cap;
    t.next_seq <- t.next_seq + 1;
    Appended span
  end

let set_head t ~off ~seq =
  Pmem.wtstore t.v (head_addr t) (pack_head ~off ~seq);
  Pmem.fence t.v;
  t.head_off <- off;
  t.head_seq <- seq

let truncate_all t = set_head t ~off:t.tail_off ~seq:t.next_seq

let attach v ~base =
  let cap = Int64.to_int (Pmem.load v (base + 8)) in
  if cap < 4 then failwith "Commit_log.attach: no log at this address";
  let head_off, head_seq = unpack_head (Pmem.load v base) in
  let t =
    { v; base; cap; head_off; head_seq; tail_off = head_off;
      next_seq = head_seq }
  in
  let records = ref [] in
  let pos = ref head_off and seq = ref head_seq in
  let budget = ref (cap - 1) in
  let continue_scan = ref true in
  while !continue_scan do
    match unpack_hdr (Pmem.load v (slot_addr t !pos)) with
    | None -> continue_scan := false
    | Some n ->
        if n < 1 || n + 2 > !budget then continue_scan := false
        else if Pmem.load v (slot_addr t (!pos + 1 + n)) <> Int64.of_int !seq
        then continue_scan := false
        else begin
          let payload = Array.make n 0L in
          for i = 0 to n - 1 do
            payload.(i) <- Pmem.load v (slot_addr t (!pos + 1 + i))
          done;
          records := payload :: !records;
          pos := (!pos + n + 2) mod cap;
          budget := !budget - (n + 2);
          incr seq
        end
  done;
  t.tail_off <- !pos;
  t.next_seq <- !seq;
  (t, List.rev !records)

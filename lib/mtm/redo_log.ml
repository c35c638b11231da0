type record = { ts : int; writes : (int * int64) list }

let decode arr =
  if Array.length arr < 2 then None
  else
    let ts = Int64.to_int arr.(0) in
    let n = Int64.to_int arr.(1) in
    if n < 0 || Array.length arr <> 2 + (2 * n) || ts <= 0 then None
    else
      Some
        {
          ts;
          writes =
            List.init n (fun i ->
                (Int64.to_int arr.(2 + (2 * i)), arr.(3 + (2 * i))));
        }

let encoded_words ~nwrites = 2 + (2 * nwrites)

(* Allocation-free encode for the commit path: the layout [decode]
   parses, staged as raw little-endian bytes (word [i] at byte [8i]) for
   {!Pmlog.Rawl.append_bytes}: header here, each (addr, value) pair at
   bytes [8 * (2 + 2i)] / [8 * (3 + 2i)]. *)
let encode_header_bytes buf ~ts ~nwrites =
  Bytes.set_int64_le buf 0 (Int64.of_int ts);
  Bytes.set_int64_le buf 8 (Int64.of_int nwrites)

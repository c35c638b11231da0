module Pmem = Region.Pmem

let min_chunk_bytes = 64
let overhead_bytes = 16

(* Header word: size in bytes (multiple of 8, includes overhead) with
   the used flag in bit 0.  Footer word: size. *)

type t = {
  v : Pmem.view;
  alog : Alloc_log.t;
  base : int;
  len : int;
  mutable free_list : (int * int) list;  (* (chunk addr, size), addr asc *)
  mutable scanned : int;
}

let pack_hdr ~size ~used =
  Int64.logor (Int64.of_int size) (if used then 1L else 0L)

let hdr_size w = Int64.to_int (Int64.logand w (Int64.lognot 7L))
let hdr_used w = Int64.logand w 1L = 1L

let footer_addr chunk size = chunk + size - 8

let create v alog ~base ~len =
  if len < min_chunk_bytes || len land 7 <> 0 then
    invalid_arg "Large_alloc.create: length";
  Pmem.wtstore v base (pack_hdr ~size:len ~used:false);
  Pmem.wtstore v (footer_addr base len) (Int64.of_int len);
  Pmem.fence v;
  { v; alog; base; len; free_list = [ (base, len) ]; scanned = 0 }

(* The one walk of the chain: recovery's and the offline analyzer's. *)
let walk ld ~base ~len f =
  let rec go pos =
    if pos >= base + len then Ok ()
    else
      let w = ld pos in
      let size = hdr_size w in
      if size < min_chunk_bytes || pos + size > base + len then Error (pos, w)
      else (f pos ~size ~used:(hdr_used w); go (pos + size))
  in
  go base

let attach v alog ~base ~len =
  let t = { v; alog; base; len; free_list = []; scanned = 0 } in
  let free_rev = ref [] in
  let chunk pos ~size ~used =
    if not used then free_rev := (pos, size) :: !free_rev;
    t.scanned <- t.scanned + 1
  in
  if Result.is_error (walk (Pmem.load v) ~base ~len chunk) then
    failwith "Large_alloc.attach: corrupt chunk chain";
  t.free_list <- List.rev !free_rev;
  t

let owns t addr = addr >= t.base && addr < t.base + t.len

let align8 n = (n + 7) land lnot 7

let alloc t size ~extra =
  if size <= 0 then invalid_arg "Large_alloc.alloc: size";
  let need = max min_chunk_bytes (align8 size + overhead_bytes) in
  let rec pick before = function
    | [] -> failwith "Large_alloc.alloc: no chunk large enough"
    | (chunk, csize) :: rest when csize >= need ->
        let remainder = csize - need in
        let payload = chunk + 8 in
        if remainder >= min_chunk_bytes then begin
          (* Split: used chunk in front, free remainder behind. *)
          let rem_chunk = chunk + need in
          Alloc_log.commit t.alog
            ([
               (chunk, pack_hdr ~size:need ~used:true);
               (footer_addr chunk need, Int64.of_int need);
               (rem_chunk, pack_hdr ~size:remainder ~used:false);
               (footer_addr rem_chunk remainder, Int64.of_int remainder);
             ]
            @ extra payload);
          t.free_list <-
            List.rev_append before ((rem_chunk, remainder) :: rest)
        end
        else begin
          Alloc_log.commit t.alog
            ((chunk, pack_hdr ~size:csize ~used:true) :: extra payload);
          t.free_list <- List.rev_append before rest
        end;
        payload
    | entry :: rest -> pick (entry :: before) rest
  in
  pick [] t.free_list

let payload_size_of t addr =
  let chunk = addr - 8 in
  if not (owns t chunk) then invalid_arg "Large_alloc: address outside area";
  let w = Pmem.load t.v chunk in
  if not (hdr_used w) then invalid_arg "Large_alloc: chunk is not allocated";
  hdr_size w - overhead_bytes

let free t addr ~extra =
  let chunk = addr - 8 in
  if not (owns t chunk) then invalid_arg "Large_alloc: address outside area";
  let w = Pmem.load t.v chunk in
  let size = hdr_size w in
  if (not (hdr_used w)) || size < min_chunk_bytes || not (owns t (chunk + size - 8))
  then invalid_arg "Large_alloc.free: not a live chunk (double free?)";
  (* Coalesce with a free successor and/or predecessor. *)
  let merged_start = ref chunk and merged_size = ref size in
  let absorbed = ref [] in
  (if chunk + size < t.base + t.len then begin
     let next = chunk + size in
     let nw = Pmem.load t.v next in
     if not (hdr_used nw) then begin
       merged_size := !merged_size + hdr_size nw;
       absorbed := next :: !absorbed
     end
   end);
  (if chunk > t.base then begin
     let prev_size = Int64.to_int (Pmem.load t.v (chunk - 8)) in
     if prev_size >= min_chunk_bytes && chunk - prev_size >= t.base then begin
       let prev = chunk - prev_size in
       let pw = Pmem.load t.v prev in
       if (not (hdr_used pw)) && hdr_size pw = prev_size then begin
         merged_start := prev;
         merged_size := !merged_size + prev_size;
         absorbed := prev :: !absorbed
       end
     end
   end);
  Alloc_log.commit t.alog
    ([
       (!merged_start, pack_hdr ~size:!merged_size ~used:false);
       (footer_addr !merged_start !merged_size, Int64.of_int !merged_size);
     ]
    @ extra);
  let survivors =
    List.filter (fun (c, _) -> not (List.mem c !absorbed)) t.free_list
  in
  t.free_list <-
    List.sort compare ((!merged_start, !merged_size) :: survivors)

let free_bytes t = List.fold_left (fun acc (_, s) -> acc + s) 0 t.free_list
let chunks_scanned t = t.scanned

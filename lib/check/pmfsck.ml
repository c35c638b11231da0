module Pmem = Region.Pmem
module Pstatic = Region.Pstatic
module Layout = Region.Layout
module Heap = Pmheap.Heap
module Hoard = Pmheap.Hoard
module Large = Pmheap.Large_alloc
module Rawl = Pmlog.Rawl

type kind =
  | Region_table
  | Heap_chain
  | Heap_bitmap
  | Leak
  | Pstruct
  | Log_header

let kind_name = function
  | Region_table -> "region_table"
  | Heap_chain -> "heap_chain"
  | Heap_bitmap -> "heap_bitmap"
  | Leak -> "leak"
  | Pstruct -> "pstruct"
  | Log_header -> "log_header"

type finding = { kind : kind; addr : int; detail : string }

type stats = {
  regions : int;
  pstatics : int;
  superblocks : int;
  chunks : int;
  blocks : int;
  reachable : int;
  logs : int;
  log_records : int;
}

type report = { findings : finding list; stats : stats }

let ok r = r.findings = []

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let run v =
  let obs = v.Pmem.env.Scm.Env.machine.Scm.Env.obs in
  let findings = ref [] in
  let add kind addr detail =
    Obs.Metrics.incr
      (Obs.Metrics.counter obs.Obs.metrics ("pmfsck.finding." ^ kind_name kind));
    findings := { kind; addr; detail } :: !findings
  in
  let ld a = Pmem.load_nt v a in
  let ldi a = Int64.to_int (ld a) in

  (* ---------------------------------------------------------------- *)
  (* 1. Region table: the root of all metadata.                        *)
  let regions = ref [] in
  if ld Layout.region_table_base <> Pmem.rt_magic then
    add Region_table Layout.region_table_base "bad region-table magic"
  else begin
    if ldi (Layout.region_table_base + 8) <> Pmem.rt_capacity then
      add Region_table
        (Layout.region_table_base + 8)
        (Printf.sprintf "region-table capacity %d, expected %d"
           (ldi (Layout.region_table_base + 8))
           Pmem.rt_capacity);
    for i = 0 to Pmem.rt_capacity - 1 do
      let a = Pmem.entry_addr i in
      let base, len, inode, flags = Pmem.rt_read_entry ld i in
      if flags = Pmem.flag_valid then begin
        let bad = ref false in
        let err msg =
          bad := true;
          add Region_table a
            (Printf.sprintf "entry %d: %s (base=%#x len=%d)" i msg base len)
        in
        if base < Layout.dynamic_base || base mod Layout.page_size <> 0 then
          err "base is not a page in the dynamic area";
        if len <= 0 || len mod Layout.page_size <> 0 then
          err "length is not a positive page multiple";
        if base + len > Layout.persistent_base + Layout.persistent_size then
          err "extent runs past the persistent range";
        if inode <= 0 then err "no backing inode";
        if not !bad then regions := (base, len, i) :: !regions
      end
      else if flags = Pmem.flag_intent then
        add Region_table a
          (Printf.sprintf "entry %d: unresolved pmap intent survived recovery"
             i)
      else if flags <> 0L then
        add Region_table a
          (Printf.sprintf "entry %d: invalid flags %Ld" i flags)
    done
  end;
  let regions = List.sort compare !regions in
  let rec overlap_scan = function
    | (b1, l1, i1) :: ((b2, _, i2) :: _ as rest) ->
        if b1 + l1 > b2 then
          add Region_table (Pmem.entry_addr i2)
            (Printf.sprintf
               "entries %d and %d: extents overlap (%#x+%d vs %#x)" i1 i2 b1
               l1 b2);
        overlap_scan rest
    | _ -> ()
  in
  overlap_scan regions;
  let region_of a =
    List.find_opt (fun (b, l, _) -> a >= b && a < b + l) regions
  in

  (* ---------------------------------------------------------------- *)
  (* 2. The pstatic directory: the persistent roots.                   *)
  let pstatics = ref [] in
  Pstatic.iter v (fun { entry_addr; name; addr; len } ->
      let name =
        match name with
        | Ok name -> name
        | Error n ->
            add Region_table entry_addr
              (Printf.sprintf "pstatic entry: name length %d outside [0, %d]"
                 n Pstatic.max_name_length);
            ""
      in
      let data_base = Layout.pstatic_base in
      let data_limit = Layout.pstatic_base + Layout.pstatic_size in
      if len <= 0 || addr < data_base || addr + len > data_limit then
        add Region_table addr
          (Printf.sprintf
             "pstatic entry %S: data extent %#x+%d outside the static area"
             name addr len)
      else if addr land 7 <> 0 then
        add Region_table addr
          (Printf.sprintf "pstatic entry %S: data address %#x is unaligned"
             name addr)
      else pstatics := (name, addr, len) :: !pstatics);
  let pstatics = List.rev !pstatics in
  let slot_of name =
    List.find_map
      (fun (n, a, l) -> if n = name && l = 8 then Some a else None)
      pstatics
  in

  (* ---------------------------------------------------------------- *)
  (* 3. Heap metadata: superblock headers/bitmaps, large-chunk chain.  *)
  let extents = ref [] in
  let n_sb = ref 0 and n_chunks = ref 0 in
  let heap_base =
    match slot_of "mnemosyne.heap" with
    | None -> 0
    | Some slot -> ldi slot
  in
  let heap_readable = heap_base land 7 = 0 && region_of heap_base <> None in
  (if heap_base <> 0 then
     if not heap_readable then
       add Heap_bitmap heap_base
         "heap base is not an aligned address in a region"
     else if ld heap_base <> Heap.magic then
       add Heap_bitmap heap_base "heap header magic missing"
     else begin
       let sbs = ldi (Heap.sb_count_addr heap_base) in
       let large_len = ldi (Heap.large_len_addr heap_base) in
       let fits =
         sbs >= 1 && large_len >= 0
         &&
         match region_of heap_base with
         | None -> false
         | Some (rb, rl, _) ->
             heap_base
             + Heap.region_bytes_for ~superblocks:sbs ~large_bytes:large_len
             <= rb + rl
       in
       if not fits then
         add Heap_bitmap
           (Heap.sb_count_addr heap_base)
           (Printf.sprintf
              "implausible heap geometry: %d superblocks, %d large bytes" sbs
              large_len)
       else begin
         n_sb := sbs;
         let sb_area = Heap.sb_area_base heap_base in
         for sb = 0 to sbs - 1 do
           let sbb = sb_area + (sb * Hoard.superblock_bytes) in
           let header = ld sbb in
           match Hoard.unpack_header header with
           | Some bsize ->
               let nblocks = Hoard.blocks_per bsize in
               for w = 0 to Hoard.bitmap_words - 1 do
                 let word = ld (sbb + 8 + (8 * w)) in
                 if word <> 0L then
                   for b = 0 to 63 do
                     if Scm.Word.bit word b then begin
                       let idx = (w * 64) + b in
                       if idx >= nblocks then
                         add Heap_bitmap
                           (sbb + 8 + (8 * w))
                           (Printf.sprintf
                              "superblock %d: allocation bit %d beyond the \
                               %d blocks of class %d"
                              sb idx nblocks bsize)
                       else
                         extents :=
                           (sbb + Hoard.header_bytes + (idx * bsize), bsize)
                           :: !extents
                     end
                   done
               done
           | None ->
               if header <> 0L then
                 add Heap_bitmap sbb
                   (Printf.sprintf "superblock %d: invalid header %#Lx" sb
                      header);
               for w = 0 to Hoard.bitmap_words - 1 do
                 if ld (sbb + 8 + (8 * w)) <> 0L then
                   add Heap_bitmap
                     (sbb + 8 + (8 * w))
                     (Printf.sprintf
                        "superblock %d: allocation bits in an unassigned \
                         superblock"
                        sb)
               done
         done;
         (* The large area: recovery's walk of the boundary-tag chain,
            with each footer checked against its header. *)
         let chunk pos ~size ~used =
           incr n_chunks;
           let fa = Large.footer_addr pos size in
           let footer = ld fa in
           if footer <> Int64.of_int size then
             add Heap_chain fa
               (Printf.sprintf
                  "chunk at %#x: footer %Ld contradicts header size %d" pos
                  footer size);
           if used then
             extents := (pos + 8, size - Large.overhead_bytes) :: !extents
         in
         let lbase = sb_area + (sbs * Hoard.superblock_bytes) in
         match Large.walk ld ~base:lbase ~len:large_len chunk with
         | Ok () -> ()
         | Error (pos, w) ->
             add Heap_chain pos
               (Printf.sprintf
                  "chunk chain broken at %#x: header %#Lx gives size %d" pos w
                  (Large.hdr_size w))
       end
     end);

  (* ---------------------------------------------------------------- *)
  (* 4. Conservative mark-sweep from the pstatic roots.                *)
  let exts = Array.of_list (List.sort compare !extents) in
  let nx = Array.length exts in
  let marks = Array.make (max 1 nx) false in
  let find_ext a =
    let lo = ref 0 and hi = ref (nx - 1) and res = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let s, _ = exts.(mid) in
      if s <= a then begin
        res := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    if !res < 0 then None
    else
      let s, l = exts.(!res) in
      if a >= s && a < s + l then Some !res else None
  in
  let work = Stack.create () in
  let mark a =
    if Layout.is_persistent a then
      match find_ext a with
      | Some i when not marks.(i) ->
          marks.(i) <- true;
          Stack.push i work
      | _ -> ()
  in
  let scan_words base len =
    let a = ref base in
    while !a < base + len do
      mark (ldi !a);
      a := !a + 8
    done
  in
  List.iter (fun (_, addr, len) -> scan_words addr len) pstatics;
  while not (Stack.is_empty work) do
    let i = Stack.pop work in
    let s, l = exts.(i) in
    scan_words s l
  done;
  let reachable = ref 0 in
  for i = 0 to nx - 1 do
    if marks.(i) then incr reachable
    else
      let s, l = exts.(i) in
      add Leak s
        (Printf.sprintf
           "allocated block of %d bytes unreachable from any persistent root"
           l)
  done;

  (* ---------------------------------------------------------------- *)
  (* 5. Per-structure invariants for structures rooted in pstatics.    *)
  let read_bytes_nt addr len =
    let a = addr land lnot 7 in
    let buf = Bytes.create ((addr + len - a + 7) land lnot 7) in
    Pmem.load_nt_into v a buf 0 (Bytes.length buf);
    Bytes.sub buf (addr - a) len
  in
  let check_htable root hdr =
    let module H = Pstruct.Phashtable in
    let buckets = Int64.to_int (Int64.logand hdr 0xff_ffffL) in
    if buckets < 1 || buckets land (buckets - 1) <> 0 then
      add Pstruct root
        (Printf.sprintf "hash table: bucket count %d is not a power of two"
           buckets)
    else
      let arr = ldi (root + 8) in
      if arr land 7 <> 0 then
        add Pstruct (root + 8) "hash table: bucket array address unaligned"
      else
      match find_ext arr with
      | None ->
          add Pstruct (root + 8)
            "hash table: bucket array outside any allocated block"
      | Some ai ->
          let s, l = exts.(ai) in
          if arr + (buckets * 8) > s + l then
            add Pstruct (root + 8)
              (Printf.sprintf
                 "hash table: %d-bucket array overruns its %d-byte block"
                 buckets l)
          else
            for b = 0 to buckets - 1 do
              let steps = ref 0 in
              let node = ref (ldi (arr + (8 * b))) in
              let walking = ref true in
              while !walking && !node <> 0 do
                incr steps;
                if !steps > nx + 1 then begin
                  add Pstruct
                    (arr + (8 * b))
                    (Printf.sprintf
                       "hash table bucket %d: chain does not terminate" b);
                  walking := false
                end
                else if !node land 7 <> 0 then begin
                  add Pstruct !node
                    (Printf.sprintf
                       "hash table bucket %d: chain node address unaligned" b);
                  walking := false
                end
                else
                  match find_ext !node with
                  | None ->
                      add Pstruct !node
                        (Printf.sprintf
                           "hash table bucket %d: chain node outside any \
                            allocated block"
                           b);
                      walking := false
                  | Some ni ->
                      let ns, nl = exts.(ni) in
                      let klen, vlen = H.unpack_lens (ld (!node + 16)) in
                      if !node + H.node_bytes ~klen ~vlen > ns + nl then begin
                        add Pstruct !node
                          (Printf.sprintf
                             "hash table bucket %d: node lengths (%d, %d) \
                              overrun the block"
                             b klen vlen);
                        walking := false
                      end
                      else begin
                        let key = read_bytes_nt (H.key_addr !node) klen in
                        let h = H.hash_bytes key in
                        if ld (!node + 8) <> h then
                          add Pstruct !node
                            (Printf.sprintf
                               "hash table bucket %d: stored key hash does \
                                not match the key"
                               b)
                        else if Int64.to_int h land (buckets - 1) <> b then
                          add Pstruct !node
                            (Printf.sprintf
                               "hash table: node chained under bucket %d but \
                                its key hashes to bucket %d"
                               b
                               (Int64.to_int h land (buckets - 1)));
                        node := ldi !node
                      end
              done
            done
  in
  let check_bptree root =
    let module B = Pstruct.Bp_tree in
    let leaf_depth = ref (-1) in
    let nodes_seen = ref 0 in
    let total_keys = ref 0 in
    let rec walk node depth =
      incr nodes_seen;
      if !nodes_seen > nx + 1 then
        add Pstruct node "B+ tree: node graph does not terminate"
      else if node land 7 <> 0 then
        add Pstruct node "B+ tree: node address unaligned"
      else
        match find_ext node with
        | None ->
            add Pstruct node "B+ tree: node outside any allocated block"
        | Some ni ->
            let ns, nl = exts.(ni) in
            if node + B.node_bytes > ns + nl then
              add Pstruct node "B+ tree: node overruns its block"
            else
              let kind = ld (B.f_kind node) in
              let nk = ldi (B.f_nkeys node) in
              if kind <> 0L && kind <> 1L then
                add Pstruct node
                  (Printf.sprintf "B+ tree: invalid node kind %Ld" kind)
              else if nk < 0 || nk > B.max_keys then
                add Pstruct node
                  (Printf.sprintf "B+ tree: key count %d out of range" nk)
              else if kind = 1L then begin
                total_keys := !total_keys + nk;
                for i = 1 to nk - 1 do
                  if ld (B.leaf_key node (i - 1)) >= ld (B.leaf_key node i)
                  then
                    add Pstruct (B.leaf_key node i)
                      "B+ tree: leaf keys out of order"
                done;
                if !leaf_depth = -1 then leaf_depth := depth
                else if depth <> !leaf_depth then
                  add Pstruct node "B+ tree: leaves at unequal depth"
              end
              else if nk < 1 then
                add Pstruct node "B+ tree: internal node with no keys"
              else begin
                for i = 1 to nk - 1 do
                  if ld (B.int_key node (i - 1)) >= ld (B.int_key node i) then
                    add Pstruct (B.int_key node i)
                      "B+ tree: separator keys out of order"
                done;
                for i = 0 to nk do
                  walk (ldi (B.int_child node i)) (depth + 1)
                done
              end
    in
    walk (ldi (root + 16)) 0;
    let count = ldi (root + 8) in
    if count <> !total_keys then
      add Pstruct (root + 8)
        (Printf.sprintf
           "B+ tree: header count %d does not match %d keys in leaves" count
           !total_keys)
  in
  List.iter
    (fun (_, addr, len) ->
      if len = 8 then
        let p = ldi addr in
        (* a root is an allocated block: an unaligned word is not one *)
        if p land 7 = 0 && find_ext p <> None then
          let hdr = ld p in
          if Int64.shift_right_logical hdr 56 = Pstruct.Phashtable.magic then
            check_htable p hdr
          else if hdr = Pstruct.Bp_tree.magic then check_bptree p)
    pstatics;

  (* ---------------------------------------------------------------- *)
  (* 6. RAWL log headers and record-suffix plausibility.               *)
  let n_logs = ref 0 and n_records = ref 0 in
  let check_log name base region_bytes =
    incr n_logs;
    let off, parity, tpos = Rawl.unpack_head (ld base) in
    let cap, _rotate = Rawl.unpack_cap (ld (base + 8)) in
    if cap < 4 then
      add Log_header (base + 8)
        (Printf.sprintf "log %s: implausible capacity %d" name cap)
    else if Rawl.region_bytes_for ~cap_words:cap > region_bytes then
      add Log_header (base + 8)
        (Printf.sprintf
           "log %s: capacity %d words overruns its %d-byte region" name cap
           region_bytes)
    else if off < 0 || off >= cap then
      add Log_header base
        (Printf.sprintf "log %s: head offset %d outside the %d-word buffer"
           name off cap)
    else
      (* Recovery's own scan, read-only.  Whatever stops it is a legal
         torn tail, not a finding. *)
      let records, _tail = Rawl.scan ld ~base ~cap ~off ~parity ~tpos in
      n_records := !n_records + List.length records
  in
  (if heap_readable && ld heap_base = Heap.magic then
     check_log "heap.alloc" (Heap.alog_base heap_base) Heap.alog_bytes);
  List.iter
    (fun (name, addr, len) ->
      if
        len = 8
        && (has_prefix ~prefix:"mtm.log." name
           || has_prefix ~prefix:"mnemosyne.log." name)
      then
        let base = ldi addr in
        if base <> 0 then
          match region_of base with
          | Some _ when base land 7 <> 0 ->
              add Log_header addr
                (Printf.sprintf "log %s: base %#x is unaligned" name base)
          | Some (rb, rl, _) -> check_log name base (rb + rl - base)
          | None ->
              add Log_header addr
                (Printf.sprintf "log %s: base %#x is not in any region" name
                   base))
    pstatics;

  {
    findings = List.rev !findings;
    stats =
      {
        regions = List.length regions;
        pstatics = List.length pstatics;
        superblocks = !n_sb;
        chunks = !n_chunks;
        blocks = nx;
        reachable = !reachable;
        logs = !n_logs;
        log_records = !n_records;
      };
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let render r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "pmfsck: %d finding(s); %d region(s), %d pstatic(s), %d \
        superblock(s), %d chunk(s), %d block(s) (%d reachable), %d log(s) \
        (%d records)\n"
       (List.length r.findings)
       r.stats.regions r.stats.pstatics r.stats.superblocks r.stats.chunks
       r.stats.blocks r.stats.reachable r.stats.logs r.stats.log_records);
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "  [%s] addr=%#x: %s\n" (kind_name f.kind) f.addr
           f.detail))
    r.findings;
  Buffer.contents b

let to_json r =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"kind\":\"%s\",\"addr\":%d,\"detail\":%s}"
           (kind_name f.kind) f.addr (Obs.Json.string f.detail)))
    r.findings;
  Buffer.add_string b
    (Printf.sprintf
       "],\"stats\":{\"regions\":%d,\"pstatics\":%d,\"superblocks\":%d,\
        \"chunks\":%d,\"blocks\":%d,\"reachable\":%d,\"logs\":%d,\
        \"log_records\":%d}}"
       r.stats.regions r.stats.pstatics r.stats.superblocks r.stats.chunks
       r.stats.blocks r.stats.reachable r.stats.logs r.stats.log_records);
  Buffer.contents b

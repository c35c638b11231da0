let frame_bits = 12
let frame_size = 1 lsl frame_bits
let frame_mask = frame_size - 1

(* A frame's bytes and its wear counter.  Every never-written slot of
   every device holds [zero], which is never written: a device costs
   its slot array plus the frames it has written, and a frame's first
   write ({!writable}) gives its slot a record of its own. *)
type frame = { bytes : Bytes.t; mutable wear : int }

let zero = { bytes = Bytes.make frame_size '\000'; wear = 0 }

type t = {
  frames : frame array;
  mutable total_writes : int;
  (* Undo journal (crash-point exploration): when enabled, every
     mutation records the span's old contents before overwriting, so
     rolling the device back to a mark costs O(bytes written since),
     not O(arena).  Entry [i] is [j_addrs.(i), j_lens.(i)] with its old
     bytes at [j_offs.(i)] in [j_bytes]; the write it undoes bumped the
     wear counter of [j_addrs.(i)]'s frame. *)
  mutable j_on : bool;
  mutable j_addrs : int array;
  mutable j_lens : int array;
  mutable j_offs : int array;
  mutable j_n : int;
  mutable j_bytes : Bytes.t;
  mutable j_blen : int;
}

type mark = { m_n : int; m_blen : int }

(* A device over [frames] whose undo journal starts fresh and disabled. *)
let of_frames frames total_writes =
  {
    frames;
    total_writes;
    j_on = false;
    j_addrs = [||];
    j_lens = [||];
    j_offs = [||];
    j_n = 0;
    j_bytes = Bytes.empty;
    j_blen = 0;
  }

let create ~nframes () =
  if nframes <= 0 then invalid_arg "Scm_device.create: nframes";
  of_frames (Array.make nframes zero) 0

let nframes t = Array.length t.frames

let check t addr len =
  if addr < 0 || addr + len > nframes t * frame_size then
    invalid_arg
      (Printf.sprintf "Scm_device: address %#x+%d out of range" addr len)

let check_buf buf off len =
  if len < 0 || off < 0 || off > Bytes.length buf - len then
    invalid_arg "Scm_device: buffer range"

(* [asr], not a division: a negative address must fail the slot array's
   bounds check rather than land in frame 0. *)
let[@inline] frame_of addr = addr asr frame_bits

(* The frame at slot [f], given its own buffer on its first write. *)
let[@inline] writable t f =
  let fr = t.frames.(f) in
  if fr != zero then fr
  else begin
    let fr = { bytes = Bytes.make frame_size '\000'; wear = 0 } in
    t.frames.(f) <- fr;
    fr
  end

(* Copy [len] > 0 device bytes at [addr] to [dst] at [doff], or the
   reverse from [src] at [soff] into the device, one frame at a time;
   a span inside one frame (a cache line, a whole frame) is one blit. *)
let rec blit_out t addr dst doff len =
  let o = addr land frame_mask in
  let n = frame_size - o in
  let fr = t.frames.(frame_of addr) in
  if len <= n then Bytes.blit fr.bytes o dst doff len
  else begin
    Bytes.blit fr.bytes o dst doff n;
    blit_out t (addr + n) dst (doff + n) (len - n)
  end

let rec blit_in t src soff addr len =
  let o = addr land frame_mask in
  let n = frame_size - o in
  let fr = writable t (frame_of addr) in
  if len <= n then Bytes.blit src soff fr.bytes o len
  else begin
    Bytes.blit src soff fr.bytes o n;
    blit_in t src (soff + n) (addr + n) (len - n)
  end

let[@inline] bump t fr =
  fr.wear <- fr.wear + 1;
  t.total_writes <- t.total_writes + 1

let j_grow_entries t =
  let cap = max 1024 (2 * Array.length t.j_addrs) in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.j_addrs <- extend t.j_addrs;
  t.j_lens <- extend t.j_lens;
  t.j_offs <- extend t.j_offs

let j_grow_bytes t need =
  let cap = ref (max 65536 (2 * Bytes.length t.j_bytes)) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit t.j_bytes 0 b 0 t.j_blen;
  t.j_bytes <- b

(* Capture [len] bytes at [addr], about to be overwritten. *)
let j_record t addr len =
  if t.j_n >= Array.length t.j_addrs then j_grow_entries t;
  if t.j_blen + len > Bytes.length t.j_bytes then j_grow_bytes t (t.j_blen + len);
  t.j_addrs.(t.j_n) <- addr;
  t.j_lens.(t.j_n) <- len;
  t.j_offs.(t.j_n) <- t.j_blen;
  blit_out t addr t.j_bytes t.j_blen len;
  t.j_n <- t.j_n + 1;
  t.j_blen <- t.j_blen + len

let journal_start t =
  t.j_on <- true;
  t.j_n <- 0;
  t.j_blen <- 0

let journal_mark t = { m_n = t.j_n; m_blen = t.j_blen }

let journal_undo_to t mark =
  for i = t.j_n - 1 downto mark.m_n do
    blit_in t t.j_bytes t.j_offs.(i) t.j_addrs.(i) t.j_lens.(i);
    let fr = writable t (frame_of t.j_addrs.(i)) in
    fr.wear <- fr.wear - 1;
    t.total_writes <- t.total_writes - 1
  done;
  t.j_n <- mark.m_n;
  t.j_blen <- mark.m_blen

let load64 t addr =
  check t addr 8;
  if not (Word.is_aligned addr) then
    invalid_arg (Printf.sprintf "Scm_device.load64: unaligned %#x" addr);
  Word.get t.frames.(frame_of addr).bytes (addr land frame_mask)

(* For drain loops over addresses already validated at post time (the
   write-combining buffer checks alignment and range on entry). *)
let[@inline] store64_unchecked t addr v =
  if t.j_on then j_record t addr 8;
  let fr = writable t (frame_of addr) in
  Word.set fr.bytes (addr land frame_mask) v;
  bump t fr

let store64 t addr v =
  check t addr 8;
  if not (Word.is_aligned addr) then
    invalid_arg (Printf.sprintf "Scm_device.store64: unaligned %#x" addr);
  store64_unchecked t addr v

let read_into t addr buf off len =
  check t addr len;
  check_buf buf off len;
  if len > 0 then blit_out t addr buf off len

let write_from t addr buf off len =
  check t addr len;
  check_buf buf off len;
  if len > 0 then begin
    if t.j_on then j_record t addr len;
    blit_in t buf off addr len;
    bump t t.frames.(frame_of addr)
  end

let write_count t frame = t.frames.(frame).wear
let total_writes t = t.total_writes

let magic = "MNEMSCM1"

(* The magic, then the frame size and [nframes] as 4-byte words. *)
let header_bytes = String.length magic + 8

(* A never-written frame is a hole in the file, which reads back as
   zeros.  Frames go out in ascending order and the last one is always
   written, so the file reaches its full length only when the save
   completes: a save cut short leaves a file {!load_image} rejects. *)
let save_image t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      output_binary_int oc frame_size;
      output_binary_int oc (nframes t);
      let last = nframes t - 1 in
      Array.iteri
        (fun f fr ->
          if fr != zero || f = last then begin
            let pos = header_bytes + (f * frame_size) in
            if pos_out oc <> pos then seek_out oc pos;
            output_bytes oc fr.bytes
          end)
        t.frames)

let load_image path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let m = really_input_string ic (String.length magic) in
      if m <> magic then failwith "Scm_device.load_image: bad magic";
      let fs = input_binary_int ic in
      if fs <> frame_size then
        failwith
          (Printf.sprintf "Scm_device.load_image: frame size %d, not %d" fs
             frame_size);
      let nframes = input_binary_int ic in
      let bytes = in_channel_length ic - pos_in ic in
      if nframes <= 0 || bytes <> nframes * frame_size then
        failwith "Scm_device.load_image: length does not match nframes";
      let t = create ~nframes () in
      let buf = ref (Bytes.create frame_size) in
      for f = 0 to nframes - 1 do
        really_input ic !buf 0 frame_size;
        if not (Bytes.equal !buf zero.bytes) then begin
          t.frames.(f) <- { bytes = !buf; wear = 0 };
          buf := Bytes.create frame_size
        end
      done;
      t)

(* The journal is roll-back scaffolding for the source device; a copy
   starts with a fresh, disabled one. *)
let copy t =
  of_frames
    (Array.map
       (fun fr ->
         if fr == zero then zero
         else { bytes = Bytes.copy fr.bytes; wear = fr.wear })
       t.frames)
    t.total_writes

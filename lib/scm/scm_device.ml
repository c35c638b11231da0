let frame_size = 4096

type t = {
  arena : Bytes.t;
  nframes : int;
  writes : int array;  (* per-frame wear counters *)
  mutable total_writes : int;
  (* Undo journal (crash-point exploration): when enabled, every
     mutation records the span's old contents (and which frame's wear
     counter it bumped) before overwriting, so rolling the device back
     to a mark costs O(bytes written since), not O(arena).  Entry [i]
     is [j_addrs.(i), j_lens.(i)] with its old bytes at [j_offs.(i)]
     in [j_bytes]; [j_frames.(i)] is the bumped frame or -1. *)
  mutable j_on : bool;
  mutable j_addrs : int array;
  mutable j_lens : int array;
  mutable j_offs : int array;
  mutable j_frames : int array;
  mutable j_n : int;
  mutable j_bytes : Bytes.t;
  mutable j_blen : int;
}

type mark = { m_n : int; m_blen : int }

let create ~nframes () =
  if nframes <= 0 then invalid_arg "Scm_device.create: nframes";
  {
    arena = Bytes.make (nframes * frame_size) '\000';
    nframes;
    writes = Array.make nframes 0;
    total_writes = 0;
    j_on = false;
    j_addrs = [||];
    j_lens = [||];
    j_offs = [||];
    j_frames = [||];
    j_n = 0;
    j_bytes = Bytes.empty;
    j_blen = 0;
  }

let nframes t = t.nframes

let check t addr len =
  if addr < 0 || addr + len > Bytes.length t.arena then
    invalid_arg
      (Printf.sprintf "Scm_device: address %#x+%d out of range" addr len)

let[@inline] frame_of addr = addr / frame_size

let[@inline] bump t addr =
  let f = frame_of addr in
  t.writes.(f) <- t.writes.(f) + 1;
  t.total_writes <- t.total_writes + 1

let j_grow_entries t =
  let cap = max 1024 (2 * Array.length t.j_addrs) in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.j_addrs <- extend t.j_addrs;
  t.j_lens <- extend t.j_lens;
  t.j_offs <- extend t.j_offs;
  t.j_frames <- extend t.j_frames

let j_grow_bytes t need =
  let cap = ref (max 65536 (2 * Bytes.length t.j_bytes)) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit t.j_bytes 0 b 0 t.j_blen;
  t.j_bytes <- b

(* Capture [len] bytes at [addr] (about to be overwritten) plus which
   frame's wear counter the write will bump, or -1 for none. *)
let j_record t addr len frame =
  if t.j_n >= Array.length t.j_addrs then j_grow_entries t;
  if t.j_blen + len > Bytes.length t.j_bytes then j_grow_bytes t (t.j_blen + len);
  t.j_addrs.(t.j_n) <- addr;
  t.j_lens.(t.j_n) <- len;
  t.j_offs.(t.j_n) <- t.j_blen;
  t.j_frames.(t.j_n) <- frame;
  Bytes.blit t.arena addr t.j_bytes t.j_blen len;
  t.j_n <- t.j_n + 1;
  t.j_blen <- t.j_blen + len

let journal_start t =
  t.j_on <- true;
  t.j_n <- 0;
  t.j_blen <- 0

let journal_mark t = { m_n = t.j_n; m_blen = t.j_blen }

let journal_undo_to t mark =
  for i = t.j_n - 1 downto mark.m_n do
    Bytes.blit t.j_bytes t.j_offs.(i) t.arena t.j_addrs.(i) t.j_lens.(i);
    let f = t.j_frames.(i) in
    if f >= 0 then begin
      t.writes.(f) <- t.writes.(f) - 1;
      t.total_writes <- t.total_writes - 1
    end
  done;
  t.j_n <- mark.m_n;
  t.j_blen <- mark.m_blen

let load64 t addr =
  check t addr 8;
  if not (Word.is_aligned addr) then
    invalid_arg (Printf.sprintf "Scm_device.load64: unaligned %#x" addr);
  Word.get t.arena addr

let store64 t addr v =
  check t addr 8;
  if not (Word.is_aligned addr) then
    invalid_arg (Printf.sprintf "Scm_device.store64: unaligned %#x" addr);
  if t.j_on then j_record t addr 8 (frame_of addr);
  Word.set t.arena addr v;
  bump t addr

(* For drain loops over addresses already validated at post time (the
   write-combining buffer checks alignment and range on entry). *)
let[@inline] store64_unchecked t addr v =
  if t.j_on then j_record t addr 8 (frame_of addr);
  Word.set t.arena addr v;
  bump t addr

let read_into t addr buf off len =
  check t addr len;
  Bytes.blit t.arena addr buf off len

let write_from t addr buf off len =
  check t addr len;
  if len > 0 then begin
    if t.j_on then j_record t addr len (frame_of addr);
    Bytes.blit buf off t.arena addr len;
    bump t addr
  end

let write_count t frame = t.writes.(frame)
let total_writes t = t.total_writes

let magic = "MNEMSCM1"

let save_image t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      output_binary_int oc frame_size;
      output_binary_int oc t.nframes;
      output_bytes oc t.arena)

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
      really_input ic t.arena 0 (Bytes.length t.arena);
      t)

let copy t =
  {
    arena = Bytes.copy t.arena;
    nframes = t.nframes;
    writes = Array.copy t.writes;
    total_writes = t.total_writes;
    (* The journal is roll-back scaffolding for the source device; a
       copy starts with a fresh, disabled one. *)
    j_on = false;
    j_addrs = [||];
    j_lens = [||];
    j_offs = [||];
    j_frames = [||];
    j_n = 0;
    j_bytes = Bytes.empty;
    j_blen = 0;
  }

let capacity = 128
let max_name_length = 32

let magic = 0x4D4E4553_54415431L
let header_bytes = 64
let entry_bytes = 64
let dir_base = Layout.pstatic_base + header_bytes
let data_base = dir_base + (capacity * entry_bytes)
let data_limit = Layout.pstatic_base + Layout.pstatic_size

let bump_addr = Layout.pstatic_base + 8
let entry_addr i = dir_base + (i * entry_bytes)

let hash_name name =
  (* FNV-1a, 64-bit *)
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    name;
  !h

let ensure_init v =
  if Pmem.load v Layout.pstatic_base <> magic then begin
    Pmem.wtstore v bump_addr (Int64.of_int data_base);
    Pmem.wtstore v Layout.pstatic_base magic;
    Pmem.fence v
  end

let read_name v i len =
  let buf = Bytes.create len in
  Pmem.load_bytes v (entry_addr i + 16) buf 0 len;
  Bytes.to_string buf

let lookup v name =
  ensure_init v;
  let h = hash_name name in
  let rec go i =
    if i >= capacity then None
    else
      let a = entry_addr i in
      if
        Pmem.load v (a + 48) <> 0L
        && Pmem.load v a = h
        && Int64.to_int (Pmem.load v (a + 8)) = String.length name
        && read_name v i (String.length name) = name
      then Some (Int64.to_int (Pmem.load v (a + 48)),
                 Int64.to_int (Pmem.load v (a + 56)))
      else go (i + 1)
  in
  go 0

let find_free_slot v =
  let rec go i =
    if i >= capacity then failwith "Pstatic: directory full"
    else if Pmem.load v (entry_addr i + 48) = 0L then i
    else go (i + 1)
  in
  go 0

let get v name len =
  if String.length name > max_name_length then
    invalid_arg "Pstatic.get: name too long";
  if len <= 0 then invalid_arg "Pstatic.get: length";
  match lookup v name with
  | Some (addr, len') ->
      if len' <> len then
        invalid_arg
          (Printf.sprintf "Pstatic.get: %S exists with length %d, not %d" name
             len' len);
      addr
  | None ->
      ensure_init v;
      let len_aligned = Scm.Word.align_up len in
      let addr = Int64.to_int (Pmem.load v bump_addr) in
      if addr + len_aligned > data_limit then
        failwith "Pstatic: data area full";
      (* Bump first, then the entry, address word last: a crash at any
         point leaves either a leaked hole or an invalid entry, never a
         torn variable. *)
      Pmem.wtstore v bump_addr (Int64.of_int (addr + len_aligned));
      Pmem.fence v;
      (* Fresh regions are zero-filled, but this slot may be reused
         space; zero it explicitly, durably. *)
      let a = ref addr in
      while !a < addr + len_aligned do
        Pmem.wtstore v !a 0L;
        a := !a + 8
      done;
      let slot = find_free_slot v in
      let ea = entry_addr slot in
      Pmem.wtstore v ea (hash_name name);
      Pmem.wtstore v (ea + 8) (Int64.of_int (String.length name));
      let name_buf = Bytes.make max_name_length '\000' in
      Bytes.blit_string name 0 name_buf 0 (String.length name);
      Pmem.wtstore_bytes v (ea + 16) name_buf 0 max_name_length;
      Pmem.wtstore v (ea + 56) (Int64.of_int len);
      Pmem.fence v;
      Pmem.wtstore v (ea + 48) (Int64.of_int addr);
      Pmem.fence v;
      addr

type entry = {
  entry_addr : int;
  name : (string, int) result;
  addr : int;
  len : int;
}

(* The one enumeration, over the non-faulting load path and without
   initializing an empty directory: an inspection tool or the offline
   analyzer walks the directory of a possibly corrupt image without
   touching cache state, frames, or the backing store.  A name length
   no [get] could have stored is handed back rather than read past. *)
let iter v f =
  if Pmem.load_nt v Layout.pstatic_base = magic then begin
    let buf = Bytes.create max_name_length in
    for i = 0 to capacity - 1 do
      let a = entry_addr i in
      let addr = Int64.to_int (Pmem.load_nt v (a + 48)) in
      if addr <> 0 then begin
        let name_len = Int64.to_int (Pmem.load_nt v (a + 8)) in
        let len = Int64.to_int (Pmem.load_nt v (a + 56)) in
        let name =
          if name_len < 0 || name_len > max_name_length then Error name_len
          else begin
            Pmem.load_nt_into v (a + 16) buf 0 max_name_length;
            Ok (Bytes.sub_string buf 0 name_len)
          end
        in
        f { entry_addr = a; name; addr; len }
      end
    done
  end

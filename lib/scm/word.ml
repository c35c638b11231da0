let is_aligned addr = addr land 7 = 0

let align_up n = (n + 7) land lnot 7

let words_for_bytes n = (n + 7) / 8

let get buf off = Bytes.get_int64_le buf off

let set buf off v = Bytes.set_int64_le buf off v

let bit w i = Int64.logand (Int64.shift_right_logical w i) 1L = 1L

let set_bit w i b =
  let mask = Int64.shift_left 1L i in
  if b then Int64.logor w mask else Int64.logand w (Int64.lognot mask)

let of_string_chunk s off =
  let n = min 8 (String.length s - off) in
  let w = ref 0L in
  for i = n - 1 downto 0 do
    let byte = Char.code s.[off + i] in
    w := Int64.logor (Int64.shift_left !w 8) (Int64.of_int byte)
  done;
  !w

let blit_to_bytes w buf off len =
  assert (len >= 0 && len <= 8);
  let w = ref w in
  for i = 0 to len - 1 do
    Bytes.set buf (off + i) (Char.chr (Int64.to_int (Int64.logand !w 0xffL)));
    w := Int64.shift_right_logical !w 8
  done

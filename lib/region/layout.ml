let page_size = Scm.Scm_device.frame_size

(* 1 GiB base, 1 TiB reserved range: both powers of two, so the range
   check compiles to a mask on real hardware and stays cheap here. *)
let persistent_base = 0x4000_0000
let persistent_size = 0x100_0000_0000

let is_persistent addr =
  addr >= persistent_base && addr < persistent_base + persistent_size

let static_base = persistent_base
let static_size = 256 * 1024

let region_table_base = static_base
let region_table_size = 16 * 1024

let pstatic_base = static_base + region_table_size
let pstatic_size = static_size - region_table_size

let dynamic_base = persistent_base + (16 * 1024 * 1024)

let page_of addr = addr / page_size
let pages_for len = (len + page_size - 1) / page_size

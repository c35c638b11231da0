let alloc tx ~slot b =
  let addr = Mtm.Txn.alloc tx (8 + Bytes.length b) ~slot in
  Mtm.Txn.store tx addr (Int64.of_int (Bytes.length b));
  if Bytes.length b > 0 then Mtm.Txn.write_bytes tx (addr + 8) b;
  addr

let length tx addr = Int64.to_int (Mtm.Txn.load tx addr)

let read tx addr =
  let len = length tx addr in
  if len = 0 then Bytes.create 0 else Mtm.Txn.read_bytes tx (addr + 8) len

let free tx ~slot = Mtm.Txn.free tx ~slot

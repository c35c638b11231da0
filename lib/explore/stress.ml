let nslots = Workload.Stress_model.default_nslots

let ensure_data ?(root = "stress.data") ?(nslots = nslots) inst =
  let slot = Mnemosyne.pstatic inst root 8 in
  Mnemosyne.atomically inst (fun tx ->
      match Int64.to_int (Mtm.Txn.load tx slot) with
      | 0 ->
          let a = Mtm.Txn.alloc tx (nslots * 8) ~slot in
          for i = 0 to nslots - 1 do
            Mtm.Txn.store tx (a + (8 * i)) 0L
          done;
          a
      | a -> a)

let run_updates inst ~seed ~txns =
  let data = ensure_data inst in
  let cslot = Mnemosyne.pstatic inst "stress.count" 8 in
  let count =
    Mnemosyne.atomically inst (fun tx -> Int64.to_int (Mtm.Txn.load tx cslot))
  in
  for t = count to count + txns - 1 do
    Mnemosyne.atomically inst (fun tx ->
        List.iter
          (fun (s, v) -> Mtm.Txn.store tx (data + (8 * s)) v)
          (Workload.Stress_model.txn_updates ~seed ~t ());
        Mtm.Txn.store tx cslot (Int64.of_int (t + 1)))
  done

let verify inst ~seed =
  let slot = Mnemosyne.pstatic inst "stress.data" 8 in
  let cslot = Mnemosyne.pstatic inst "stress.count" 8 in
  let data =
    Mnemosyne.atomically inst (fun tx -> Int64.to_int (Mtm.Txn.load tx slot))
  in
  let count =
    Mnemosyne.atomically inst (fun tx -> Int64.to_int (Mtm.Txn.load tx cslot))
  in
  if data = 0 then
    if count = 0 then Ok 0
    else
      Error
        (Printf.sprintf "count=%d but the data array was never allocated"
           count)
  else begin
    let expected = Workload.Stress_model.model_after ~seed count in
    let bad =
      Mnemosyne.atomically inst (fun tx ->
          let bad = ref 0 in
          for i = 0 to nslots - 1 do
            if Mtm.Txn.load tx (data + (8 * i)) <> expected.(i) then incr bad
          done;
          !bad)
    in
    if bad = 0 then Ok count
    else
      Error
        (Printf.sprintf
           "%d/%d slots disagree with the replay of %d committed \
            transactions"
           bad nslots count)
  end

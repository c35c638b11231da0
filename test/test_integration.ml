(* Full-stack integration tests: every layer at once — regions, heap,
   logs and transactions feeding four persistent data structures, under
   repeated adversarial crashes, SCM pressure (swapping), concurrent
   simulated threads and the complete save-image/reboot cycle. *)

let with_tmpdir f =
  let dir = Filename.temp_file "mnemoint" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let b = Bytes.of_string

(* ------------------------------------------------------------------ *)

let test_four_structures_through_crash_loops () =
  with_tmpdir (fun dir ->
      (* every structure gets writes in each life; each life ends in an
         adversarial crash; every recovery must find all previous
         committed state *)
      let lives = 5 and per_life = 15 in
      let inst = ref (Mnemosyne.open_instance ~dir ()) in
      for life = 0 to lives - 1 do
        let t = !inst in
        let ht_slot = Mnemosyne.pstatic t "it.ht" 8 in
        let avl_slot = Mnemosyne.pstatic t "it.avl" 8 in
        let bp_slot = Mnemosyne.pstatic t "it.bp" 8 in
        let lst_slot = Mnemosyne.pstatic t "it.lst" 8 in
        let get tx slot create attach =
          match Int64.to_int (Mtm.Txn.load tx slot) with
          | 0 -> create tx
          | root -> attach tx root
        in
        Mnemosyne.atomically t (fun tx ->
            let ht =
              get tx ht_slot
                (fun tx -> Pstruct.Phashtable.create tx ~slot:ht_slot ~buckets:64)
                (fun tx root -> Pstruct.Phashtable.attach tx ~root)
            in
            let avl =
              get tx avl_slot
                (fun tx -> Pstruct.Avl_tree.create tx ~slot:avl_slot)
                (fun tx root -> Pstruct.Avl_tree.attach tx ~root)
            in
            let bp =
              get tx bp_slot
                (fun tx -> Pstruct.Bp_tree.create tx ~slot:bp_slot)
                (fun tx root -> Pstruct.Bp_tree.attach tx ~root)
            in
            let lst =
              get tx lst_slot
                (fun tx -> Pstruct.Plist.create tx ~slot:lst_slot)
                (fun tx root -> Pstruct.Plist.attach tx ~root)
            in
            (* verify everything from earlier lives *)
            Alcotest.(check int) "hashtable carried" (life * per_life)
              (Pstruct.Phashtable.length tx ht);
            Alcotest.(check int) "avl carried" (life * per_life)
              (Pstruct.Avl_tree.length tx avl);
            Alcotest.(check int) "b+tree carried" (life * per_life)
              (Pstruct.Bp_tree.length tx bp);
            Alcotest.(check int) "list carried" life
              (Pstruct.Plist.length tx lst);
            for i = 0 to (life * per_life) - 1 do
              let k = Printf.sprintf "k%05d" i in
              if Pstruct.Phashtable.find tx ht (b k) = None then
                Alcotest.failf "life %d: hashtable lost %s" life k;
              if Pstruct.Avl_tree.find tx avl (Int64.of_int i) = None then
                Alcotest.failf "life %d: avl lost %d" life i;
              if Pstruct.Bp_tree.find tx bp (Int64.of_int i) = None then
                Alcotest.failf "life %d: b+tree lost %d" life i
            done;
            Pstruct.Avl_tree.validate tx avl;
            Pstruct.Bp_tree.validate tx bp);
        (* add this life's data, one transaction per item *)
        for i = life * per_life to ((life + 1) * per_life) - 1 do
          Mnemosyne.atomically t (fun tx ->
              let ht =
                Pstruct.Phashtable.attach tx
                  ~root:(Int64.to_int (Mtm.Txn.load tx ht_slot))
              in
              let avl =
                Pstruct.Avl_tree.attach tx
                  ~root:(Int64.to_int (Mtm.Txn.load tx avl_slot))
              in
              let bp =
                Pstruct.Bp_tree.attach tx
                  ~root:(Int64.to_int (Mtm.Txn.load tx bp_slot))
              in
              Pstruct.Phashtable.put tx ht
                (b (Printf.sprintf "k%05d" i))
                (b (string_of_int i));
              Pstruct.Avl_tree.put tx avl (Int64.of_int i) (b "avl");
              Pstruct.Bp_tree.put tx bp (Int64.of_int i) (b "bp"))
        done;
        Mnemosyne.atomically t (fun tx ->
            let lst =
              Pstruct.Plist.attach tx
                ~root:(Int64.to_int (Mtm.Txn.load tx lst_slot))
            in
            Pstruct.Plist.push tx lst (b (Printf.sprintf "life %d" life)));
        inst := Mnemosyne.reincarnate t
      done)

let test_transactions_under_scm_pressure () =
  with_tmpdir (fun dir ->
      (* a device too small for the working set: the region manager
         swaps pages to backing files underneath running transactions *)
      let geometry =
        { Mnemosyne.scm_frames = 112; heap_superblocks = 192;
          heap_large_bytes = 1 lsl 16 }
      in
      let inst = Mnemosyne.open_instance ~geometry ~dir () in
      let slot = Mnemosyne.pstatic inst "press.ht" 8 in
      let table =
        Mnemosyne.atomically inst (fun tx ->
            Pstruct.Phashtable.create tx ~slot ~buckets:256)
      in
      let kg = Workload.Keygen.create () in
      for i = 0 to 299 do
        Mnemosyne.atomically inst (fun tx ->
            Pstruct.Phashtable.put tx table (Workload.Keygen.seq_key i)
              (Workload.Keygen.value kg 1024))
      done;
      let mgr = Region.Pmem.manager (Mnemosyne.pmem inst) in
      Alcotest.(check bool) "swapping actually happened" true
        (Region.Manager.swaps_out mgr > 0);
      (* all data readable back through the faulting path *)
      Mnemosyne.atomically inst (fun tx ->
          Alcotest.(check int) "all entries" 300
            (Pstruct.Phashtable.length tx table);
          for i = 0 to 299 do
            if Pstruct.Phashtable.find tx table (Workload.Keygen.seq_key i)
               = None
            then Alcotest.failf "entry %d lost under pressure" i
          done);
      (* clean shutdown and recovery from backing files + image *)
      let inst = Mnemosyne.reincarnate inst in
      let slot = Mnemosyne.pstatic inst "press.ht" 8 in
      Mnemosyne.atomically inst (fun tx ->
          let table =
            Pstruct.Phashtable.attach tx
              ~root:(Int64.to_int (Mtm.Txn.load tx slot))
          in
          Alcotest.(check int) "entries after reboot" 300
            (Pstruct.Phashtable.length tx table)))

let test_concurrent_structures_and_crash () =
  with_tmpdir (fun dir ->
      let mtm = { Mtm.Txn.default_config with truncation = Mtm.Txn.Async } in
      let inst = Mnemosyne.open_instance ~mtm ~dir () in
      let machine = Mnemosyne.machine inst in
      let sim = Sim.create () in
      let slot = Mnemosyne.pstatic inst "conc.bp" 8 in
      let tree =
        Mnemosyne.atomically inst (fun tx -> Pstruct.Bp_tree.create tx ~slot)
      in
      let per_thread = 30 in
      for i = 0 to 3 do
        Sim.spawn sim (fun () ->
            let env =
              Scm.Env.view machine
                ~delay:(fun ns -> Sim.delay sim ns)
                ~now:(fun () -> Sim.now sim)
            in
            let th = Mnemosyne.thread inst i env in
            for k = 0 to per_thread - 1 do
              Mtm.Txn.run th (fun tx ->
                  Pstruct.Bp_tree.put tx tree
                    (Int64.of_int ((i * 1000) + k))
                    (b (Printf.sprintf "%d/%d" i k)))
            done)
      done;
      Sim.run sim;
      (* hard crash with async truncation pending: recovery must replay *)
      let inst = Mnemosyne.reincarnate inst in
      let slot = Mnemosyne.pstatic inst "conc.bp" 8 in
      Mnemosyne.atomically inst (fun tx ->
          let tree =
            Pstruct.Bp_tree.attach tx
              ~root:(Int64.to_int (Mtm.Txn.load tx slot))
          in
          Pstruct.Bp_tree.validate tx tree;
          Alcotest.(check int) "every commit survived" (4 * per_thread)
            (Pstruct.Bp_tree.length tx tree);
          for i = 0 to 3 do
            for k = 0 to per_thread - 1 do
              match
                Pstruct.Bp_tree.find tx tree (Int64.of_int ((i * 1000) + k))
              with
              | Some v when v = b (Printf.sprintf "%d/%d" i k) -> ()
              | Some _ -> Alcotest.failf "thread %d key %d corrupt" i k
              | None -> Alcotest.failf "thread %d key %d lost" i k
            done
          done))

let test_wear_leveling_during_transactions () =
  with_tmpdir (fun dir ->
      let inst = Mnemosyne.open_instance ~dir () in
      let v = Mnemosyne.view inst in
      let slot = Mnemosyne.pstatic inst "wl.ht" 8 in
      let table =
        Mnemosyne.atomically inst (fun tx ->
            Pstruct.Phashtable.create tx ~slot ~buckets:64)
      in
      let kg = Workload.Keygen.create () in
      (* interleave transactional updates with leveling passes: stale
         translations must be invalidated transparently *)
      for i = 0 to 199 do
        Mnemosyne.atomically inst (fun tx ->
            Pstruct.Phashtable.put tx table
              (Workload.Keygen.seq_key (i mod 20))
              (Workload.Keygen.value kg 64));
        if i mod 25 = 24 then ignore (Region.Pmem.wear_level v ~threshold:1.5)
      done;
      Mnemosyne.atomically inst (fun tx ->
          Alcotest.(check int) "steady state" 20
            (Pstruct.Phashtable.length tx table)))

let prop_crash_during_concurrent_execution =
  (* four threads transfer between accounts; the machine dies at a
     random simulated instant mid-execution; after recovery the total
     is intact — atomicity under concurrency, not just at quiescence *)
  QCheck.Test.make ~name:"invariant survives crash mid-concurrent-run"
    ~count:12
    QCheck.(pair (int_bound 10_000) (int_bound 5_000_000))
    (fun (seed, cut_ns) ->
      with_tmpdir (fun dir ->
          let mtm =
            { Mtm.Txn.default_config with truncation = Mtm.Txn.Async }
          in
          let inst = Mnemosyne.open_instance ~seed ~mtm ~dir () in
          let naccounts = 16 in
          let slot = Mnemosyne.pstatic inst "bank" 8 in
          let accounts =
            Mnemosyne.atomically inst (fun tx ->
                let a = Mtm.Txn.alloc tx (naccounts * 64) ~slot in
                for i = 0 to naccounts - 1 do
                  (* one account per cache line to limit conflicts *)
                  Mtm.Txn.store tx (a + (64 * i)) 1000L
                done;
                a)
          in
          let machine = Mnemosyne.machine inst in
          let sim = Sim.create () in
          for i = 0 to 3 do
            Sim.spawn sim (fun () ->
                let env =
                  Scm.Env.view machine
                    ~delay:(fun ns -> Sim.delay sim ns)
                    ~now:(fun () -> Sim.now sim)
                in
                let th = Mnemosyne.thread inst i env in
                let rng = Random.State.make [| seed; i |] in
                for _ = 1 to 200 do
                  (try
                     Mtm.Txn.run th (fun tx ->
                         let from_i = Random.State.int rng naccounts in
                         let to_i = Random.State.int rng naccounts in
                         let amount =
                           Int64.of_int (Random.State.int rng 50)
                         in
                         let fa = accounts + (64 * from_i) in
                         let ta = accounts + (64 * to_i) in
                         Mtm.Txn.store tx fa
                           (Int64.sub (Mtm.Txn.load tx fa) amount);
                         Mtm.Txn.store tx ta
                           (Int64.add (Mtm.Txn.load tx ta) amount))
                   with Mtm.Txn.Contention -> ());
                  Sim.delay sim 500
                done)
          done;
          (* stop the world mid-run: whatever is in flight dies *)
          Sim.run ~until:(1 + cut_ns) sim;
          let inst = Mnemosyne.reincarnate inst in
          let slot = Mnemosyne.pstatic inst "bank" 8 in
          let total =
            Mnemosyne.atomically inst (fun tx ->
                let a = Int64.to_int (Mtm.Txn.load tx slot) in
                let sum = ref 0L in
                for i = 0 to naccounts - 1 do
                  sum := Int64.add !sum (Mtm.Txn.load tx (a + (64 * i)))
                done;
                !sum)
          in
          total = Int64.of_int (naccounts * 1000)))

let prop_multi_life_model =
  QCheck.Test.make
    ~name:"hashtable matches model across random ops and crash boundaries"
    ~count:8
    QCheck.(
      pair (int_bound 1000)
        (list_of_size Gen.(2 -- 4)
           (list_of_size Gen.(5 -- 25)
              (triple bool (int_bound 25) (int_bound 9999)))))
    (fun (seed, lives) ->
      with_tmpdir (fun dir ->
          let model : (string, string) Hashtbl.t = Hashtbl.create 32 in
          let inst = ref (Mnemosyne.open_instance ~seed ~dir ()) in
          List.iter
            (fun ops ->
              let t = !inst in
              let slot = Mnemosyne.pstatic t "prop.ht" 8 in
              let table =
                Mnemosyne.atomically t (fun tx ->
                    match Int64.to_int (Mtm.Txn.load tx slot) with
                    | 0 -> Pstruct.Phashtable.create tx ~slot ~buckets:32
                    | root -> Pstruct.Phashtable.attach tx ~root)
              in
              (* after recovery, contents must match the model *)
              let ok =
                Mnemosyne.atomically t (fun tx ->
                    Hashtbl.fold
                      (fun k v ok ->
                        ok
                        && Pstruct.Phashtable.find tx table (b k)
                           = Some (Bytes.of_string v))
                      model
                      (Pstruct.Phashtable.length tx table
                      = Hashtbl.length model))
              in
              if not ok then failwith "model mismatch after recovery";
              List.iter
                (fun (is_remove, k, v) ->
                  let key = Printf.sprintf "key%d" k in
                  Mnemosyne.atomically t (fun tx ->
                      if is_remove then begin
                        ignore (Pstruct.Phashtable.remove tx table (b key));
                        Hashtbl.remove model key
                      end
                      else begin
                        Pstruct.Phashtable.put tx table (b key)
                          (b (string_of_int v));
                        Hashtbl.replace model key (string_of_int v)
                      end))
                ops;
              inst := Mnemosyne.reincarnate t)
            lives;
          true))

let () =
  Alcotest.run "integration"
    [
      ( "full-stack",
        [
          Alcotest.test_case "four structures through crash loops" `Quick
            test_four_structures_through_crash_loops;
          Alcotest.test_case "transactions under SCM pressure" `Quick
            test_transactions_under_scm_pressure;
          Alcotest.test_case "concurrent structures and crash" `Quick
            test_concurrent_structures_and_crash;
          Alcotest.test_case "wear leveling during transactions" `Quick
            test_wear_leveling_during_transactions;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_multi_life_model;
          QCheck_alcotest.to_alcotest prop_crash_during_concurrent_execution;
        ] );
    ]

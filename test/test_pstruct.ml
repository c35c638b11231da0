(* Tests for the persistent data structures: model-based comparisons
   against stdlib structures, structural invariants after random
   operation sequences, and persistence across crash/reboot. *)

let with_tmpdir f =
  let dir = Filename.temp_file "mnemops" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      in
      if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let open_inst dir =
  Mnemosyne.open_instance
    ~geometry:
      { Mnemosyne.scm_frames = 8192; heap_superblocks = 192;
        heap_large_bytes = 1 lsl 20 }
    ~dir ()

let b = Bytes.of_string

(* ------------------------------------------------------------------ *)
(* Plist *)

let test_plist_basic () =
  with_tmpdir (fun dir ->
      let t = open_inst dir in
      let slot = Mnemosyne.pstatic t "list" 8 in
      Mnemosyne.atomically t (fun tx ->
          let l = Pstruct.Plist.create tx ~slot in
          Pstruct.Plist.push tx l (b "one");
          Pstruct.Plist.push tx l (b "two"));
      Mnemosyne.atomically t (fun tx ->
          let l =
            Pstruct.Plist.attach tx
              ~root:(Int64.to_int (Mtm.Txn.load tx slot))
          in
          Alcotest.(check int) "length" 2 (Pstruct.Plist.length tx l);
          Alcotest.(check (list bytes)) "order"
            [ b "two"; b "one" ]
            (Pstruct.Plist.to_list tx l);
          Alcotest.(check (option bytes)) "pop" (Some (b "two"))
            (Pstruct.Plist.pop tx l);
          Alcotest.(check int) "after pop" 1 (Pstruct.Plist.length tx l)))

let test_plist_survives_reincarnation () =
  with_tmpdir (fun dir ->
      let t = open_inst dir in
      let slot = Mnemosyne.pstatic t "list" 8 in
      Mnemosyne.atomically t (fun tx ->
          let l = Pstruct.Plist.create tx ~slot in
          for i = 1 to 5 do
            Pstruct.Plist.push tx l (b (string_of_int i))
          done);
      let t = Mnemosyne.reincarnate t in
      let slot = Mnemosyne.pstatic t "list" 8 in
      Mnemosyne.atomically t (fun tx ->
          let l =
            Pstruct.Plist.attach tx
              ~root:(Int64.to_int (Mtm.Txn.load tx slot))
          in
          Alcotest.(check (list bytes)) "contents"
            [ b "5"; b "4"; b "3"; b "2"; b "1" ]
            (Pstruct.Plist.to_list tx l)))

(* ------------------------------------------------------------------ *)
(* Phashtable *)

let test_phash_basic () =
  with_tmpdir (fun dir ->
      let t = open_inst dir in
      let slot = Mnemosyne.pstatic t "hash" 8 in
      Mnemosyne.atomically t (fun tx ->
          let h = Pstruct.Phashtable.create tx ~slot ~buckets:16 in
          Pstruct.Phashtable.put tx h (b "alpha") (b "1");
          Pstruct.Phashtable.put tx h (b "beta") (b "2");
          Pstruct.Phashtable.put tx h (b "alpha") (b "1'");
          Alcotest.(check int) "length" 2 (Pstruct.Phashtable.length tx h);
          Alcotest.(check (option bytes)) "replaced" (Some (b "1'"))
            (Pstruct.Phashtable.find tx h (b "alpha"));
          Alcotest.(check (option bytes)) "other" (Some (b "2"))
            (Pstruct.Phashtable.find tx h (b "beta"));
          Alcotest.(check (option bytes)) "missing" None
            (Pstruct.Phashtable.find tx h (b "gamma"));
          Alcotest.(check bool) "remove" true
            (Pstruct.Phashtable.remove tx h (b "alpha"));
          Alcotest.(check bool) "remove gone" false
            (Pstruct.Phashtable.remove tx h (b "alpha"));
          Alcotest.(check int) "final length" 1
            (Pstruct.Phashtable.length tx h)))

let prop_phash_model =
  QCheck.Test.make ~name:"phashtable matches Hashtbl model" ~count:20
    QCheck.(
      list_of_size Gen.(10 -- 120)
        (triple (int_bound 2) (int_bound 30) small_string))
    (fun ops ->
      with_tmpdir (fun dir ->
          let t = open_inst dir in
          let slot = Mnemosyne.pstatic t "hash" 8 in
          let h =
            Mnemosyne.atomically t (fun tx ->
                Pstruct.Phashtable.create tx ~slot ~buckets:8)
          in
          let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
          List.iter
            (fun (op, k, v) ->
              let key = Printf.sprintf "key%d" k in
              Mnemosyne.atomically t (fun tx ->
                  match op with
                  | 0 ->
                      Pstruct.Phashtable.put tx h (b key) (b v);
                      Hashtbl.replace model key v
                  | 1 ->
                      let got = Pstruct.Phashtable.find tx h (b key) in
                      let expect =
                        Option.map Bytes.of_string (Hashtbl.find_opt model key)
                      in
                      if got <> expect then failwith "find mismatch"
                  | _ ->
                      let got = Pstruct.Phashtable.remove tx h (b key) in
                      let expect = Hashtbl.mem model key in
                      Hashtbl.remove model key;
                      if got <> expect then failwith "remove mismatch"))
            ops;
          Mnemosyne.atomically t (fun tx ->
              Pstruct.Phashtable.length tx h = Hashtbl.length model
              && Hashtbl.fold
                   (fun k v ok ->
                     ok
                     && Pstruct.Phashtable.find tx h (b k)
                        = Some (Bytes.of_string v))
                   model true)))

let test_phash_survives_crash_per_txn () =
  with_tmpdir (fun dir ->
      let t = open_inst dir in
      let slot = Mnemosyne.pstatic t "hash" 8 in
      ignore
        (Mnemosyne.atomically t (fun tx ->
             Pstruct.Phashtable.create tx ~slot ~buckets:16));
      for i = 0 to 9 do
        Mnemosyne.atomically t (fun tx ->
            let h =
              Pstruct.Phashtable.attach tx
                ~root:(Int64.to_int (Mtm.Txn.load tx slot))
            in
            Pstruct.Phashtable.put tx h
              (b (Printf.sprintf "k%d" i))
              (b (Printf.sprintf "v%d" i)))
      done;
      let t = Mnemosyne.reincarnate t in
      let slot = Mnemosyne.pstatic t "hash" 8 in
      Mnemosyne.atomically t (fun tx ->
          let h =
            Pstruct.Phashtable.attach tx
              ~root:(Int64.to_int (Mtm.Txn.load tx slot))
          in
          Alcotest.(check int) "all entries" 10
            (Pstruct.Phashtable.length tx h);
          for i = 0 to 9 do
            Alcotest.(check (option bytes))
              (Printf.sprintf "k%d" i)
              (Some (b (Printf.sprintf "v%d" i)))
              (Pstruct.Phashtable.find tx h (b (Printf.sprintf "k%d" i)))
          done))

(* ------------------------------------------------------------------ *)
(* AVL tree *)

let prop_avl_model =
  QCheck.Test.make ~name:"avl matches Map model + invariants" ~count:15
    QCheck.(
      list_of_size Gen.(10 -- 150) (pair bool (int_bound 60)))
    (fun ops ->
      with_tmpdir (fun dir ->
          let t = open_inst dir in
          let slot = Mnemosyne.pstatic t "avl" 8 in
          let tree =
            Mnemosyne.atomically t (fun tx -> Pstruct.Avl_tree.create tx ~slot)
          in
          let module M = Map.Make (Int64) in
          let model = ref M.empty in
          List.iter
            (fun (is_remove, k) ->
              let key = Int64.of_int k in
              Mnemosyne.atomically t (fun tx ->
                  if is_remove then begin
                    let got = Pstruct.Avl_tree.remove tx tree key in
                    if got <> M.mem key !model then failwith "remove mismatch";
                    model := M.remove key !model
                  end
                  else begin
                    let v = Printf.sprintf "v%d" k in
                    Pstruct.Avl_tree.put tx tree key (b v);
                    model := M.add key v !model
                  end;
                  Pstruct.Avl_tree.validate tx tree))
            ops;
          Mnemosyne.atomically t (fun tx ->
              let entries = ref [] in
              Pstruct.Avl_tree.iter tx tree (fun k v ->
                  entries := (k, Bytes.to_string v) :: !entries);
              List.rev !entries = M.bindings !model
              && Pstruct.Avl_tree.length tx tree = M.cardinal !model)))

let test_avl_survives_reincarnation () =
  with_tmpdir (fun dir ->
      let t = open_inst dir in
      let slot = Mnemosyne.pstatic t "avl" 8 in
      ignore
        (Mnemosyne.atomically t (fun tx ->
             let tree = Pstruct.Avl_tree.create tx ~slot in
             for i = 1 to 100 do
               Pstruct.Avl_tree.put tx tree (Int64.of_int i)
                 (b (string_of_int (i * i)))
             done;
             tree));
      let t = Mnemosyne.reincarnate t in
      let slot = Mnemosyne.pstatic t "avl" 8 in
      Mnemosyne.atomically t (fun tx ->
          let tree =
            Pstruct.Avl_tree.attach tx
              ~root:(Int64.to_int (Mtm.Txn.load tx slot))
          in
          Pstruct.Avl_tree.validate tx tree;
          Alcotest.(check int) "count" 100 (Pstruct.Avl_tree.length tx tree);
          Alcotest.(check (option bytes)) "spot check" (Some (b "2500"))
            (Pstruct.Avl_tree.find tx tree 50L)))

(* ------------------------------------------------------------------ *)
(* Red-black tree *)

let prop_rb_model =
  QCheck.Test.make ~name:"rb-tree matches Map model + invariants" ~count:15
    QCheck.(
      list_of_size Gen.(10 -- 150) (pair bool (int_bound 60)))
    (fun ops ->
      with_tmpdir (fun dir ->
          let t = open_inst dir in
          let slot = Mnemosyne.pstatic t "rb" 8 in
          let tree =
            Mnemosyne.atomically t (fun tx ->
                Pstruct.Rb_tree.create tx ~slot ())
          in
          let module M = Map.Make (Int64) in
          let model = ref M.empty in
          List.iter
            (fun (is_remove, k) ->
              let key = Int64.of_int k in
              Mnemosyne.atomically t (fun tx ->
                  if is_remove then begin
                    let got = Pstruct.Rb_tree.remove tx tree key in
                    if got <> M.mem key !model then failwith "remove mismatch";
                    model := M.remove key !model
                  end
                  else begin
                    Pstruct.Rb_tree.put tx tree key (b (string_of_int k));
                    model := M.add key k !model
                  end;
                  Pstruct.Rb_tree.validate tx tree))
            ops;
          Mnemosyne.atomically t (fun tx ->
              let keys = ref [] in
              Pstruct.Rb_tree.iter tx tree (fun k _ -> keys := k :: !keys);
              List.rev !keys = List.map fst (M.bindings !model)
              && Pstruct.Rb_tree.length tx tree = M.cardinal !model)))

let test_rb_payload_roundtrip () =
  with_tmpdir (fun dir ->
      let t = open_inst dir in
      let slot = Mnemosyne.pstatic t "rb" 8 in
      Mnemosyne.atomically t (fun tx ->
          let tree = Pstruct.Rb_tree.create tx ~slot () in
          Alcotest.(check int) "node payload" 88
            (Pstruct.Rb_tree.payload_bytes tree);
          Pstruct.Rb_tree.put tx tree 7L (b "hello");
          match Pstruct.Rb_tree.find tx tree 7L with
          | None -> Alcotest.fail "missing"
          | Some payload ->
              Alcotest.(check int) "padded to payload size" 88
                (Bytes.length payload);
              Alcotest.(check string) "prefix" "hello"
                (Bytes.sub_string payload 0 5)))

(* ------------------------------------------------------------------ *)
(* B+ tree *)

let prop_bp_model =
  QCheck.Test.make ~name:"b+tree matches Map model + invariants" ~count:10
    QCheck.(
      list_of_size Gen.(30 -- 250) (pair (int_bound 9) (int_bound 150)))
    (fun ops ->
      with_tmpdir (fun dir ->
          let t = open_inst dir in
          let slot = Mnemosyne.pstatic t "bp" 8 in
          let tree =
            Mnemosyne.atomically t (fun tx -> Pstruct.Bp_tree.create tx ~slot)
          in
          let module M = Map.Make (Int64) in
          let model = ref M.empty in
          List.iter
            (fun (op, k) ->
              let key = Int64.of_int k in
              Mnemosyne.atomically t (fun tx ->
                  if op < 7 then begin
                    Pstruct.Bp_tree.put tx tree key (b (string_of_int k));
                    model := M.add key (string_of_int k) !model
                  end
                  else begin
                    let got = Pstruct.Bp_tree.remove tx tree key in
                    if got <> M.mem key !model then failwith "remove mismatch";
                    model := M.remove key !model
                  end;
                  Pstruct.Bp_tree.validate tx tree))
            ops;
          Mnemosyne.atomically t (fun tx ->
              let entries = ref [] in
              Pstruct.Bp_tree.iter tx tree (fun k v ->
                  entries := (k, Bytes.to_string v) :: !entries);
              List.rev !entries = M.bindings !model
              && Pstruct.Bp_tree.length tx tree = M.cardinal !model)))

let test_bp_many_inserts_splits () =
  with_tmpdir (fun dir ->
      let t = open_inst dir in
      let slot = Mnemosyne.pstatic t "bp" 8 in
      let tree =
        Mnemosyne.atomically t (fun tx -> Pstruct.Bp_tree.create tx ~slot)
      in
      (* enough keys to force multi-level splits (order 16) *)
      for i = 0 to 999 do
        let k = Int64.of_int ((i * 7919) mod 10_000) in
        Mnemosyne.atomically t (fun tx ->
            Pstruct.Bp_tree.put tx tree k (b (Int64.to_string k)))
      done;
      Mnemosyne.atomically t (fun tx ->
          Pstruct.Bp_tree.validate tx tree;
          Alcotest.(check (option bytes)) "lookup deep" (Some (b "7919"))
            (Pstruct.Bp_tree.find tx tree 7919L)))

let test_bp_range_scan () =
  with_tmpdir (fun dir ->
      let t = open_inst dir in
      let slot = Mnemosyne.pstatic t "bp" 8 in
      Mnemosyne.atomically t (fun tx ->
          let tree = Pstruct.Bp_tree.create tx ~slot in
          for i = 0 to 99 do
            Pstruct.Bp_tree.put tx tree (Int64.of_int (i * 2)) (b "x")
          done;
          let r = Pstruct.Bp_tree.range tx tree ~lo:10L ~hi:20L in
          Alcotest.(check (list int64)) "range keys"
            [ 10L; 12L; 14L; 16L; 18L; 20L ]
            (List.map fst r)))

let test_bp_survives_reincarnation () =
  with_tmpdir (fun dir ->
      let t = open_inst dir in
      let slot = Mnemosyne.pstatic t "bp" 8 in
      let tree =
        Mnemosyne.atomically t (fun tx -> Pstruct.Bp_tree.create tx ~slot)
      in
      for i = 0 to 299 do
        Mnemosyne.atomically t (fun tx ->
            Pstruct.Bp_tree.put tx tree (Int64.of_int i) (b (string_of_int i)))
      done;
      let t = Mnemosyne.reincarnate t in
      let slot = Mnemosyne.pstatic t "bp" 8 in
      Mnemosyne.atomically t (fun tx ->
          let tree =
            Pstruct.Bp_tree.attach tx
              ~root:(Int64.to_int (Mtm.Txn.load tx slot))
          in
          Pstruct.Bp_tree.validate tx tree;
          Alcotest.(check int) "count" 300 (Pstruct.Bp_tree.length tx tree);
          for i = 0 to 299 do
            if
              Pstruct.Bp_tree.find tx tree (Int64.of_int i)
              <> Some (b (string_of_int i))
            then Alcotest.failf "key %d lost" i
          done))

(* ------------------------------------------------------------------ *)
(* Shadow tree (shadow updates, no transactions) *)

let pview t = Mnemosyne.view t

let test_shadow_basic () =
  with_tmpdir (fun dir ->
      let t = open_inst dir in
      let v = pview t in
      let bytes = Pstruct.Shadow_tree.region_bytes_for ~payload_bytes:32 ~capacity:256 in
      let base = Mnemosyne.pmap t bytes in
      let st = Pstruct.Shadow_tree.create v ~base ~payload_bytes:32 ~capacity:256 in
      Pstruct.Shadow_tree.put st 5L (b "five");
      Pstruct.Shadow_tree.put st 3L (b "three");
      Pstruct.Shadow_tree.put st 9L (b "nine");
      Pstruct.Shadow_tree.put st 5L (b "FIVE");
      Alcotest.(check int) "length" 3 (Pstruct.Shadow_tree.length st);
      (match Pstruct.Shadow_tree.find st 5L with
      | Some p -> Alcotest.(check string) "replaced" "FIVE" (Bytes.sub_string p 0 4)
      | None -> Alcotest.fail "missing");
      Alcotest.(check (option bytes)) "absent" None
        (Pstruct.Shadow_tree.find st 4L);
      let keys = ref [] in
      Pstruct.Shadow_tree.iter st (fun k _ -> keys := k :: !keys);
      Alcotest.(check (list int64)) "in order" [ 3L; 5L; 9L ]
        (List.rev !keys))

let test_shadow_crash_old_or_new_never_mixed () =
  (* crash at arbitrary points: the tree read back is always a
     consistent BST holding a prefix of the update sequence *)
  for seed = 0 to 14 do
    with_tmpdir (fun dir ->
        let t = open_inst dir in
        let v = pview t in
        let bytes =
          Pstruct.Shadow_tree.region_bytes_for ~payload_bytes:16 ~capacity:512
        in
        let base = Mnemosyne.pmap t bytes in
        let st =
          Pstruct.Shadow_tree.create v ~base ~payload_bytes:16 ~capacity:512
        in
        let rng = Random.State.make [| seed |] in
        let n = 5 + Random.State.int rng 20 in
        for i = 0 to n - 1 do
          Pstruct.Shadow_tree.put st
            (Int64.of_int (Random.State.int rng 50))
            (b (Printf.sprintf "v%d" i))
        done;
        (* an in-flight update that never publishes: write nodes but
           crash before the root swing is emulated by just crashing in
           the middle of put's window via adversarial WC policy *)
        let t2 = Mnemosyne.reincarnate t in
        let v2 = Mnemosyne.view t2 in
        let st2, reclaimed = Pstruct.Shadow_tree.attach v2 ~base in
        Alcotest.(check bool) "gc nonneg" true (reclaimed >= 0);
        (* published count matches reachable nodes *)
        let seen = ref 0 in
        let prev = ref Int64.min_int in
        Pstruct.Shadow_tree.iter st2 (fun k _ ->
            if k <= !prev then Alcotest.fail "BST order broken";
            prev := k;
            incr seen);
        Alcotest.(check int)
          (Printf.sprintf "seed %d count consistent" seed)
          (Pstruct.Shadow_tree.length st2)
          !seen)
  done

let test_shadow_leak_reclaimed_after_crash () =
  with_tmpdir (fun dir ->
      let t = open_inst dir in
      let v = pview t in
      let bytes =
        Pstruct.Shadow_tree.region_bytes_for ~payload_bytes:16 ~capacity:64
      in
      let base = Mnemosyne.pmap t bytes in
      let st =
        Pstruct.Shadow_tree.create v ~base ~payload_bytes:16 ~capacity:64
      in
      for i = 0 to 9 do
        Pstruct.Shadow_tree.put st (Int64.of_int i) (b "x")
      done;
      let live = Pstruct.Shadow_tree.live_nodes st in
      Alcotest.(check int) "live = published" 10 live;
      (* crash + recover: marked sweep must rebuild the same free list
         size; churn afterwards must not exhaust the arena (i.e., the
         shadow garbage really is reclaimed) *)
      let t2 = Mnemosyne.reincarnate t in
      let v2 = Mnemosyne.view t2 in
      let st2, _ = Pstruct.Shadow_tree.attach v2 ~base in
      Alcotest.(check int) "live after recovery" 10
        (Pstruct.Shadow_tree.live_nodes st2);
      for round = 0 to 199 do
        Pstruct.Shadow_tree.put st2
          (Int64.of_int (round mod 10))
          (b (string_of_int round))
      done;
      Alcotest.(check int) "no arena leak under churn" 10
        (Pstruct.Shadow_tree.live_nodes st2))

let () =
  Alcotest.run "pstruct"
    [
      ( "plist",
        [
          Alcotest.test_case "basic" `Quick test_plist_basic;
          Alcotest.test_case "survives reincarnation" `Quick
            test_plist_survives_reincarnation;
        ] );
      ( "phashtable",
        [
          Alcotest.test_case "basic" `Quick test_phash_basic;
          Alcotest.test_case "survives crash per txn" `Quick
            test_phash_survives_crash_per_txn;
          QCheck_alcotest.to_alcotest prop_phash_model;
        ] );
      ( "avl",
        [
          Alcotest.test_case "survives reincarnation" `Quick
            test_avl_survives_reincarnation;
          QCheck_alcotest.to_alcotest prop_avl_model;
        ] );
      ( "rb",
        [
          Alcotest.test_case "payload roundtrip" `Quick
            test_rb_payload_roundtrip;
          QCheck_alcotest.to_alcotest prop_rb_model;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "basic" `Quick test_shadow_basic;
          Alcotest.test_case "crash leaves old or new" `Quick
            test_shadow_crash_old_or_new_never_mixed;
          Alcotest.test_case "leaks reclaimed after crash" `Quick
            test_shadow_leak_reclaimed_after_crash;
        ] );
      ( "bp",
        [
          Alcotest.test_case "many inserts splits" `Quick
            test_bp_many_inserts_splits;
          Alcotest.test_case "range scan" `Quick test_bp_range_scan;
          Alcotest.test_case "survives reincarnation" `Quick
            test_bp_survives_reincarnation;
          QCheck_alcotest.to_alcotest prop_bp_model;
        ] );
    ]

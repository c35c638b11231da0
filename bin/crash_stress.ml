(* crash_stress: the paper's reliability validation (section 6.2).

   "We wrote a crash stress program, which uses transactions to perform
   random updates to memory using a known seed.  We verified that after
   a crash, memory contains the correct random values."

   Each round:
     1. reopen the instance (full recovery),
     2. verify that memory matches the deterministic replay of every
        transaction recorded as committed by a persistent counter,
     3. run a random number of random-update transactions,
     4. crash with adversarial policies (random subsets of in-flight
        writes land, random dirty cache lines were evicted).

   The verifier is exact: committed-transaction count C is itself
   updated transactionally with the data, so after recovery memory must
   equal the deterministic state after exactly C transactions - no
   more, no less, nothing torn.

   Usage: crash_stress [--rounds N] [--seed S] [--txns-max T] [--dir D]
*)

open Cmdliner

(* The workload and its verifier are {!Explore.Stress}, shared with
   crash_explore so both drivers check the same ground truth. *)
let run rounds seed txns_max dir =
  (* refuses to delete anything that is not an instance layout — a
     mistyped --dir must not become rm -rf on user data *)
  (match Mnemosyne.reset_dir dir with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "crash_stress: %s\n" msg;
      exit 2);
  let mtm = { Mtm.Txn.default_config with truncation = Mtm.Txn.Async } in
  let rng = Random.State.make [| seed; 0xc0de |] in
  let inst = ref (Mnemosyne.open_instance ~mtm ~dir ()) in
  let verify what =
    match Explore.Stress.verify !inst ~seed with
    | Ok count -> count
    | Error msg ->
        Printf.printf "%s: FAILURE - %s\n" what msg;
        exit 1
  in
  Printf.printf "crash_stress: %d rounds, seed %d, state in %s\n%!" rounds
    seed dir;
  for round = 1 to rounds do
    (* recover and verify *)
    let count = verify (Printf.sprintf "round %d" round) in
    Printf.printf "round %3d: recovered, %5d committed txns verified OK%!"
      round count;
    (* run a random burst of transactions *)
    let burst = 1 + Random.State.int rng txns_max in
    Explore.Stress.run_updates !inst ~seed ~txns:burst;
    Printf.printf "; ran %4d more; crashing...\n%!" burst;
    (* adversarial crash + reboot *)
    inst := Mnemosyne.reincarnate !inst
  done;
  let final = verify "final check" in
  Printf.printf
    "\nall %d rounds passed; %d transactions survived %d crashes intact.\n"
    rounds final rounds;
  0

let rounds =
  Arg.(value & opt int 20 & info [ "rounds" ] ~doc:"Crash/recover rounds.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")

let txns_max =
  Arg.(
    value & opt int 200
    & info [ "txns-max" ] ~doc:"Max transactions per round.")

let dir =
  Arg.(
    value
    & opt string
        (Filename.concat (Filename.get_temp_dir_name ()) "mnemosyne-stress")
    & info [ "dir" ] ~doc:"Instance directory.")

let cmd =
  Cmd.v
    (Cmd.info "crash_stress"
       ~doc:"Mnemosyne crash stress test (paper section 6.2)")
    Term.(const run $ rounds $ seed $ txns_max $ dir)

let () = exit (Cmd.eval' cmd)

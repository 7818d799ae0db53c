(* Golden reports of the seeded verification campaigns: each file under
   golden/ pins the stdout of one `ldv check` invocation (or library
   call) byte for byte, and [fails] the exit status that goes with it.
   The two TPC-H faults reports are too slow for this suite and are
   diffed by check.sh; the fixture-audit faults golden is checked in
   test_faults. *)

open Ldv_core

let golden name =
  In_channel.with_open_bin (Filename.concat "golden" name)
    In_channel.input_all

let check ?(fails = false) name scenario ~campaigns ~seed () =
  let r = Check.run scenario ~campaigns ~seed in
  Alcotest.(check string) name (golden name) (Check.to_string r ^ "\n");
  Alcotest.(check bool) "exits 1" fails (Check.failed r)

let suite =
  [ Alcotest.test_case "golden: crash -n 5 --seed 42" `Quick
      (check "crash-n5-seed42.txt"
         (Check.crash ~recover:true ~sessions:1)
         ~campaigns:5 ~seed:42);
    Alcotest.test_case "golden: crash -n 40 --seed 42 --sessions 4" `Quick
      (check "crash-n40-seed42-sessions4.txt"
         (Check.crash ~recover:true ~sessions:4)
         ~campaigns:40 ~seed:42);
    Alcotest.test_case "golden: crash, recovery disabled" `Quick
      (check ~fails:true "crash-n6-seed123-no-recover.txt"
         (Check.crash ~recover:false ~sessions:1)
         ~campaigns:6 ~seed:123);
    Alcotest.test_case "golden: tx -n 40 --sessions 4" `Quick
      (check "tx-n40-sessions4.txt" (Check.tx ~sessions:4) ~campaigns:40
         ~seed:42);
    Alcotest.test_case "golden: replica -n 5 --replicas 2" `Quick
      (check "replica-n5-replicas2.txt" (Check.replica ~replicas:2)
         ~campaigns:5 ~seed:42) ]

(* Randomized end-to-end property: for random tiny workloads (random query
   variant, random step counts), audit -> package -> replay -> verify must
   hold for every packaging option. *)

open Ldv_core

let vids = [| "Q1-1"; "Q1-5"; "Q2-2"; "Q3-2"; "Q4-2" |]

let run_case ~packaging seed =
  let rng = Tpch.Prng.create ~seed in
  let vid = Tpch.Prng.choose rng vids in
  let n_insert = 1 + Tpch.Prng.int rng 8 in
  let n_update = Tpch.Prng.int rng 5 in
  let n_select = 1 + Tpch.Prng.int rng 3 in
  let audit = Ldv_fixtures.audit ~vid ~n_insert ~n_update ~n_select packaging in
  let result = Replay.execute (Package.build audit) in
  Replay.verify ~audit result

let prop packaging name =
  QCheck.Test.make ~count:8 ~name (QCheck.make ~print:string_of_int QCheck.Gen.nat)
    (fun seed ->
      match run_case ~packaging seed with
      | [] -> true
      | problems ->
        QCheck.Test.fail_reportf "replay diverged: %s"
          (String.concat "; " problems))

let props =
  [ prop Audit.Included "e2e: random workloads replay (server-included)";
    prop Audit.Excluded "e2e: random workloads replay (server-excluded)";
    prop Audit.Ptu_baseline "e2e: random workloads replay (ptu)" ]

(* A deterministic multi-variant sweep as a plain test, so failures name
   the variant. *)
let test_variant_sweep () =
  List.iter
    (fun vid ->
      let audit =
        Ldv_fixtures.audit ~vid ~n_insert:5 ~n_update:2 ~n_select:2
          Audit.Included
      in
      let result = Replay.execute (Package.build audit) in
      Alcotest.(check (list string)) (vid ^ " replays") []
        (Replay.verify ~audit result))
    [ "Q1-2"; "Q2-3"; "Q3-3"; "Q4-3" ]

let suite =
  Alcotest.test_case "variant sweep (server-included)" `Slow test_variant_sweep
  :: List.map QCheck_alcotest.to_alcotest props

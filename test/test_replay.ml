open Ldv_core
module I = Dbclient.Interceptor

let test_included_replay_verifies () =
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Package.build audit in
  let result = Replay.execute pkg in
  Alcotest.(check (list string)) "no divergences" [] (Replay.verify ~audit result)

let test_excluded_replay_verifies () =
  let audit = Lazy.force Ldv_fixtures.excluded in
  let pkg = Package.build audit in
  let result = Replay.execute pkg in
  Alcotest.(check (list string)) "no divergences" [] (Replay.verify ~audit result)

let test_ptu_replay_verifies () =
  let audit = Lazy.force Ldv_fixtures.ptu in
  let pkg = Ptu.build audit in
  let result = Replay.execute pkg in
  Alcotest.(check (list string)) "no divergences" [] (Replay.verify ~audit result)

let test_excluded_replay_touches_no_db () =
  let audit = Lazy.force Ldv_fixtures.excluded in
  let pkg = Package.build audit in
  let prepared = Replay.prepare pkg in
  let db = Dbclient.Server.db prepared.Replay.server in
  let result = Replay.run prepared in
  (* the replay DB has no tables at all: every answer came from the
     recording *)
  Alcotest.(check (list string)) "db untouched" []
    (Minidb.Catalog.table_names (Minidb.Database.catalog db));
  Alcotest.(check (list string)) "yet replay verified" []
    (Replay.verify ~audit result)

let test_included_restores_exact_tids () =
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Package.build audit in
  let prepared = Replay.prepare pkg in
  let db = Dbclient.Server.db prepared.Replay.server in
  (* every tuple version in the package exists in the restored DB with the
     same identity *)
  let relevant = Slice.relevant audit in
  Minidb.Tid.Set.iter
    (fun tid ->
      let table =
        Minidb.Catalog.find (Minidb.Database.catalog db) tid.Minidb.Tid.table
      in
      Alcotest.(check bool)
        ("restored: " ^ Minidb.Tid.to_string tid)
        true
        (Minidb.Table.find_version table tid <> None))
    relevant

let test_tampered_recording_detected () =
  let audit = Lazy.force Ldv_fixtures.excluded in
  let pkg = Package.build audit in
  (* corrupt one recorded query's rows *)
  let tampered =
    { pkg with
      Package.recording =
        List.map
          (fun (r : Dbclient.Recorder.recorded) ->
            if r.Dbclient.Recorder.rec_kind = Dbclient.Recorder.Rquery then
              { r with Dbclient.Recorder.rec_rows = [] }
            else r)
          pkg.Package.recording }
  in
  let result = Replay.execute tampered in
  Alcotest.(check bool) "verification catches tampering" true
    (Replay.verify ~audit result <> [])

let test_replay_divergence_on_changed_program () =
  (* Bob modifies the app to issue a different query: server-excluded
     replay must refuse (§VII-D: no changes to queries) *)
  let audit = Lazy.force Ldv_fixtures.excluded in
  let pkg = Package.build audit in
  let rogue_program env =
    let conn = Dbclient.Client.connect env ~db:"tpch" in
    ignore (Dbclient.Client.query conn "SELECT count(*) FROM lineitem")
  in
  Alcotest.(check bool) "divergence raised" true
    (try
       ignore (Replay.execute ~program:rogue_program pkg);
       false
     with I.Replay_divergence _ -> true)

let test_included_allows_changed_program () =
  (* server-included replay supports similar experiments over the packaged
     subset: a different query over packaged tables runs fine *)
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Package.build audit in
  let got = ref (-1) in
  let alt_program env =
    let conn = Dbclient.Client.connect env ~db:"tpch" in
    let rows = Dbclient.Client.query conn "SELECT count(*) FROM lineitem" in
    (match rows with
    | [ [| Minidb.Value.Int n |] ] -> got := n
    | _ -> ());
    Dbclient.Client.close conn
  in
  ignore (Replay.execute ~program:alt_program pkg);
  (* the packaged subset contains exactly the lineitems the original
     queries touched *)
  let relevant = Slice.relevant audit in
  let expected =
    Minidb.Tid.Set.cardinal
      (Minidb.Tid.Set.filter
         (fun t -> t.Minidb.Tid.table = "lineitem")
         relevant)
  in
  Alcotest.(check int) "count over packaged subset" expected !got

let test_replay_is_itself_repeatable () =
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Package.build audit in
  let r1 = Replay.execute pkg in
  let r2 = Replay.execute pkg in
  Alcotest.(check int) "same number of fingerprints"
    (List.length r1.Replay.query_fingerprints)
    (List.length r2.Replay.query_fingerprints);
  List.iter2
    (fun (_, a) (_, b) -> Alcotest.(check string) "fingerprints equal" a b)
    r1.Replay.query_fingerprints r2.Replay.query_fingerprints

let test_roundtripped_package_replays () =
  (* serialize the package to bytes, read it back, replay: still verifies *)
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Package.of_bytes (Package.to_bytes (Package.build audit)) in
  let result = Replay.execute pkg in
  Alcotest.(check (list string)) "no divergences after roundtrip" []
    (Replay.verify ~audit result)

(* The included package with the rid and version of the first tuple of
   its first non-empty table subset replaced by [rid] and [version]. *)
let with_first_tuple ~rid ~version =
  let pkg = Package.build (Lazy.force Ldv_fixtures.included) in
  let done_ = ref false in
  let rewrite (table, csv) =
    match String.split_on_char '\n' csv with
    | header :: line :: rest when (not !done_) && line <> "" ->
      done_ := true;
      let fields = List.tl (List.tl (Minidb.Csv.split_line line)) in
      let line = Minidb.Csv.encode_line (rid :: version :: fields) in
      (table, String.concat "\n" (header :: line :: rest))
    | _ -> (table, csv)
  in
  { pkg with Package.db_subset = List.map rewrite pkg.Package.db_subset }

(* restoring the package must fail with a typed engine error of [kind] *)
let expect_restore_error ~kind ~rid ~version =
  match Replay.prepare (with_first_tuple ~rid ~version) with
  | _ -> Alcotest.failf "rid %S version %S was restored" rid version
  | exception Minidb.Errors.Db_error e ->
    Alcotest.(check string)
      (Printf.sprintf "rid %S version %S" rid version)
      kind
      (match e with
      | Minidb.Errors.Type_error _ -> "type error"
      | Minidb.Errors.Constraint_violation _ -> "constraint violation"
      | e -> Minidb.Errors.to_string e)

let test_non_integer_rid_or_version () =
  expect_restore_error ~kind:"type error" ~rid:"x7" ~version:"1";
  expect_restore_error ~kind:"type error" ~rid:"1" ~version:"1.5"

let test_rid_below_one () =
  expect_restore_error ~kind:"constraint violation" ~rid:"0" ~version:"1";
  expect_restore_error ~kind:"constraint violation" ~rid:"-4" ~version:"1"

(* a rid past the ceiling is refused before any slot is allocated *)
let test_rid_above_ceiling () =
  expect_restore_error ~kind:"constraint violation" ~rid:"99999999999999"
    ~version:"1"

let suite =
  [ Alcotest.test_case "included replay verifies" `Quick test_included_replay_verifies;
    Alcotest.test_case "excluded replay verifies" `Quick test_excluded_replay_verifies;
    Alcotest.test_case "ptu replay verifies" `Quick test_ptu_replay_verifies;
    Alcotest.test_case "excluded replay touches no DB" `Quick
      test_excluded_replay_touches_no_db;
    Alcotest.test_case "included restores exact tids" `Quick
      test_included_restores_exact_tids;
    Alcotest.test_case "tampering detected" `Quick test_tampered_recording_detected;
    Alcotest.test_case "excluded rejects changed program" `Quick
      test_replay_divergence_on_changed_program;
    Alcotest.test_case "included allows changed program" `Quick
      test_included_allows_changed_program;
    Alcotest.test_case "replay of replay" `Quick test_replay_is_itself_repeatable;
    Alcotest.test_case "roundtripped package replays" `Quick
      test_roundtripped_package_replays;
    Alcotest.test_case "package rid or version not an integer" `Quick
      test_non_integer_rid_or_version;
    Alcotest.test_case "package rid below 1" `Quick test_rid_below_one;
    Alcotest.test_case "package rid above the ceiling" `Quick
      test_rid_above_ceiling ]

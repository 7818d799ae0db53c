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
  let pkg = Package.build audit in
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

(* ---------------- packaged indexes ------------------------------ *)

let replay_db (p : Replay.prepared) = Dbclient.Server.db p.Replay.server

(* The restored tables carry the audited tables' indexes, and the replay
   plans a point read of orders on the audit's own access path. *)
let test_replay_uses_packaged_indexes () =
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Package.of_bytes (Package.to_bytes (Package.build audit)) in
  Alcotest.(check bool) "orders ships its index" true
    (List.mem_assoc "orders" pkg.Package.db_indexes);
  let prepared = Replay.prepare pkg in
  let audited =
    Minidb.Database.catalog (Dbclient.Server.db audit.Audit.server)
  in
  let replayed = Minidb.Database.catalog (replay_db prepared) in
  List.iter
    (fun name ->
      Alcotest.(check (list (triple string string bool)))
        (name ^ " index specs")
        (Minidb.Table.index_specs (Minidb.Catalog.find audited name))
        (Minidb.Table.index_specs (Minidb.Catalog.find replayed name)))
    (Minidb.Catalog.table_names replayed);
  (match
     Minidb.Database.query (replay_db prepared)
       "EXPLAIN SELECT o_totalprice FROM orders WHERE o_orderkey = 7"
   with
  | { Minidb.Executor.rows =
        [ { Minidb.Executor.values = [| Minidb.Value.Str plan |]; _ } ];
      _ } ->
    Alcotest.(check bool) ("hash index scan: " ^ plan) true
      (Fixtures.contains_substring ~needle:"indexscan(orders.orders_pk)" plan)
  | _ -> Alcotest.fail "EXPLAIN returned no plan");
  Alcotest.(check (list string)) "replay verified" []
    (Replay.verify ~audit (Replay.run prepared))

(* A package written without index sections (as before they existed)
   replays unindexed and still verifies. *)
let test_package_without_indexes_replays () =
  let audit = Lazy.force Ldv_fixtures.included in
  let data =
    Package.to_bytes { (Package.build audit) with Package.db_indexes = [] }
  in
  Alcotest.(check bool) "no index section" false
    (Fixtures.contains_substring ~needle:"\n@index:" data);
  let prepared = Replay.prepare (Package.of_bytes data) in
  Minidb.Catalog.iter (Minidb.Database.catalog (replay_db prepared)) (fun t ->
      Alcotest.(check (list string)) (Minidb.Table.name t ^ " unindexed") []
        (Minidb.Table.index_names t));
  Alcotest.(check (list string)) "replay verified" []
    (Replay.verify ~audit (Replay.run prepared))

(* Index lines that name a missing table or column, or are not a CREATE
   INDEX at all, are skipped and counted; the rest are created. *)
let test_bad_index_lines_skipped () =
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Package.build audit in
  let bad =
    [ ("ghost", "CREATE INDEX ghost_k ON ghost (k)");
      ( "orders",
        "CREATE INDEX orders_x ON orders (no_such_column)\n\
         DROP TABLE orders\n\
         CREATE INDEX" ) ]
  in
  let pkg =
    Package.of_bytes
      (Package.to_bytes
         { pkg with Package.db_indexes = pkg.Package.db_indexes @ bad })
  in
  Ldv_obs.set_sink Ldv_obs.Memory;
  Ldv_obs.reset ();
  let prepared, skipped =
    Fun.protect
      ~finally:(fun () ->
        Ldv_obs.set_sink Ldv_obs.Null;
        Ldv_obs.reset ())
      (fun () ->
        let prepared = Replay.prepare pkg in
        ( prepared,
          List.assoc_opt "replay.skipped_indexes"
            (Ldv_obs.snapshot ()).Ldv_obs.counters ))
  in
  Alcotest.(check (option int)) "four lines skipped" (Some 4) skipped;
  let catalog = Minidb.Database.catalog (replay_db prepared) in
  Alcotest.(check bool) "no ghost table" false
    (Minidb.Catalog.mem catalog "ghost");
  Alcotest.(check (list string)) "orders keeps only its own index"
    [ "orders_pk" ]
    (Minidb.Table.index_names (Minidb.Catalog.find catalog "orders"));
  Alcotest.(check (list string)) "replay verified" []
    (Replay.verify ~audit (Replay.run prepared))

(* A package CSV row with its rid and version fields replaced. Neither
   is ever quoted, so the line's first two commas end them. *)
let with_rid_version line ~rid ~version =
  let values = String.index_from line (String.index line ',' + 1) ',' in
  String.concat ""
    [ rid; ","; version; String.sub line values (String.length line - values) ]

(* The included package with the rid and version of the first tuple of
   its first non-empty table subset replaced by [rid] and [version]. *)
let with_first_tuple ~rid ~version =
  let pkg = Package.build (Lazy.force Ldv_fixtures.included) in
  let done_ = ref false in
  let rewrite (table, csv) =
    match String.split_on_char '\n' csv with
    | header :: line :: rest when (not !done_) && line <> "" ->
      done_ := true;
      let line = with_rid_version line ~rid ~version in
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

(* A version outside 0 .. 2^36 - 1 would pack into another tuple's id:
   refused with a typed error. The rewritten row is one whose rid occurs
   once in its table's subset, so no other version of it could refuse
   the restore instead. *)
let with_lone_version ~version =
  let pkg = Package.build (Lazy.force Ldv_fixtures.included) in
  let done_ = ref false in
  let rewrite (table, csv) =
    match String.split_on_char '\n' csv with
    | header :: lines when not !done_ ->
      let rid_of line = String.sub line 0 (String.index line ',') in
      let rids = List.map rid_of (List.filter (( <> ) "") lines) in
      let lone line =
        line <> ""
        && List.length (List.filter (String.equal (rid_of line)) rids) = 1
      in
      let lines =
        List.map
          (fun line ->
            if (not !done_) && lone line then begin
              done_ := true;
              with_rid_version line ~rid:(rid_of line) ~version
            end
            else line)
          lines
      in
      (table, String.concat "\n" (header :: lines))
    | _ -> (table, csv)
  in
  let pkg = { pkg with Package.db_subset = List.map rewrite pkg.Package.db_subset } in
  Alcotest.(check bool) "a lone-rid row was rewritten" true !done_;
  pkg

let test_version_outside_packed_range () =
  List.iter
    (fun version ->
      match Replay.prepare (with_lone_version ~version) with
      | _ -> Alcotest.failf "version %s was restored" version
      | exception Minidb.Errors.Db_error (Minidb.Errors.Constraint_violation _)
        ->
        ())
    [ string_of_int (1 lsl 36); "-1" ]

(* A schema section runs only as a CREATE TABLE of its own table. The
   crafted [schema:zz] section decodes after [schema:orders], so a DROP
   there would remove orders before its rows are restored. *)
let with_schema_section ddl =
  let pkg = Package.build (Lazy.force Ldv_fixtures.included) in
  Package.of_bytes
    (Package.to_bytes
       { pkg with Package.db_schemas = pkg.Package.db_schemas @ [ ("zz", ddl) ] })

let check_schema_section_skipped ddl =
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = with_schema_section ddl in
  Ldv_obs.set_sink Ldv_obs.Memory;
  Ldv_obs.reset ();
  let prepared, skipped =
    Fun.protect
      ~finally:(fun () ->
        Ldv_obs.set_sink Ldv_obs.Null;
        Ldv_obs.reset ())
      (fun () ->
        let prepared = Replay.prepare pkg in
        ( prepared,
          List.assoc_opt "replay.skipped_schemas"
            (Ldv_obs.snapshot ()).Ldv_obs.counters ))
  in
  Alcotest.(check (option int)) "one schema section skipped" (Some 1) skipped;
  let catalog = Minidb.Database.catalog (replay_db prepared) in
  Alcotest.(check bool) "no zz table" false (Minidb.Catalog.mem catalog "zz");
  let audited = Minidb.Database.catalog (Dbclient.Server.db audit.Audit.server) in
  let restored_orders =
    List.length
      (Minidb.Csv.decode_versions (List.assoc "orders" pkg.Package.db_subset))
  in
  Alcotest.(check bool) "orders restored" true
    (Minidb.Catalog.mem catalog "orders"
    && Minidb.Table.row_count (Minidb.Catalog.find catalog "orders")
       = restored_orders
    && Minidb.Table.schema (Minidb.Catalog.find catalog "orders")
       = Minidb.Table.schema (Minidb.Catalog.find audited "orders"));
  Alcotest.(check (list string)) "replay verified" []
    (Replay.verify ~audit (Replay.run prepared))

let test_schema_section_drop_skipped () =
  check_schema_section_skipped "DROP TABLE orders"

let test_schema_section_malformed_skipped () =
  check_schema_section_skipped "CREATE TABLE"

(* ---------------- subqueries under a server-included audit -------- *)

let subquery_db () =
  let db = Minidb.Database.create () in
  ignore
    (Minidb.Database.exec_script db
       "CREATE TABLE emp (id INT, dno INT, sal INT);\n\
        CREATE TABLE dept (dno INT, name TEXT);\n\
        CREATE TABLE lim (cap INT);\n\
        INSERT INTO emp VALUES (1, 1, 10), (2, 1, 30), (3, 2, 20), (4, 3, 40), \
        (5, 2, 5);\n\
        INSERT INTO dept VALUES (1, 'ops'), (2, 'lab'), (3, 'hq');\n\
        INSERT INTO lim VALUES (25)");
  db

(* A tiny app over [db] that runs [stmts] in order and writes one line
   per statement to /out/[name]: a query's rows, or a write's affected
   count. *)
let audit_app db ~name stmts =
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel db in
  let binary = "/bin/" ^ name in
  Minios.Vfs.write_opaque (Minios.Kernel.vfs kernel) ~path:binary 1000;
  let program env =
    let conn = Dbclient.Client.connect env ~db:"main" in
    let line sql =
      if String.starts_with ~prefix:"SELECT" sql then
        Dbclient.Client.query conn sql
        |> List.map (fun row ->
               Array.to_list row
               |> List.map Minidb.Value.to_raw_string
               |> String.concat ",")
        |> String.concat ";"
      else string_of_int (Dbclient.Client.exec conn sql)
    in
    Minios.Program.write_file env ("/out/" ^ name)
      (String.concat "\n" (List.map line stmts));
    Dbclient.Client.close conn
  in
  let app_name = "app-" ^ name in
  Minios.Program.register ~name:app_name program;
  Audit.run ~packaging:Audit.Included kernel server ~app_name
    ~app_binary:binary program

let audit_subquery_app ~name stmts = audit_app (subquery_db ()) ~name stmts

(* The subquery's conservative provenance puts the tuples it read into
   the package: [table]'s subset must carry a tuple holding [value]. *)
let check_subset_has pkg ~table ~value =
  let csv =
    match List.assoc_opt table pkg.Package.db_subset with
    | Some csv -> csv
    | None -> Alcotest.failf "no %s subset in the package" table
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s subset carries the subquery's %s tuple" table
       (Minidb.Value.to_string value))
    true
    (List.exists
       (fun (_, _, values) -> Array.exists (Minidb.Value.equal value) values)
       (Minidb.Csv.decode_versions csv))

(* Each app must audit with its subqueries evaluated, round-trip through
   the package bytes, and replay without divergence. *)
let test_subquery_app ~name ~stmts ~output ~table ~value () =
  let audit = audit_subquery_app ~name stmts in
  Alcotest.(check (option string)) "audited output" (Some output)
    (List.assoc_opt ("/out/" ^ name) audit.Audit.out_files);
  let pkg = Package.of_bytes (Package.to_bytes (Package.build audit)) in
  check_subset_has pkg ~table ~value;
  Alcotest.(check (list string)) "no divergences" []
    (Replay.verify ~audit (Replay.execute pkg))

let subquery_cases =
  [ ( "IN subquery",
      test_subquery_app ~name:"in-select"
        ~stmts:
          [ "SELECT id FROM emp WHERE dno IN (SELECT dno FROM dept WHERE \
             name = 'lab')" ]
        ~output:"3;5" ~table:"dept" ~value:(Minidb.Value.Str "lab") );
    ( "scalar subquery threshold",
      test_subquery_app ~name:"scalar-threshold"
        ~stmts:[ "SELECT id, sal FROM emp WHERE sal > (SELECT cap FROM lim)" ]
        ~output:"2,30;4,40" ~table:"lim" ~value:(Minidb.Value.Int 25) );
    ( "UPDATE with IN subquery",
      test_subquery_app ~name:"update-in-select"
        ~stmts:
          [ "UPDATE emp SET sal = sal + 1 WHERE dno IN (SELECT dno FROM dept \
             WHERE name = 'ops')";
            "SELECT id, sal FROM emp WHERE dno = 1" ]
        ~output:"2\n1,11;2,31" ~table:"dept" ~value:(Minidb.Value.Str "ops") );
    ( "DELETE with EXISTS",
      test_subquery_app ~name:"delete-exists"
        ~stmts:
          [ "DELETE FROM emp WHERE sal < 15 AND EXISTS (SELECT dno FROM dept \
             WHERE name = 'hq')";
            "SELECT COUNT(*) FROM emp" ]
        ~output:"2\n3" ~table:"dept" ~value:(Minidb.Value.Str "hq") ) ]

(* ---------------- TEXT values holding line breaks ---------------- *)

(* A line break inside a TEXT value is quoted in the package CSV; the
   package must copy each row whole and the restore must read the quoted
   field across it. *)
let test_newline_text_replays () =
  let db = Minidb.Database.create () in
  ignore (Minidb.Database.exec db "CREATE TABLE notes (k INT, body TEXT)");
  ignore
    (Minidb.Database.exec db
       "INSERT INTO notes VALUES (1, 'one'), (2, 'two\nlines'), (3, 'a\r\nb')");
  let audit = audit_app db ~name:"notes" [ "SELECT k, body FROM notes" ] in
  Alcotest.(check (option string)) "audited output"
    (Some "1,one;2,two\nlines;3,a\r\nb")
    (List.assoc_opt "/out/notes" audit.Audit.out_files);
  let built = Package.build audit in
  Ldv_fixtures.check_subset_is_reference audit built;
  let pkg = Package.of_bytes (Package.to_bytes built) in
  Alcotest.(check (list string)) "no divergences" []
    (Replay.verify ~audit (Replay.execute pkg));
  check_subset_has pkg ~table:"notes" ~value:(Minidb.Value.Str "two\nlines")

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
    Alcotest.test_case "replay plans on the packaged indexes" `Quick
      test_replay_uses_packaged_indexes;
    Alcotest.test_case "package without index sections replays" `Quick
      test_package_without_indexes_replays;
    Alcotest.test_case "bad index lines skipped and counted" `Quick
      test_bad_index_lines_skipped;
    Alcotest.test_case "roundtripped package replays" `Quick
      test_roundtripped_package_replays;
    Alcotest.test_case "package rid or version not an integer" `Quick
      test_non_integer_rid_or_version;
    Alcotest.test_case "package rid below 1" `Quick test_rid_below_one;
    Alcotest.test_case "package rid above the ceiling" `Quick
      test_rid_above_ceiling;
    Alcotest.test_case "package version outside the packed range" `Quick
      test_version_outside_packed_range;
    Alcotest.test_case "package schema section holding a DROP is skipped"
      `Quick test_schema_section_drop_skipped;
    Alcotest.test_case "malformed package schema section is skipped" `Quick
      test_schema_section_malformed_skipped ]
  @ List.map
      (fun (name, f) ->
        Alcotest.test_case ("server-included audit: " ^ name) `Quick f)
      subquery_cases
  @ [ Alcotest.test_case "server-included audit: TEXT with line breaks"
        `Quick test_newline_text_replays ]

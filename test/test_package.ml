open Ldv_core

let entry_paths (pkg : Package.t) =
  List.map (fun (e : Package.entry) -> e.Package.e_path) pkg.Package.entries

let test_included_contents () =
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Package.build audit in
  Alcotest.(check bool) "kind" true (pkg.Package.kind = Package.Server_included);
  let paths = entry_paths pkg in
  let server = audit.Audit.server in
  Alcotest.(check bool) "server binary included" true
    (List.mem (Dbclient.Server.binary_path server) paths);
  Alcotest.(check bool) "app binary included" true
    (List.mem "/app/bin/tpch-app" paths);
  Alcotest.(check bool) "config included" true
    (List.mem "/app/etc/app.conf" paths);
  (* raw DB data files are excluded in favour of the CSV subset *)
  Alcotest.(check bool) "no raw data files" true
    (List.for_all
       (fun p ->
         not (Fixtures.contains_substring ~needle:"/var/minidb/data" p))
       paths);
  Alcotest.(check bool) "csv subset present" true (pkg.Package.db_subset <> []);
  Alcotest.(check bool) "ddl present" true (pkg.Package.db_schemas <> []);
  Alcotest.(check (option string)) "orders ships its index"
    (Some "CREATE INDEX orders_pk ON orders (o_orderkey)")
    (List.assoc_opt "orders" pkg.Package.db_indexes);
  Alcotest.(check bool) "no recording" true (pkg.Package.recording = [])

let test_excluded_contents () =
  let audit = Lazy.force Ldv_fixtures.excluded in
  let pkg = Package.build audit in
  let paths = entry_paths pkg in
  let server = audit.Audit.server in
  Alcotest.(check bool) "no server binary" false
    (List.mem (Dbclient.Server.binary_path server) paths);
  Alcotest.(check bool) "no server libs" true
    (List.for_all
       (fun l -> not (List.mem l paths))
       (Dbclient.Server.lib_paths server));
  Alcotest.(check bool) "recording present" true (pkg.Package.recording <> []);
  Alcotest.(check bool) "no csvs" true (pkg.Package.db_subset = [])

let test_ptu_contents () =
  let audit = Lazy.force Ldv_fixtures.ptu in
  let pkg = Package.build audit in
  let paths = entry_paths pkg in
  Alcotest.(check bool) "full data files included" true
    (List.exists
       (Fixtures.contains_substring ~needle:"/var/minidb/data")
       paths);
  Alcotest.(check bool) "server binary included" true
    (List.mem (Dbclient.Server.binary_path audit.Audit.server) paths)

let test_size_ordering () =
  (* Figure 9's headline: PTU > server-included > server-excluded for a
     low-selectivity query. The DB-content gap only dominates the trace
     overhead once there is enough data relative to the query's
     selectivity, so this test uses its own instance (1% selectivity). *)
  let run packaging =
    Ldv_fixtures.audit_at ~sf:0.002 ~vid:"Q1-1" ~n_insert:5 ~n_update:2
      ~n_select:2 packaging
  in
  let ptu = Package.build (run Audit.Ptu_baseline) in
  let inc = Package.build (run Audit.Included) in
  let exc = Package.build (run Audit.Excluded) in
  let p = Package.total_bytes ptu
  and i = Package.total_bytes inc
  and e = Package.total_bytes exc in
  Alcotest.(check bool) (Printf.sprintf "ptu (%d) > included (%d)" p i) true (p > i);
  Alcotest.(check bool) (Printf.sprintf "included (%d) > excluded (%d)" i e) true (i > e);
  (* the DB-content portions make the point even more starkly: the full
     data files dwarf the relevant subset, which dwarfs nothing at all *)
  let ptu_data =
    List.fold_left
      (fun acc (en : Package.entry) ->
        if Fixtures.contains_substring ~needle:"/var/minidb/data" en.Package.e_path
        then acc + en.Package.e_size
        else acc)
      0 ptu.Package.entries
  in
  Alcotest.(check bool) "full data files exceed the csv subset" true
    (ptu_data > Package.db_subset_bytes inc)

let test_table3_matrix () =
  let ptu = Package.summarize (Package.build (Lazy.force Ldv_fixtures.ptu)) in
  let inc = Package.summarize (Package.build (Lazy.force Ldv_fixtures.included)) in
  let exc = Package.summarize (Package.build (Lazy.force Ldv_fixtures.excluded)) in
  Alcotest.(check bool) "PTU: server, full data, no DB provenance" true
    (ptu.Package.has_db_server
    && ptu.Package.data_files = `Full
    && not ptu.Package.has_db_provenance);
  Alcotest.(check bool) "included: server, empty data, provenance" true
    (inc.Package.has_db_server
    && inc.Package.data_files = `Empty
    && inc.Package.has_db_provenance);
  Alcotest.(check bool) "excluded: no server, provenance" true
    ((not exc.Package.has_db_server)
    && exc.Package.data_files = `None
    && exc.Package.has_db_provenance)

let test_serialization_roundtrip () =
  let pkg = Package.build (Lazy.force Ldv_fixtures.included) in
  let pkg' = Package.of_bytes (Package.to_bytes pkg) in
  Alcotest.(check bool) "kind survives" true (pkg'.Package.kind = pkg.Package.kind);
  Alcotest.(check string) "app name survives" pkg.Package.app_name pkg'.Package.app_name;
  Alcotest.(check int) "entries survive" (List.length pkg.Package.entries)
    (List.length pkg'.Package.entries);
  Alcotest.(check int) "csvs survive" (List.length pkg.Package.db_subset)
    (List.length pkg'.Package.db_subset);
  Alcotest.(check string) "trace survives" pkg.Package.trace_data pkg'.Package.trace_data;
  (* a package with a recording also round-trips *)
  let exc = Package.build (Lazy.force Ldv_fixtures.excluded) in
  let exc' = Package.of_bytes (Package.to_bytes exc) in
  Alcotest.(check int) "recording survives" (List.length exc.Package.recording)
    (List.length exc'.Package.recording)

let test_trace_embedded () =
  let pkg = Package.build (Lazy.force Ldv_fixtures.included) in
  let trace = Package.trace pkg in
  let stats = Prov.Query.stats trace in
  Alcotest.(check int) "statements preserved in packaged trace" 17
    stats.Prov.Query.statements

let test_manifest () =
  let pkg = Package.build (Lazy.force Ldv_fixtures.included) in
  let manifest = Package.manifest pkg in
  Alcotest.(check bool) "manifest lists the trace" true
    (List.mem_assoc "trace.ldv" manifest);
  let sum = List.fold_left (fun a (_, s) -> a + s) 0 manifest in
  Alcotest.(check bool) "manifest sizes roughly total" true
    (sum <= Package.total_bytes pkg + 4096)

(* Every byte [total_bytes] counts has a manifest row: the DDL of each
   table, its index lines included, is its db/<table>.sql row. *)
let test_manifest_sums_to_total () =
  List.iter
    (fun (kind, pkg) ->
      let manifest = Package.manifest pkg in
      Alcotest.(check int)
        (kind ^ ": manifest rows add up to the total size")
        (Package.total_bytes pkg)
        (List.fold_left (fun a (_, s) -> a + s) 0 manifest))
    [ ("server-included", Package.build (Lazy.force Ldv_fixtures.included));
      ("server-excluded", Package.build (Lazy.force Ldv_fixtures.excluded));
      ("ptu", Package.build (Lazy.force Ldv_fixtures.ptu)) ];
  let pkg = Package.build (Lazy.force Ldv_fixtures.included) in
  let ddl = List.assoc "orders" pkg.Package.db_schemas
  and lines = List.assoc "orders" pkg.Package.db_indexes in
  Alcotest.(check (option int)) "orders.sql holds its table and index DDL"
    (Some (String.length ddl + String.length lines))
    (List.assoc_opt "db/orders.sql" (Package.manifest pkg))

let suite =
  [ Alcotest.test_case "included contents" `Quick test_included_contents;
    Alcotest.test_case "excluded contents" `Quick test_excluded_contents;
    Alcotest.test_case "ptu contents" `Quick test_ptu_contents;
    Alcotest.test_case "size ordering" `Quick test_size_ordering;
    Alcotest.test_case "Table III matrix" `Quick test_table3_matrix;
    Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
    Alcotest.test_case "embedded trace" `Quick test_trace_embedded;
    Alcotest.test_case "manifest" `Quick test_manifest;
    Alcotest.test_case "manifest sums to the total size" `Quick
      test_manifest_sums_to_total ]

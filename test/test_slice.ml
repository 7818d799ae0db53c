open Minidb
open Ldv_core
module I = Dbclient.Interceptor

let test_relevant_excludes_app_created () =
  let audit = Lazy.force Ldv_fixtures.included in
  let relevant = Slice.relevant audit in
  let created = Slice.created_by_app (I.log audit.Audit.session) in
  Alcotest.(check bool) "some tuples relevant" true
    (not (Tid.Set.is_empty relevant));
  Alcotest.(check bool) "app-created versions excluded" true
    (Tid.Set.is_empty (Tid.Set.inter relevant (Lineage.to_set created)));
  (* no synthetic query-result tuples in the slice *)
  Alcotest.(check bool) "no transient result tuples" true
    (Tid.Set.for_all (fun tid -> not (I.is_result_tid tid)) relevant)

let test_relevant_matches_trace_computation () =
  let audit = Lazy.force Ldv_fixtures.included in
  let via_log = Slice.relevant audit in
  let via_trace = Slice.relevant_via_trace audit.Audit.trace in
  Alcotest.(check bool)
    (Printf.sprintf "log-based (%d) = trace-based (%d)"
       (Tid.Set.cardinal via_log) (Tid.Set.cardinal via_trace))
    true
    (Tid.Set.equal via_log via_trace)

let test_updated_tuples_pre_versions_included () =
  (* the update step touches orders rows; their pre-versions must be in
     the slice so the update can re-run *)
  let audit = Lazy.force Ldv_fixtures.included in
  let relevant = Slice.relevant audit in
  let order_tuples =
    Tid.Set.filter (fun tid -> tid.Tid.table = "orders") relevant
  in
  Alcotest.(check bool) "pre-versions of updated orders present" true
    (Tid.Set.cardinal order_tuples >= 4)

let test_slice_smaller_than_db () =
  let audit = Lazy.force Ldv_fixtures.included in
  let db = Dbclient.Server.db audit.Audit.server in
  let relevant = Slice.relevant audit in
  let total_live =
    List.fold_left
      (fun acc name ->
        acc + Table.row_count (Catalog.find (Database.catalog db) name))
      0
      (Catalog.table_names (Database.catalog db))
  in
  Alcotest.(check bool)
    (Printf.sprintf "slice (%d) well below DB size (%d)"
       (Tid.Set.cardinal relevant) total_live)
    true
    (Tid.Set.cardinal relevant * 2 < total_live)

let test_to_csvs_roundtrip () =
  let audit = Lazy.force Ldv_fixtures.included in
  let db = Dbclient.Server.db audit.Audit.server in
  let relevant = Slice.relevant audit in
  let csvs = Slice.to_csvs db relevant in
  let total_rows =
    List.fold_left
      (fun acc (_, csv) -> acc + List.length (Csv.decode_versions csv))
      0 csvs
  in
  Alcotest.(check int) "every relevant tuple serialized"
    (Tid.Set.cardinal relevant) total_rows;
  Alcotest.(check bool) "subset bytes positive" true
    (Slice.subset_bytes_of_csvs
       (Slice.lineage_csvs db (Slice.relevant_lineage audit))
    > 0)

let test_schema_ddl_covers_tables () =
  let audit = Lazy.force Ldv_fixtures.included in
  let db = Dbclient.Server.db audit.Audit.server in
  let relevant = Slice.relevant audit in
  let tables =
    Tid.Set.fold (fun tid acc -> tid.Tid.table :: acc) relevant []
    |> List.sort_uniq compare
  in
  let ddl =
    Slice.schema_ddl_for db
      (Slice.lineage_tables audit (Slice.relevant_lineage audit))
  in
  Alcotest.(check (list string)) "one DDL per accessed table" tables
    (List.map fst ddl);
  (* the DDL parses *)
  List.iter
    (fun (_, sql) ->
      match Sql_parser.parse sql with
      | Sql_ast.Create_table _ -> ()
      | _ -> Alcotest.fail "expected CREATE TABLE")
    ddl

let test_lineage_sufficiency_of_slice () =
  (* re-running the audited queries against a DB restricted to the slice
     plus the app's own writes returns identical results — the property
     that makes server-included replay work *)
  let audit = Lazy.force Ldv_fixtures.included in
  let db = Dbclient.Server.db audit.Audit.server in
  let relevant = Slice.relevant audit in
  let restricted = Fixtures.restrict_db db relevant in
  List.iter
    (fun (s : I.stmt_event) ->
      if s.I.kind = I.Squery then begin
        (* note: the full DB at this point includes the app's inserts and
           updates, which the audited query saw; restrict to slice +
           app-created *)
        let created = Slice.created_by_app (I.log audit.Audit.session) in
        let full =
          Fixtures.restrict_db db
            (Tid.Set.union relevant (Lineage.to_set created))
        in
        let r = Database.query full s.I.sql in
        Alcotest.(check int)
          ("row count preserved for " ^ s.I.sql_norm)
          (List.length s.I.rows)
          (List.length r.Executor.rows)
      end)
    (I.log audit.Audit.session);
  ignore restricted

let suite =
  [ Alcotest.test_case "excludes app-created" `Quick test_relevant_excludes_app_created;
    Alcotest.test_case "log-based = trace-based" `Quick test_relevant_matches_trace_computation;
    Alcotest.test_case "update pre-versions" `Quick test_updated_tuples_pre_versions_included;
    Alcotest.test_case "slice below DB size" `Quick test_slice_smaller_than_db;
    Alcotest.test_case "csv round trip" `Quick test_to_csvs_roundtrip;
    Alcotest.test_case "schema ddl" `Quick test_schema_ddl_covers_tables;
    Alcotest.test_case "slice sufficiency" `Quick test_lineage_sufficiency_of_slice ]

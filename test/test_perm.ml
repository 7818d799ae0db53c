open Minidb

let test_query_lineage_matches_executor () =
  let db = Fixtures.sales_db () in
  let sql = "SELECT sum(price) AS ttl FROM sales WHERE price > 10" in
  let prov = Perm.Provenance_sql.query_lineage db sql in
  let direct = Database.query db sql in
  Alcotest.(check int) "same row count" (List.length direct.Executor.rows)
    (List.length prov.Perm.Provenance_sql.rows);
  Alcotest.(check bool) "lineage equals executor lineage" true
    (Tid.Set.equal
       (Perm.Provenance_sql.total_lineage prov)
       (Lineage.to_set (Executor.result_lineage direct)));
  Alcotest.(check (list string)) "read tables" [ "sales" ]
    prov.Perm.Provenance_sql.read_tables

let test_witnesses_and_derivations () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (x INT)");
  ignore (Database.exec db "INSERT INTO t VALUES (1), (1)");
  let prov = Perm.Provenance_sql.query_lineage db "SELECT DISTINCT x FROM t" in
  match prov.Perm.Provenance_sql.rows with
  | [ row ] ->
    Alcotest.(check int) "two derivations" 2
      (Lazy.force row.Perm.Provenance_sql.derivations);
    Alcotest.(check int) "two witnesses" 2
      (List.length (Lazy.force row.Perm.Provenance_sql.witnesses))
  | _ -> Alcotest.fail "expected one distinct row"

let test_reenactment_query_text () =
  let stmt = Sql_parser.parse "UPDATE t SET x = 1 WHERE y > 2" in
  Alcotest.(check string) "reenactment is a select of affected rows"
    "SELECT * FROM t WHERE y > 2"
    (Perm.Reenact.reenactment_query stmt);
  let del = Sql_parser.parse "DELETE FROM t" in
  Alcotest.(check string) "delete reenactment" "SELECT * FROM t"
    (Perm.Reenact.reenactment_query del)

(* Reenact-then-execute, as the interceptor does it: the captured
   pre-state is exactly what the update then reads. *)
let test_reenact_update () =
  let db = Fixtures.sales_db () in
  let stmt = Sql_parser.parse "UPDATE sales SET price = price + 1 WHERE price > 10" in
  let r = Perm.Reenact.capture db stmt in
  Alcotest.(check int) "pre-state has the two affected rows" 2
    (List.length r.Perm.Reenact.pre_state.Perm.Provenance_sql.rows);
  let info =
    match stmt with
    | Sql_ast.Update { table; sets; where } ->
      Database.run_update db ~table ~sets ~where
    | _ -> Alcotest.fail "expected an UPDATE"
  in
  Alcotest.(check int) "two updated" 2 info.Database.count;
  (* pre-state lineage = versions read by the update *)
  Alcotest.(check bool) "reenactment lineage = dml read set" true
    (Tid.Set.equal
       (Perm.Provenance_sql.total_lineage r.Perm.Reenact.pre_state)
       (Tid.Set.of_list info.Database.read));
  Fixtures.check_rows "update applied" [ "1|5"; "2|12"; "3|15" ]
    (Database.query db "SELECT id, price FROM sales")

let test_reenact_insert_has_no_prestate () =
  let db = Fixtures.sales_db () in
  let stmt = Sql_parser.parse "INSERT INTO sales VALUES (9, 9)" in
  Alcotest.(check bool) "no reenactment for insert" true
    (match Perm.Reenact.capture db stmt with
    | _ -> false
    | exception Errors.Db_error (Errors.Unsupported _) -> true);
  let info =
    match stmt with
    | Sql_ast.Insert { table; columns; source } ->
      Database.run_insert db ~table ~columns ~source
    | _ -> Alcotest.fail "expected an INSERT"
  in
  Alcotest.(check int) "one row" 1 info.Database.count

let test_versioning_usage () =
  let db = Fixtures.sales_db () in
  let v = Perm.Versioning.create db in
  Alcotest.(check bool) "first enable true" true (Perm.Versioning.enable_table v "sales");
  Alcotest.(check bool) "second enable false" false (Perm.Versioning.enable_table v "sales");
  Alcotest.(check (list string)) "enabled tables" [ "sales" ]
    (Perm.Versioning.enabled_tables v);
  let tid = Tid.make ~table:"sales" ~rid:1 ~version:2 in
  Perm.Versioning.record_usage v (Lineage.singleton tid) ~qid:7 ~pid:3 ~at:11;
  (match Perm.Versioning.usages_of v tid with
  | [ u ] ->
    Alcotest.(check int) "qid" 7 u.Perm.Versioning.used_by_qid;
    Alcotest.(check int) "pid" 3 u.Perm.Versioning.used_by_pid
  | _ -> Alcotest.fail "expected one usage");
  Alcotest.(check (list string)) "used tids" [ "sales:1@2" ]
    (List.map Tid.to_string (Perm.Versioning.used_tids v))

let test_versioning_lookup () =
  let db = Fixtures.sales_db () in
  let v = Perm.Versioning.create db in
  ignore (Database.exec db "UPDATE sales SET price = 99 WHERE id = 1");
  (* live version of rid 1 is now the updated one *)
  match Perm.Versioning.live_version v ~table:"sales" ~rid:1 with
  | Some tid -> (
    match Perm.Versioning.lookup_version v tid with
    | Some values ->
      Alcotest.(check bool) "live values updated" true
        (Value.equal values.(1) (Value.Int 99))
    | None -> Alcotest.fail "version should resolve")
  | None -> Alcotest.fail "live version should exist"

let suite =
  [ Alcotest.test_case "query lineage" `Quick test_query_lineage_matches_executor;
    Alcotest.test_case "witnesses and derivations" `Quick test_witnesses_and_derivations;
    Alcotest.test_case "reenactment query" `Quick test_reenactment_query_text;
    Alcotest.test_case "reenact update" `Quick test_reenact_update;
    Alcotest.test_case "insert has no pre-state" `Quick test_reenact_insert_has_no_prestate;
    Alcotest.test_case "versioning usage" `Quick test_versioning_usage;
    Alcotest.test_case "versioning lookup" `Quick test_versioning_lookup ]

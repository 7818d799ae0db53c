(* Edge cases and error paths across the stack. *)

open Minidb

let q = Database.query

let small () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (x INT, s TEXT)");
  ignore
    (Database.exec db "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, NULL)");
  db

(* ---------------- executor corners ---------------- *)

let test_limit_zero_and_overshoot () =
  let db = small () in
  Fixtures.check_rows "limit 0" [] (q db "SELECT x FROM t LIMIT 0");
  Fixtures.check_rows "limit beyond size" [ "1"; "2"; "3" ]
    (q db "SELECT x FROM t LIMIT 99")

let test_group_by_null_key () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE g (k TEXT, v INT)");
  ignore
    (Database.exec db
       "INSERT INTO g VALUES (NULL, 1), (NULL, 2), ('a', 3)");
  (* NULL keys form a single group, as in SQL GROUP BY *)
  Fixtures.check_rows "null group collapses" [ "|3"; "a|3" ]
    (q db "SELECT k, sum(v) FROM g GROUP BY k")

let test_aggregate_all_nulls () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE n (v INT)");
  ignore (Database.exec db "INSERT INTO n VALUES (NULL), (NULL)");
  Fixtures.check_rows "sum/avg/min over all-null" [ "2|0|||" ]
    (q db "SELECT count(*), count(v), sum(v), avg(v), min(v) FROM n")

let test_order_by_nulls_first () =
  let db = small () in
  let r = q db "SELECT s FROM t ORDER BY s" in
  Alcotest.(check (list string)) "nulls sort first ascending" [ ""; "a"; "b" ]
    (List.map
       (fun (row : Executor.arow) -> Value.to_raw_string row.Executor.values.(0))
       r.Executor.rows)

let test_self_join_aliases () =
  let db = small () in
  Fixtures.check_rows "self join pairs" [ "1|2"; "1|3"; "2|3" ]
    (q db "SELECT a.x, b.x FROM t a, t b WHERE a.x < b.x");
  (* self-join lineage: both versions of the same table appear *)
  let r = q db "SELECT a.x FROM t a, t b WHERE a.x = 1 AND b.x = 1" in
  (match r.Executor.rows with
  | [ row ] ->
    Alcotest.(check int) "one tuple, squared annotation" 1
      (Lineage.cardinal (Annotation.lineage row.Executor.ann))
  | _ -> Alcotest.fail "expected one row")

let test_empty_table_queries () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE e (x INT)");
  Fixtures.check_rows "scan empty" [] (q db "SELECT x FROM e");
  Fixtures.check_rows "join with empty" []
    (q db "SELECT e.x FROM e, e e2");
  Fixtures.check_rows "group by over empty" []
    (q db "SELECT x, count(*) FROM e GROUP BY x")

let test_update_no_match_and_delete_all () =
  let db = small () in
  let info = Database.dml db "UPDATE t SET x = 0 WHERE x > 99" in
  Alcotest.(check int) "update matched nothing" 0 info.Database.count;
  let info = Database.dml db "DELETE FROM t" in
  Alcotest.(check int) "delete all" 3 info.Database.count;
  Fixtures.check_rows "empty now" [] (q db "SELECT x FROM t")

let test_insert_into_deleted_table_space () =
  let db = small () in
  ignore (Database.exec db "DELETE FROM t WHERE x = 2");
  let info = Database.dml db "INSERT INTO t VALUES (9, 'z')" in
  (* rid space is never reused *)
  List.iter
    (fun (tid, _) -> Alcotest.(check int) "fresh rid" 4 tid.Tid.rid)
    info.Database.deps

(* ---------------- parser / error positions ---------------- *)

let test_parse_error_position () =
  match Sql_parser.parse "SELECT a FROM" with
  | exception Errors.Db_error (Errors.Parse_error { position; _ }) ->
    Alcotest.(check bool) "position at end" true (position >= 13)
  | _ -> Alcotest.fail "expected parse error"

let test_error_to_string () =
  Alcotest.(check string) "renders kind"
    "unknown table \"zzz\""
    (Errors.to_string (Errors.Unknown_table "zzz"))

(* ---------------- trace deserialization robustness --------------- *)

let test_trace_deserialize_malformed () =
  Alcotest.(check bool) "malformed line rejected" true
    (try
       ignore (Prov.Trace.deserialize Prov.Combined.model "X\tgarbage\n");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "edge to unknown node rejected" true
    (try
       ignore
         (Prov.Trace.deserialize Prov.Combined.model
            "E\treadFrom\tfile:a\tproc:1\t1\t2\n");
       false
     with Invalid_argument _ -> true)

let test_package_of_bytes_malformed () =
  Alcotest.(check bool) "garbage rejected with a typed error" true
    (try
       ignore (Ldv_core.Package.of_bytes "not a package");
       false
     with Ldv_errors.Error (Ldv_errors.Package_malformed _) -> true);
  Alcotest.(check bool) "missing sections rejected with a typed error" true
    (try
       ignore (Ldv_core.Package.of_bytes "@kind 3\nptu\n");
       false
     with Ldv_errors.Error (Ldv_errors.Package_malformed _) -> true)

(* ---------------- interceptor under failing SQL ------------------ *)

let test_audit_survives_sql_errors () =
  let db = small () in
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel db in
  let session =
    Dbclient.Interceptor.create ~mode:Dbclient.Interceptor.Audit_excluded
      ~kernel server
  in
  (* a bad statement surfaces as an error response (as a real server
     would) and leaves the session usable *)
  (match Dbclient.Interceptor.execute session ~pid:1 "SELECT nope FROM t" with
  | Dbclient.Protocol.Error_response _ -> ()
  | _ -> Alcotest.fail "expected an error response");
  (match Dbclient.Interceptor.execute session ~pid:1 "SELECT x FROM t" with
  | Dbclient.Protocol.Result_set { rows; _ } ->
    Alcotest.(check int) "session still works" 3 (List.length rows)
  | _ -> Alcotest.fail "expected rows");
  (* and replay reproduces the failure faithfully *)
  let recording = Dbclient.Interceptor.recorded session in
  let replay_kernel = Minios.Kernel.create () in
  let replay_server = Dbclient.Server.install replay_kernel (Database.create ()) in
  let replay =
    Dbclient.Interceptor.create_replay ~kernel:replay_kernel replay_server
      recording
  in
  (match Dbclient.Interceptor.execute replay ~pid:1 "SELECT nope FROM t" with
  | Dbclient.Protocol.Error_response _ -> ()
  | _ -> Alcotest.fail "replay should reproduce the error");
  match Dbclient.Interceptor.execute replay ~pid:1 "SELECT x FROM t" with
  | Dbclient.Protocol.Result_set { rows; _ } ->
    Alcotest.(check int) "replayed rows" 3 (List.length rows)
  | _ -> Alcotest.fail "expected replayed rows"

(* ---------------- value formatting round trips ------------------- *)

let prop_sql_literal_roundtrip =
  (* rendering a string value as a SQL literal and parsing it back yields
     the same value: INSERT streams built by the workload rely on this *)
  QCheck.Test.make ~count:300 ~name:"SQL string literal roundtrip"
    (QCheck.make
       ~print:(fun s -> s)
       QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; '\''; ' '; 'z' ]) (int_bound 10)))
    (fun s ->
      let sql = Printf.sprintf "SELECT %s FROM t" (Value.to_string (Value.Str s)) in
      match Sql_parser.parse sql with
      | Sql_ast.Select { items = [ Sql_ast.Item (Sql_ast.Const v, _) ]; _ } ->
        Value.equal v (Value.Str s)
      | _ -> false)

let suite =
  [ Alcotest.test_case "limit corners" `Quick test_limit_zero_and_overshoot;
    Alcotest.test_case "group by null key" `Quick test_group_by_null_key;
    Alcotest.test_case "aggregates over nulls" `Quick test_aggregate_all_nulls;
    Alcotest.test_case "order by nulls" `Quick test_order_by_nulls_first;
    Alcotest.test_case "self join" `Quick test_self_join_aliases;
    Alcotest.test_case "empty tables" `Quick test_empty_table_queries;
    Alcotest.test_case "update/delete corners" `Quick test_update_no_match_and_delete_all;
    Alcotest.test_case "rid space not reused" `Quick test_insert_into_deleted_table_space;
    Alcotest.test_case "parse error position" `Quick test_parse_error_position;
    Alcotest.test_case "error rendering" `Quick test_error_to_string;
    Alcotest.test_case "trace deserialize errors" `Quick test_trace_deserialize_malformed;
    Alcotest.test_case "package bytes errors" `Quick test_package_of_bytes_malformed;
    Alcotest.test_case "audit survives sql errors" `Quick test_audit_survives_sql_errors;
    QCheck_alcotest.to_alcotest prop_sql_literal_roundtrip ]

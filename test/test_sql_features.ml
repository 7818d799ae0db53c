(* Tests for the extended SQL surface: explicit joins, outer joins,
   subqueries, UNION, CASE, scalar functions, INSERT..SELECT, EXPLAIN,
   AS OF time travel, secondary indexes and transactions. *)

open Minidb

let q = Database.query

let mk_pair_db () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE dept (dno INT, dname TEXT);\n\
        CREATE TABLE emp (eno INT, ename TEXT, dno INT, sal INT);\n\
        INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty');\n\
        INSERT INTO emp VALUES (10, 'ada', 1, 120), (11, 'bob', 1, 90), (12, \
        'cyd', 2, 100), (13, 'dan', NULL, 80)");
  db

(* ---------------- joins ---------------- *)

let test_explicit_join () =
  let db = mk_pair_db () in
  Fixtures.check_rows "JOIN ON" [ "ada|eng"; "bob|eng"; "cyd|sales" ]
    (q db "SELECT ename, dname FROM emp e JOIN dept d ON e.dno = d.dno")

let test_left_join_pads_nulls () =
  let db = mk_pair_db () in
  let r =
    q db
      "SELECT ename, dname FROM emp e LEFT JOIN dept d ON e.dno = d.dno"
  in
  Fixtures.check_rows "unmatched left rows padded"
    [ "ada|eng"; "bob|eng"; "cyd|sales"; "dan|" ]
    r;
  (* the padded row's annotation covers only the left tuple *)
  let dan =
    List.find
      (fun (row : Executor.arow) ->
        Fixtures.str_cell row.Executor.values.(0) = "dan")
      r.Executor.rows
  in
  let tables =
    Lineage.elements (Annotation.lineage dan.Executor.ann)
    |> List.map (fun (t : Tid.t) -> t.Tid.table)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "padded lineage is left-only" [ "emp" ] tables

let test_left_join_empty_right_side () =
  let db = mk_pair_db () in
  Fixtures.check_rows "dept with no emps survives"
    [ "empty|" ]
    (q db
       "SELECT dname, ename FROM dept d LEFT JOIN emp e ON d.dno = e.dno \
        WHERE dname = 'empty'")

let test_join_plan_shapes () =
  let db = mk_pair_db () in
  let plan sql =
    match Sql_parser.parse sql with
    | Sql_ast.Select s -> Planner.describe (Database.plan db s)
    | _ -> assert false
  in
  Alcotest.(check bool) "explicit join hashes" true
    (Fixtures.contains_substring ~needle:"hashjoin"
       (plan "SELECT ename FROM emp e JOIN dept d ON e.dno = d.dno"));
  Alcotest.(check bool) "outer join hashes" true
    (Fixtures.contains_substring ~needle:"hashouterjoin"
       (plan "SELECT ename FROM emp e LEFT JOIN dept d ON e.dno = d.dno"))

(* ---------------- subqueries ---------------- *)

let test_in_subquery () =
  let db = mk_pair_db () in
  Fixtures.check_rows "IN (SELECT ...)" [ "ada"; "bob" ]
    (q db
       "SELECT ename FROM emp WHERE dno IN (SELECT dno FROM dept WHERE \
        dname = 'eng')")

let test_in_subquery_empty () =
  let db = mk_pair_db () in
  Fixtures.check_rows "IN over empty set is false" []
    (q db
       "SELECT ename FROM emp WHERE dno IN (SELECT dno FROM dept WHERE \
        dname = 'nope')")

let test_exists_subquery () =
  let db = mk_pair_db () in
  Fixtures.check_rows "EXISTS true keeps all rows" [ "4" ]
    (q db "SELECT count(*) FROM emp WHERE EXISTS (SELECT dno FROM dept)");
  Fixtures.check_rows "EXISTS false drops all rows" [ "0" ]
    (q db
       "SELECT count(*) FROM emp WHERE EXISTS (SELECT dno FROM dept WHERE \
        dno > 99)")

let test_scalar_subquery () =
  let db = mk_pair_db () in
  (* avg(sal) = 97.5: ada (120) and cyd (100) are above it *)
  Fixtures.check_rows "scalar subquery as threshold" [ "ada"; "cyd" ]
    (q db
       "SELECT ename FROM emp WHERE sal > (SELECT avg(sal) FROM emp)")

let test_subquery_provenance_conservative () =
  let db = mk_pair_db () in
  let r =
    q db
      "SELECT ename FROM emp WHERE dno IN (SELECT dno FROM dept WHERE \
       dname = 'eng')"
  in
  (* every result row's lineage must include the dept tuples the subquery
     read (conservative dependency; §VI) *)
  List.iter
    (fun (row : Executor.arow) ->
      let tables =
        Lineage.elements (Annotation.lineage row.Executor.ann)
        |> List.map (fun (t : Tid.t) -> t.Tid.table)
        |> List.sort_uniq compare
      in
      Alcotest.(check (list string)) "dept in lineage" [ "dept"; "emp" ] tables)
    r.Executor.rows

let test_scalar_subquery_multi_row_fails () =
  let db = mk_pair_db () in
  Alcotest.(check bool) "multi-row scalar subquery rejected" true
    (try
       ignore (q db "SELECT (SELECT dno FROM dept) FROM emp");
       false
     with Errors.Db_error (Errors.Unsupported _) -> true)

(* ---------------- UNION ---------------- *)

let test_union_all () =
  let db = mk_pair_db () in
  (* emp contributes 1,1,2 (dan's NULL filtered); dept contributes 1,2,3 *)
  Fixtures.check_rows "UNION ALL keeps duplicates"
    [ "1"; "1"; "1"; "2"; "2"; "3" ]
    (q db "SELECT dno FROM emp WHERE dno IS NOT NULL UNION ALL SELECT dno FROM dept")

let test_union_distinct () =
  let db = mk_pair_db () in
  Fixtures.check_rows "UNION deduplicates" [ "1"; "2"; "3" ]
    (q db "SELECT dno FROM emp WHERE dno IS NOT NULL UNION SELECT dno FROM dept")

let test_union_order_limit () =
  let db = mk_pair_db () in
  let r =
    q db
      "SELECT dno FROM dept UNION ALL SELECT dno FROM dept ORDER BY dno \
       DESC LIMIT 2"
  in
  Alcotest.(check (list string)) "order over the whole union" [ "3"; "3" ]
    (List.map
       (fun (row : Executor.arow) -> Value.to_raw_string row.Executor.values.(0))
       r.Executor.rows)

let test_union_arity_mismatch () =
  let db = mk_pair_db () in
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       ignore (q db "SELECT dno FROM dept UNION SELECT dno, dname FROM dept");
       false
     with Errors.Db_error (Errors.Unsupported _) -> true)

(* ---------------- CASE and functions ---------------- *)

let test_case_expression () =
  let db = mk_pair_db () in
  Fixtures.check_rows "case buckets"
    [ "ada|high"; "bob|low"; "cyd|high"; "dan|low" ]
    (q db
       "SELECT ename, CASE WHEN sal >= 100 THEN 'high' ELSE 'low' END FROM emp")

let test_case_no_else_yields_null () =
  let db = mk_pair_db () in
  Fixtures.check_rows "missing else is NULL" [ "ada|x"; "bob|"; "cyd|"; "dan|" ]
    (q db "SELECT ename, CASE WHEN sal > 110 THEN 'x' END FROM emp")

let test_scalar_functions () =
  let db = mk_pair_db () in
  Fixtures.check_rows "string functions" [ "ADA|3|da" ]
    (q db
       "SELECT upper(ename), length(ename), substr(ename, 2, 2) FROM emp \
        WHERE eno = 10");
  Fixtures.check_rows "coalesce" [ "9" ]
    (q db "SELECT coalesce(dno, 9) FROM emp WHERE ename = 'dan'");
  Fixtures.check_rows "abs/round" [ "3|4.000000" ]
    (q db "SELECT abs(-3), round(3.6) FROM dept WHERE dno = 1");
  Fixtures.check_rows "replace/trim" [ "bxb" ]
    (q db "SELECT replace(trim(' bab '), 'a', 'x') FROM dept WHERE dno = 1")

let test_unknown_function () =
  let db = mk_pair_db () in
  Alcotest.(check bool) "unknown function rejected" true
    (try
       ignore (q db "SELECT frobnicate(dno) FROM dept");
       false
     with Errors.Db_error (Errors.Unsupported _) -> true)

(* ---------------- INSERT .. SELECT ---------------- *)

let test_insert_select () =
  let db = mk_pair_db () in
  ignore (Database.exec db "CREATE TABLE rich (name TEXT, sal INT)");
  let info =
    Database.dml db "INSERT INTO rich SELECT ename, sal FROM emp WHERE sal >= 100"
  in
  Alcotest.(check int) "two copied" 2 info.Database.count;
  (* provenance: each inserted tuple derives from its source row *)
  List.iter
    (fun (_, deps) ->
      Alcotest.(check int) "one source tuple" 1 (List.length deps);
      Alcotest.(check string) "from emp" "emp" (List.hd deps).Tid.table)
    info.Database.deps;
  Fixtures.check_rows "copied rows" [ "ada|120"; "cyd|100" ]
    (q db "SELECT name, sal FROM rich")

(* ---------------- EXPLAIN ---------------- *)

let test_explain () =
  let db = mk_pair_db () in
  match q db "EXPLAIN SELECT ename FROM emp e JOIN dept d ON e.dno = d.dno" with
  | { Executor.rows = [ { Executor.values = [| Value.Str plan |]; _ } ]; _ } ->
    Alcotest.(check bool) ("plan mentions hashjoin: " ^ plan) true
      (Fixtures.contains_substring ~needle:"hashjoin" plan)
  | _ -> Alcotest.fail "explain should yield one row"

(* ---------------- AS OF time travel ---------------- *)

let test_as_of () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (x INT)");
  ignore (Database.exec db "INSERT INTO t VALUES (1)");
  let after_insert = Database.clock db in
  ignore (Database.exec db "UPDATE t SET x = 2");
  ignore (Database.exec db "INSERT INTO t VALUES (3)");
  let after_all = Database.clock db in
  ignore (Database.exec db "DELETE FROM t WHERE x = 3");
  Fixtures.check_rows "snapshot after insert" [ "1" ]
    (q db (Printf.sprintf "SELECT x FROM t AS OF %d" after_insert));
  Fixtures.check_rows "snapshot after update+insert" [ "2"; "3" ]
    (q db (Printf.sprintf "SELECT x FROM t AS OF %d" after_all));
  Fixtures.check_rows "current state" [ "2" ] (q db "SELECT x FROM t");
  Fixtures.check_rows "before anything" []
    (q db "SELECT x FROM t AS OF 0")

let test_as_of_join_with_current () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (x INT)");
  ignore (Database.exec db "INSERT INTO t VALUES (1), (2)");
  let snap = Database.clock db in
  ignore (Database.exec db "DELETE FROM t WHERE x = 2");
  (* rows that existed at [snap] but are gone now *)
  Fixtures.check_rows "deleted rows via snapshot anti-join" [ "2" ]
    (q db
       (Printf.sprintf
          "SELECT o.x FROM t AS OF %d o LEFT JOIN t n ON o.x = n.x WHERE \
           n.x IS NULL"
          snap))

(* ---------------- indexes ---------------- *)

let test_index_scan_plan_and_results () =
  let db = mk_pair_db () in
  ignore (Database.exec db "CREATE INDEX emp_dno ON emp (dno)");
  (match q db "EXPLAIN SELECT ename FROM emp WHERE dno = 1" with
  | { Executor.rows = [ { Executor.values = [| Value.Str plan |]; _ } ]; _ } ->
    Alcotest.(check bool) ("index scan used: " ^ plan) true
      (Fixtures.contains_substring ~needle:"indexscan(emp.emp_dno)" plan)
  | _ -> Alcotest.fail "explain failed");
  Fixtures.check_rows "index scan result" [ "ada"; "bob" ]
    (q db "SELECT ename FROM emp WHERE dno = 1");
  (* results identical to the unindexed plan *)
  Fixtures.check_rows "predicate beyond the index still applies" [ "ada" ]
    (q db "SELECT ename FROM emp WHERE dno = 1 AND sal > 100")

(* A hash index serves a short INT BETWEEN by probing each key; the
   width is taken without overflow, so the widest range falls back to
   the full scan and counts every row, and an empty range counts none. *)
let test_hash_index_between () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE h (k INT, v INT)");
  for k = 1 to 12 do
    ignore (Database.exec db (Printf.sprintf "INSERT INTO h VALUES (%d, %d)" k k))
  done;
  ignore (Database.exec db "CREATE INDEX h_k ON h (k)");
  let plan where =
    match q db ("EXPLAIN SELECT COUNT(*) FROM h WHERE " ^ where) with
    | { Executor.rows = [ { Executor.values = [| Value.Str p |]; _ } ]; _ } -> p
    | _ -> Alcotest.fail "explain failed"
  in
  let count where =
    match q db ("SELECT COUNT(*) FROM h WHERE " ^ where) with
    | { Executor.rows = [ { Executor.values = [| Value.Int n |]; _ } ]; _ } -> n
    | _ -> Alcotest.fail "count failed"
  in
  let case where ~path ~rows =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s names %s" where (plan where) path)
      true
      (Fixtures.contains_substring ~needle:(path ^ ")") (plan where));
    Alcotest.(check int) (where ^ ": count") rows (count where)
  in
  case "k BETWEEN 2 AND 3" ~path:"indexscan(h.h_k" ~rows:2;
  case "k BETWEEN 3 AND 1" ~path:"indexscan(h.h_k" ~rows:0;
  case "k BETWEEN -4611686018427387903 AND 4611686018427387903"
    ~path:"scan(h" ~rows:12;
  case "k BETWEEN 4611686018427387900 AND 4611686018427387903"
    ~path:"indexscan(h.h_k" ~rows:0;
  case "k BETWEEN 0 AND 20" ~path:"scan(h" ~rows:12;
  (* the rows an UPDATE reads come through the same probe *)
  let update = "UPDATE h SET v = 0 WHERE k BETWEEN 11 AND 13" in
  (match q db ("EXPLAIN " ^ update) with
  | { Executor.rows = [ { Executor.values = [| Value.Str p |]; _ } ]; _ } ->
    Alcotest.(check string) "EXPLAIN UPDATE" "update(indexscan(h.h_k))" p
  | _ -> Alcotest.fail "explain failed");
  ignore (Database.exec db update);
  Alcotest.(check int) "update through the probe" 2 (count "v = 0")

let test_index_maintenance () =
  let db = mk_pair_db () in
  ignore (Database.exec db "CREATE INDEX emp_dno ON emp (dno)");
  ignore (Database.exec db "UPDATE emp SET dno = 2 WHERE ename = 'ada'");
  ignore (Database.exec db "DELETE FROM emp WHERE ename = 'bob'");
  ignore (Database.exec db "INSERT INTO emp VALUES (14, 'eve', 1, 70)");
  Fixtures.check_rows "index sees update/delete/insert" [ "eve" ]
    (q db "SELECT ename FROM emp WHERE dno = 1");
  Fixtures.check_rows "moved row found under new key" [ "ada"; "cyd" ]
    (q db "SELECT ename FROM emp WHERE dno = 2")

let test_index_null_keys () =
  let db = mk_pair_db () in
  ignore (Database.exec db "CREATE INDEX emp_dno ON emp (dno)");
  (* dan has a NULL dno: never in the index, never matched by equality *)
  Fixtures.check_rows "null key unreachable by index" []
    (q db "SELECT ename FROM emp WHERE dno = NULL")

let test_index_ddl_errors () =
  let db = mk_pair_db () in
  ignore (Database.exec db "CREATE INDEX emp_dno ON emp (dno)");
  Alcotest.(check bool) "duplicate index rejected" true
    (try
       ignore (Database.exec db "CREATE INDEX emp_dno ON emp (sal)");
       false
     with Errors.Db_error (Errors.Constraint_violation _) -> true);
  ignore (Database.exec db "DROP INDEX emp_dno");
  Alcotest.(check bool) "drop unknown index rejected" true
    (try
       ignore (Database.exec db "DROP INDEX emp_dno");
       false
     with Errors.Db_error (Errors.Unknown_table _) -> true)

(* ---------------- transactions ---------------- *)

let test_commit_keeps_changes () =
  let db = mk_pair_db () in
  ignore (Database.exec db "BEGIN");
  ignore (Database.exec db "INSERT INTO dept VALUES (4, 'hr')");
  ignore (Database.exec db "UPDATE dept SET dname = 'eng2' WHERE dno = 1");
  ignore (Database.exec db "COMMIT");
  Fixtures.check_rows "committed" [ "1|eng2"; "2|sales"; "3|empty"; "4|hr" ]
    (q db "SELECT dno, dname FROM dept")

let test_rollback_undoes_everything () =
  let db = mk_pair_db () in
  let before = Fingerprint.result (q db "SELECT dno, dname FROM dept") in
  ignore (Database.exec db "BEGIN TRANSACTION");
  ignore (Database.exec db "INSERT INTO dept VALUES (4, 'hr')");
  ignore (Database.exec db "UPDATE dept SET dname = 'X' WHERE dno < 3");
  ignore (Database.exec db "DELETE FROM dept WHERE dno = 3");
  Fixtures.check_rows "inside tx" [ "1|X"; "2|X"; "4|hr" ]
    (q db "SELECT dno, dname FROM dept");
  ignore (Database.exec db "ROLLBACK");
  Alcotest.(check string) "state restored exactly" before
    (Fingerprint.result (q db "SELECT dno, dname FROM dept"))

let test_rollback_erases_versions () =
  let db = mk_pair_db () in
  ignore (Database.exec db "BEGIN");
  let info = Database.dml db "UPDATE dept SET dname = 'X' WHERE dno = 1" in
  ignore (Database.exec db "ROLLBACK");
  let table = Catalog.find (Database.catalog db) "dept" in
  List.iter
    (fun (tid, _) ->
      Alcotest.(check bool) "aborted version gone" true
        (Table.find_version table tid = None))
    info.Database.deps

let test_rollback_restores_index () =
  let db = mk_pair_db () in
  ignore (Database.exec db "CREATE INDEX dept_dno ON dept (dno)");
  ignore (Database.exec db "BEGIN");
  ignore (Database.exec db "UPDATE dept SET dno = 9 WHERE dno = 1");
  ignore (Database.exec db "ROLLBACK");
  Fixtures.check_rows "index consistent after rollback" [ "eng" ]
    (q db "SELECT dname FROM dept WHERE dno = 1");
  Fixtures.check_rows "no phantom under aborted key" []
    (q db "SELECT dname FROM dept WHERE dno = 9")

let test_tx_errors () =
  let db = mk_pair_db () in
  Alcotest.(check bool) "commit without begin" true
    (try
       ignore (Database.exec db "COMMIT");
       false
     with Errors.Db_error (Errors.Tx_state _) -> true);
  ignore (Database.exec db "BEGIN");
  Alcotest.(check bool) "nested begin" true
    (try
       ignore (Database.exec db "BEGIN");
       false
     with Errors.Db_error (Errors.Tx_state _) -> true);
  Alcotest.(check bool) "ddl inside tx rejected" true
    (try
       ignore (Database.exec db "CREATE TABLE z (a INT)");
       false
     with Errors.Db_error (Errors.Unsupported _) -> true);
  ignore (Database.exec db "ROLLBACK")

(* Randomized transaction property: BEGIN; random DML; ROLLBACK leaves the
   live state (and indexed access paths) exactly as before. *)
let prop_rollback_identity =
  QCheck.Test.make ~count:60 ~name:"rollback restores the exact live state"
    (QCheck.make ~print:string_of_int QCheck.Gen.nat) (fun seed ->
      let rng = Tpch.Prng.create ~seed in
      let db = mk_pair_db () in
      ignore (Database.exec db "CREATE INDEX emp_dno ON emp (dno)");
      let fingerprint () =
        Fingerprint.result
          (q db "SELECT eno, ename, dno, sal FROM emp ORDER BY eno")
        ^ Fingerprint.result
            (q db "SELECT ename FROM emp WHERE dno = 1")
      in
      let before = fingerprint () in
      ignore (Database.exec db "BEGIN");
      for _ = 1 to 1 + Tpch.Prng.int rng 6 do
        match Tpch.Prng.int rng 3 with
        | 0 ->
          ignore
            (Database.exec db
               (Printf.sprintf "INSERT INTO emp VALUES (%d, 'n', %d, %d)"
                  (100 + Tpch.Prng.int rng 50)
                  (1 + Tpch.Prng.int rng 3)
                  (Tpch.Prng.int rng 200)))
        | 1 ->
          ignore
            (Database.exec db
               (Printf.sprintf "UPDATE emp SET sal = sal + 1, dno = %d WHERE \
                                eno = %d"
                  (1 + Tpch.Prng.int rng 3)
                  (10 + Tpch.Prng.int rng 8)))
        | _ ->
          ignore
            (Database.exec db
               (Printf.sprintf "DELETE FROM emp WHERE eno = %d"
                  (10 + Tpch.Prng.int rng 8)))
      done;
      ignore (Database.exec db "ROLLBACK");
      String.equal before (fingerprint ()))

let suite =
  [ Alcotest.test_case "explicit join" `Quick test_explicit_join;
    Alcotest.test_case "left join pads nulls" `Quick test_left_join_pads_nulls;
    Alcotest.test_case "left join empty right" `Quick test_left_join_empty_right_side;
    Alcotest.test_case "join plan shapes" `Quick test_join_plan_shapes;
    Alcotest.test_case "IN subquery" `Quick test_in_subquery;
    Alcotest.test_case "IN empty subquery" `Quick test_in_subquery_empty;
    Alcotest.test_case "EXISTS subquery" `Quick test_exists_subquery;
    Alcotest.test_case "scalar subquery" `Quick test_scalar_subquery;
    Alcotest.test_case "subquery provenance" `Quick test_subquery_provenance_conservative;
    Alcotest.test_case "multi-row scalar subquery" `Quick test_scalar_subquery_multi_row_fails;
    Alcotest.test_case "UNION ALL" `Quick test_union_all;
    Alcotest.test_case "UNION distinct" `Quick test_union_distinct;
    Alcotest.test_case "UNION order/limit" `Quick test_union_order_limit;
    Alcotest.test_case "UNION arity" `Quick test_union_arity_mismatch;
    Alcotest.test_case "CASE" `Quick test_case_expression;
    Alcotest.test_case "CASE without ELSE" `Quick test_case_no_else_yields_null;
    Alcotest.test_case "scalar functions" `Quick test_scalar_functions;
    Alcotest.test_case "unknown function" `Quick test_unknown_function;
    Alcotest.test_case "INSERT..SELECT" `Quick test_insert_select;
    Alcotest.test_case "EXPLAIN" `Quick test_explain;
    Alcotest.test_case "AS OF snapshots" `Quick test_as_of;
    Alcotest.test_case "AS OF join with current" `Quick test_as_of_join_with_current;
    Alcotest.test_case "index scan" `Quick test_index_scan_plan_and_results;
    Alcotest.test_case "hash index BETWEEN" `Quick test_hash_index_between;
    Alcotest.test_case "index maintenance" `Quick test_index_maintenance;
    Alcotest.test_case "index null keys" `Quick test_index_null_keys;
    Alcotest.test_case "index ddl errors" `Quick test_index_ddl_errors;
    Alcotest.test_case "tx commit" `Quick test_commit_keeps_changes;
    Alcotest.test_case "tx rollback" `Quick test_rollback_undoes_everything;
    Alcotest.test_case "rollback erases versions" `Quick test_rollback_erases_versions;
    Alcotest.test_case "rollback restores index" `Quick test_rollback_restores_index;
    Alcotest.test_case "tx errors" `Quick test_tx_errors;
    QCheck_alcotest.to_alcotest prop_rollback_identity ]

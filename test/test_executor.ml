open Minidb

let q db sql = Database.query db sql

let test_selection () =
  let db = Fixtures.sales_db () in
  Fixtures.check_rows "price filter" [ "2|11"; "3|14" ]
    (q db "SELECT id, price FROM sales WHERE price > 10")

let test_projection_expressions () =
  let db = Fixtures.sales_db () in
  Fixtures.check_rows "computed column" [ "10"; "22"; "28" ]
    (q db "SELECT price * 2 AS dbl FROM sales");
  let r = q db "SELECT price * 2 AS dbl FROM sales" in
  Alcotest.(check string) "output column named" "dbl"
    r.Executor.schema.(0).Schema.name

let test_star () =
  let db = Fixtures.sales_db () in
  let r = q db "SELECT * FROM sales" in
  Alcotest.(check int) "star yields all columns" 2 (Schema.arity r.Executor.schema);
  Alcotest.(check int) "all rows" 3 (List.length r.Executor.rows)

let test_paper_sum_example () =
  (* Figure 5: result is a single row ttl = 25 with lineage {t2, t3} *)
  let db = Fixtures.sales_db () in
  let r = q db "SELECT sum(price) AS ttl FROM sales WHERE price > 10" in
  Fixtures.check_rows "ttl = 25" [ "25" ] r;
  let lineage = Executor.result_lineage r in
  let rids =
    Lineage.elements lineage |> List.map (fun (t : Tid.t) -> t.Tid.rid)
  in
  Alcotest.(check (list int)) "lineage is {t2, t3}" [ 2; 3 ] (List.sort compare rids)

let test_hash_join () =
  let db = Fixtures.orders_db () in
  let r =
    q db
      "SELECT cust, qty FROM orders o, items i WHERE o.okey = i.okey AND qty \
       > 1"
  in
  Fixtures.check_rows "join rows" [ "alice|2"; "alice|3" ] r;
  (* annotations multiply across the join: each result row depends on one
     orders tuple and one items tuple *)
  List.iter
    (fun (row : Executor.arow) ->
      let lin = Annotation.lineage row.Executor.ann in
      let tables =
        Lineage.elements lin |> List.map (fun (t : Tid.t) -> t.Tid.table)
        |> List.sort_uniq compare
      in
      Alcotest.(check (list string)) "both sides in lineage"
        [ "items"; "orders" ] tables)
    r.Executor.rows

let test_join_plan_uses_hash_join () =
  let db = Fixtures.orders_db () in
  match Sql_parser.parse "SELECT cust FROM orders o, items i WHERE o.okey = i.okey" with
  | Sql_ast.Select s ->
    let plan = Database.plan db s in
    let d = Planner.describe plan in
    Alcotest.(check bool) ("projection on top: " ^ d) true
      (String.length d >= 8 && String.sub d 0 8 = "project(");
    Alcotest.(check bool) "hashjoin present" true
      (Fixtures.contains_substring ~needle:"hashjoin" d);
    Alcotest.(check bool) "no nested loop" false
      (Fixtures.contains_substring ~needle:"nestedloop" d)
  | _ -> Alcotest.fail "parse"

let test_null_join_keys_never_match () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE a (x INT)");
  ignore (Database.exec db "CREATE TABLE b (x INT)");
  ignore (Database.exec db "INSERT INTO a VALUES (NULL), (1)");
  ignore (Database.exec db "INSERT INTO b VALUES (NULL), (1)");
  let r = q db "SELECT a.x FROM a, b WHERE a.x = b.x" in
  Fixtures.check_rows "only non-null keys join" [ "1" ] r

(* A table [table (k INT, x ty)] of [n] rows (i, i), i = 1..n, with a
   hash index on [x]. *)
let indexed_db ~table ~ty n =
  let db = Database.create () in
  ignore
    (Database.exec db (Printf.sprintf "CREATE TABLE %s (k INT, x %s)" table ty));
  ignore
    (Database.bulk_insert db ~table
       (List.init n (fun i -> [| Value.Int (i + 1); Value.Int (i + 1) |])));
  ignore
    (Database.exec db
       (Printf.sprintf "CREATE INDEX %s_x ON %s (x)" table table));
  db

(* A hash-index probe selects exactly the rows [=] selects as a filter,
   an INT column probed with a FLOAT constant and a FLOAT column with an
   INT one included. *)
let test_index_probe_int_float_keys () =
  let db = indexed_db ~table:"c" ~ty:"INT" 50 in
  Fixtures.check_rows "INT column = 7.0" [ "7" ]
    (q db "SELECT k FROM c WHERE x = 7.0");
  Fixtures.check_rows "same rows as the unindexable form" [ "7" ]
    (q db "SELECT k FROM c WHERE x + 0 = 7.0");
  Fixtures.check_rows "INT column = 7.5" [] (q db "SELECT k FROM c WHERE x = 7.5");
  (match Database.exec db "DELETE FROM c WHERE x = 7.0" with
  | Database.Affected info ->
    Alcotest.(check int) "DELETE .. WHERE x = 7.0" 1 info.Database.count
  | _ -> Alcotest.fail "DELETE returned no count");
  let db = indexed_db ~table:"f" ~ty:"FLOAT" 50 in
  Fixtures.check_rows "FLOAT column = 7" [ "7" ]
    (q db "SELECT k FROM f WHERE x = 7")

(* A hash join selects exactly the rows [=] selects as a filter when it
   equates an INT column with a FLOAT one, inner and left outer. *)
let test_hash_join_int_float_keys () =
  let db = Database.create () in
  List.iter
    (fun sql -> ignore (Database.exec db sql))
    [ "CREATE TABLE a (x INT)"; "CREATE TABLE b (y FLOAT)";
      "INSERT INTO a VALUES (1), (2)"; "INSERT INTO b VALUES (1.0), (2.5)" ];
  Fixtures.check_rows "a.x = b.y" [ "1" ]
    (q db "SELECT COUNT(*) FROM a, b WHERE a.x = b.y");
  Fixtures.check_rows "b.y = a.x, from b first" [ "1" ]
    (q db "SELECT COUNT(*) FROM b, a WHERE b.y = a.x");
  Fixtures.check_rows "as the range filter" [ "1" ]
    (q db "SELECT COUNT(*) FROM a, b WHERE a.x <= b.y AND a.x >= b.y");
  Fixtures.check_rows "left join, unmatched" [ "2" ]
    (q db "SELECT a.x FROM a LEFT JOIN b ON a.x = b.y WHERE b.y IS NULL")

(* A filter over a full scan tests each version inside the scan, and a
   version it rejects allocates nothing: a 1% selection allocates under
   two words per scanned row. *)
let test_filtered_scan_allocation () =
  let n = 10_000 in
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (k INT, v INT)");
  ignore
    (Database.bulk_insert db ~table:"t"
       (List.init n (fun i -> [| Value.Int i; Value.Int i |])));
  let sql = "SELECT k FROM t WHERE v BETWEEN 1 AND 100" in
  Alcotest.(check int) "kept rows" 100 (List.length (q db sql).Executor.rows);
  let words = Fixtures.allocated_words (fun () -> ignore (q db sql)) in
  if words >= 2.0 *. float_of_int n then
    Alcotest.failf "%d scanned rows allocated %.0f words (%.2f per row)" n
      words
      (words /. float_of_int n)

let test_cross_join () =
  let db = Fixtures.orders_db () in
  let r = q db "SELECT cust FROM orders, items" in
  Alcotest.(check int) "cartesian size" 12 (List.length r.Executor.rows)

let test_group_by () =
  let db = Fixtures.orders_db () in
  let r =
    q db
      "SELECT o.okey, count(*) AS n, sum(qty) AS total FROM orders o, items \
       i WHERE o.okey = i.okey GROUP BY o.okey"
  in
  Fixtures.check_rows "grouped" [ "1|2|5"; "2|1|1" ] r

let test_group_lineage_unions_members () =
  let db = Fixtures.orders_db () in
  let r =
    q db
      "SELECT o.okey, sum(qty) AS total FROM orders o, items i WHERE o.okey \
       = i.okey GROUP BY o.okey"
  in
  let row1 =
    List.find
      (fun (row : Executor.arow) -> Fixtures.int_cell row.Executor.values.(0) = 1)
      r.Executor.rows
  in
  (* group for okey=1: orders tuple 1 + items tuples 1,2 *)
  Alcotest.(check int) "lineage of group has 3 tuples" 3
    (Lineage.cardinal (Annotation.lineage row1.Executor.ann))

let test_aggregate_empty_input () =
  let db = Fixtures.sales_db () in
  let r = q db "SELECT count(*) AS n, sum(price) AS s FROM sales WHERE price > 100" in
  Fixtures.check_rows "count 0 / sum null" [ "0|" ] r

let test_count_vs_count_star () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (x INT)");
  ignore (Database.exec db "INSERT INTO t VALUES (1), (NULL), (3)");
  Fixtures.check_rows "count(*) counts nulls" [ "3" ] (q db "SELECT count(*) FROM t");
  Fixtures.check_rows "count(x) skips nulls" [ "2" ] (q db "SELECT count(x) FROM t")

let test_min_max_avg () =
  let db = Fixtures.sales_db () in
  Fixtures.check_rows "min/max/avg" [ "5|14|10.000000" ]
    (q db "SELECT min(price), max(price), avg(price) FROM sales")

let test_having () =
  let db = Fixtures.orders_db () in
  let r =
    q db
      "SELECT o.okey FROM orders o, items i WHERE o.okey = i.okey GROUP BY \
       o.okey HAVING count(*) > 1"
  in
  Fixtures.check_rows "having filters groups" [ "1" ] r

let test_distinct () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (x INT)");
  ignore (Database.exec db "INSERT INTO t VALUES (1), (1), (2)");
  let r = q db "SELECT DISTINCT x FROM t" in
  Fixtures.check_rows "distinct" [ "1"; "2" ] r;
  (* the deduplicated row's annotation sums both source tuples *)
  let row1 =
    List.find
      (fun (row : Executor.arow) -> Fixtures.int_cell row.Executor.values.(0) = 1)
      r.Executor.rows
  in
  Alcotest.(check int) "two derivations" 2
    (Annotation.derivation_count row1.Executor.ann)

let test_order_by_limit () =
  let db = Fixtures.sales_db () in
  let r = q db "SELECT id FROM sales ORDER BY price DESC LIMIT 2" in
  Alcotest.(check (list string)) "ordered ids" [ "3"; "2" ]
    (List.map
       (fun (row : Executor.arow) -> Value.to_raw_string row.Executor.values.(0))
       r.Executor.rows)

let test_unknown_column_in_query () =
  let db = Fixtures.sales_db () in
  Alcotest.(check bool) "unknown column raises" true
    (try
       ignore (q db "SELECT nope FROM sales");
       false
     with Errors.Db_error (Errors.Unknown_column _) -> true)

let test_fingerprint_stability () =
  let db = Fixtures.sales_db () in
  let f1 = Fingerprint.result (q db "SELECT id FROM sales") in
  let f2 = Fingerprint.result (q db "SELECT id FROM sales") in
  Alcotest.(check string) "same query same fingerprint" f1 f2;
  let f3 = Fingerprint.result (q db "SELECT price FROM sales") in
  Alcotest.(check bool) "different result different fingerprint" true (f1 <> f3)

(* ------------------------------------------------------------------ *)
(* Property: lineage sufficiency. Evaluating a (monotone) query over the
   DB restricted to the query's lineage returns the same result. This is
   the correctness core of LDV's slicing (§VII-D).                      *)

let random_query rng =
  let pred =
    match Tpch.Prng.int rng 4 with
    | 0 -> Printf.sprintf "price > %d" (Tpch.Prng.int rng 15)
    | 1 -> Printf.sprintf "id BETWEEN %d AND %d" (Tpch.Prng.int rng 3) (2 + Tpch.Prng.int rng 4)
    | 2 -> Printf.sprintf "price < %d OR id = %d" (Tpch.Prng.int rng 12) (1 + Tpch.Prng.int rng 5)
    | _ -> "price IS NOT NULL"
  in
  match Tpch.Prng.int rng 3 with
  | 0 -> Printf.sprintf "SELECT id, price FROM sales WHERE %s" pred
  | 1 -> Printf.sprintf "SELECT sum(price) FROM sales WHERE %s" pred
  | _ -> Printf.sprintf "SELECT id, count(*) FROM sales WHERE %s GROUP BY id" pred

let prop_lineage_sufficiency =
  QCheck.Test.make ~count:100 ~name:"lineage restriction preserves results"
    (QCheck.make ~print:string_of_int QCheck.Gen.nat) (fun seed ->
      let rng = Tpch.Prng.create ~seed in
      let db = Database.create () in
      ignore (Database.exec db "CREATE TABLE sales (id INT, price INT)");
      let n = 3 + Tpch.Prng.int rng 10 in
      for k = 1 to n do
        ignore
          (Database.exec db
             (Printf.sprintf "INSERT INTO sales VALUES (%d, %d)" k
                (Tpch.Prng.int rng 20)))
      done;
      let sql = random_query rng in
      let r = Database.query db sql in
      let restricted =
        Fixtures.restrict_db db (Lineage.to_set (Executor.result_lineage r))
      in
      let r' = Database.query restricted sql in
      Fixtures.row_strings (Fixtures.rows_of r)
      = Fixtures.row_strings (Fixtures.rows_of r'))

let suite =
  [ Alcotest.test_case "selection" `Quick test_selection;
    Alcotest.test_case "projection expressions" `Quick test_projection_expressions;
    Alcotest.test_case "star" `Quick test_star;
    Alcotest.test_case "paper Figure 5 example" `Quick test_paper_sum_example;
    Alcotest.test_case "hash join" `Quick test_hash_join;
    Alcotest.test_case "join plan shape" `Quick test_join_plan_uses_hash_join;
    Alcotest.test_case "null join keys" `Quick test_null_join_keys_never_match;
    Alcotest.test_case "cross join" `Quick test_cross_join;
    Alcotest.test_case "group by" `Quick test_group_by;
    Alcotest.test_case "group lineage" `Quick test_group_lineage_unions_members;
    Alcotest.test_case "aggregate over empty" `Quick test_aggregate_empty_input;
    Alcotest.test_case "count vs count star" `Quick test_count_vs_count_star;
    Alcotest.test_case "min/max/avg" `Quick test_min_max_avg;
    Alcotest.test_case "having" `Quick test_having;
    Alcotest.test_case "distinct" `Quick test_distinct;
    Alcotest.test_case "order by / limit" `Quick test_order_by_limit;
    Alcotest.test_case "unknown column" `Quick test_unknown_column_in_query;
    Alcotest.test_case "fingerprint stability" `Quick test_fingerprint_stability;
    QCheck_alcotest.to_alcotest prop_lineage_sufficiency;
    Alcotest.test_case "index probe: INT/FLOAT keys match as under =" `Quick
      test_index_probe_int_float_keys;
    Alcotest.test_case "hash join: INT/FLOAT keys match as under =" `Quick
      test_hash_join_int_float_keys;
    Alcotest.test_case "filtered scan allocates per kept row" `Quick
      test_filtered_scan_allocation ]

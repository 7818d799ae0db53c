(* The original TPC-H queries as a dialect validation suite. *)

open Minidb

let db_stats = lazy (Tpch.Dbgen.setup ~sf:0.002 ~seed:5 ())

let test_all_run () =
  let db, _ = Lazy.force db_stats in
  let results = Tpch.Queries_full.run_all db in
  Alcotest.(check int) "seven queries" 7 (List.length results);
  List.iter
    (fun (id, _) -> Alcotest.(check bool) (id ^ " ran") true true)
    results

let test_q1_groups () =
  let db, _ = Lazy.force db_stats in
  let r = Database.query db (Tpch.Queries_full.find "TPCH-Q1").Tpch.Queries_full.qf_sql in
  (* at most 3 returnflags x 2 linestatuses *)
  Alcotest.(check bool) "group count plausible" true
    (List.length r.Executor.rows >= 1 && List.length r.Executor.rows <= 6);
  Alcotest.(check int) "nine output columns" 9 (Schema.arity r.Executor.schema);
  (* count_order column sums to the filtered lineitem count *)
  let total =
    List.fold_left
      (fun acc (row : Executor.arow) ->
        acc + Fixtures.int_cell row.Executor.values.(8))
      0 r.Executor.rows
  in
  match
    Database.query db
      "SELECT count(*) FROM lineitem WHERE l_shipdate <= '1998-09-02'"
  with
  | { Executor.rows = [ { Executor.values = [| Value.Int n |]; _ } ]; _ } ->
    Alcotest.(check int) "groups partition the input" n total
  | _ -> Alcotest.fail "count failed"

let test_q3_limit_and_order () =
  let db, _ = Lazy.force db_stats in
  let r = Database.query db (Tpch.Queries_full.find "TPCH-Q3").Tpch.Queries_full.qf_sql in
  Alcotest.(check bool) "at most 10 rows" true (List.length r.Executor.rows <= 10);
  let revenues =
    List.map
      (fun (row : Executor.arow) -> Fixtures.float_cell row.Executor.values.(1))
      r.Executor.rows
  in
  Alcotest.(check (list (float 1e-6))) "revenue descending"
    (List.sort (fun a b -> compare b a) revenues)
    revenues

let test_q6_single_row () =
  let db, _ = Lazy.force db_stats in
  let r = Database.query db (Tpch.Queries_full.find "TPCH-Q6").Tpch.Queries_full.qf_sql in
  Alcotest.(check int) "one row" 1 (List.length r.Executor.rows)

let test_q12_case_counts () =
  let db, _ = Lazy.force db_stats in
  let r = Database.query db (Tpch.Queries_full.find "TPCH-Q12").Tpch.Queries_full.qf_sql in
  (* high + low per shipmode = total joined lines for that mode *)
  List.iter
    (fun (row : Executor.arow) ->
      let mode = Fixtures.str_cell row.Executor.values.(0) in
      let high = Fixtures.int_cell row.Executor.values.(1) in
      let low = Fixtures.int_cell row.Executor.values.(2) in
      match
        Database.query db
          (Printf.sprintf
             "SELECT count(*) FROM orders o, lineitem l WHERE o.o_orderkey \
              = l.l_orderkey AND l_shipmode = '%s' AND l_receiptdate >= \
              '1994-01-01' AND l_receiptdate < '1995-01-01'"
             mode)
      with
      | { Executor.rows = [ { Executor.values = [| Value.Int n |]; _ } ]; _ } ->
        Alcotest.(check int) (mode ^ " partitions") n (high + low)
      | _ -> Alcotest.fail "count failed")
    r.Executor.rows

let test_q14_ratio_bounds () =
  let db, _ = Lazy.force db_stats in
  let r = Database.query db (Tpch.Queries_full.find "TPCH-Q14").Tpch.Queries_full.qf_sql in
  match r.Executor.rows with
  | [ row ] -> (
    match row.Executor.values.(0) with
    | Value.Float ratio ->
      Alcotest.(check bool)
        (Printf.sprintf "promo ratio in [0, 100]: %f" ratio)
        true
        (ratio >= 0.0 && ratio <= 100.0)
    | Value.Null -> () (* no lineitems in the window at tiny scale *)
    | v -> Alcotest.failf "unexpected %s" (Value.to_string v))
  | _ -> Alcotest.fail "expected one row"

let test_q5_lineage_spans_all_tables () =
  let db, _ = Lazy.force db_stats in
  let r = Database.query db (Tpch.Queries_full.find "TPCH-Q5").Tpch.Queries_full.qf_sql in
  (* when the six-way join produces rows, their lineage covers all six
     base tables — the provenance the server-included package would ship *)
  List.iter
    (fun (row : Executor.arow) ->
      let tables =
        Lineage.elements (Annotation.lineage row.Executor.ann)
        |> List.map (fun (t : Tid.t) -> t.Tid.table)
        |> List.sort_uniq compare
      in
      Alcotest.(check (list string)) "six tables in lineage"
        [ "customer"; "lineitem"; "nation"; "orders"; "region"; "supplier" ]
        tables)
    r.Executor.rows

let test_audited_tpch_q3_replays () =
  (* an application running a real TPC-H query is packageable and
     repeatable end to end *)
  let db, _ = Tpch.Dbgen.setup ~sf:0.002 ~seed:5 () in
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel db in
  Minios.Vfs.write_opaque (Minios.Kernel.vfs kernel) ~path:"/bin/q3app" 1000;
  let sql = (Tpch.Queries_full.find "TPCH-Q3").Tpch.Queries_full.qf_sql in
  let program env =
    let conn = Dbclient.Client.connect env ~db:"tpch" in
    let rows = Dbclient.Client.query conn sql in
    Minios.Program.write_file env "/out/q3.txt"
      (string_of_int (List.length rows));
    Dbclient.Client.close conn
  in
  Minios.Program.register ~name:"tpch-q3-app" program;
  let audit =
    Ldv_core.Audit.run ~packaging:Ldv_core.Audit.Included kernel server
      ~app_name:"tpch-q3-app" ~app_binary:"/bin/q3app" program
  in
  let result = Ldv_core.Replay.execute (Ldv_core.Package.build audit) in
  Alcotest.(check (list string)) "replay verified" []
    (Ldv_core.Replay.verify ~audit result)

let suite =
  [ Alcotest.test_case "all originals run" `Quick test_all_run;
    Alcotest.test_case "Q1 groups partition" `Quick test_q1_groups;
    Alcotest.test_case "Q3 order and limit" `Quick test_q3_limit_and_order;
    Alcotest.test_case "Q6 single row" `Quick test_q6_single_row;
    Alcotest.test_case "Q12 case counts" `Quick test_q12_case_counts;
    Alcotest.test_case "Q14 ratio bounds" `Quick test_q14_ratio_bounds;
    Alcotest.test_case "Q5 lineage spans tables" `Quick test_q5_lineage_spans_all_tables;
    Alcotest.test_case "audited TPC-H Q3 replays" `Quick test_audited_tpch_q3_replays ]

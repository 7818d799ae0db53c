open Minidb

let small () = Tpch.Dbgen.setup ~sf:0.001 ~seed:3 ()

let test_row_counts_scale () =
  let _, c = small () in
  Alcotest.(check int) "regions fixed" 5 c.Tpch.Dbgen.n_region;
  Alcotest.(check int) "nations fixed" 25 c.Tpch.Dbgen.n_nation;
  Alcotest.(check int) "suppliers scaled" 10 c.Tpch.Dbgen.n_supplier;
  Alcotest.(check int) "customers scaled" 150 c.Tpch.Dbgen.n_customer;
  Alcotest.(check int) "orders scaled" 1500 c.Tpch.Dbgen.n_orders;
  Alcotest.(check bool) "lineitems about 4x orders" true
    (c.Tpch.Dbgen.n_lineitem > 3 * c.Tpch.Dbgen.n_orders
    && c.Tpch.Dbgen.n_lineitem < 5 * c.Tpch.Dbgen.n_orders)

let test_tables_populated () =
  let db, c = small () in
  List.iter
    (fun (table, expected) ->
      match Database.query db (Printf.sprintf "SELECT count(*) FROM %s" table) with
      | { Executor.rows = [ { Executor.values = [| Value.Int n |]; _ } ]; _ } ->
        Alcotest.(check int) (table ^ " count") expected n
      | _ -> Alcotest.fail "count query failed")
    [ ("region", 5); ("nation", 25); ("supplier", 10); ("customer", 150);
      ("orders", 1500); ("lineitem", c.Tpch.Dbgen.n_lineitem);
      ("part", 200); ("partsupp", 800) ]

let test_determinism () =
  let db1, _ = Tpch.Dbgen.setup ~sf:0.001 ~seed:3 () in
  let db2, _ = Tpch.Dbgen.setup ~sf:0.001 ~seed:3 () in
  let fp db = Fingerprint.result (Database.query db "SELECT * FROM orders") in
  Alcotest.(check string) "same seed, same data" (fp db1) (fp db2);
  let db3, _ = Tpch.Dbgen.setup ~sf:0.001 ~seed:4 () in
  Alcotest.(check bool) "different seed, different data" true (fp db1 <> fp db3)

let test_key_ranges () =
  let db, c = small () in
  (match
     Database.query db "SELECT min(l_suppkey), max(l_suppkey) FROM lineitem"
   with
  | { Executor.rows = [ { Executor.values = [| Value.Int lo; Value.Int hi |]; _ } ]; _ } ->
    Alcotest.(check bool) "suppkey within supplier range" true
      (lo >= 1 && hi <= c.Tpch.Dbgen.n_supplier)
  | _ -> Alcotest.fail "range query failed");
  match Database.query db "SELECT min(o_custkey), max(o_custkey) FROM orders" with
  | { Executor.rows = [ { Executor.values = [| Value.Int lo; Value.Int hi |]; _ } ]; _ } ->
    Alcotest.(check bool) "custkey within customer range" true
      (lo >= 1 && hi <= c.Tpch.Dbgen.n_customer)
  | _ -> Alcotest.fail "range query failed"

let test_customer_name_format () =
  let db, _ = small () in
  match Database.query db "SELECT c_name FROM customer WHERE c_custkey = 7" with
  | { Executor.rows = [ { Executor.values = [| Value.Str name |]; _ } ]; _ } ->
    Alcotest.(check string) "9-digit padded name" "Customer#000000007" name
  | _ -> Alcotest.fail "name lookup failed"

let test_all_18_variants_parse_and_run () =
  let db, c = small () in
  let variants = Tpch.Queries.variants c in
  Alcotest.(check int) "18 variants" 18 (List.length variants);
  List.iter
    (fun (v : Tpch.Queries.variant) ->
      match Database.query db v.Tpch.Queries.sql with
      | r ->
        if v.Tpch.Queries.family = 3 then
          Alcotest.(check int) (v.Tpch.Queries.vid ^ " single row") 1
            (List.length r.Executor.rows))
    variants

let test_selectivities_ordered () =
  let db, c = small () in
  (* within each family, measured selectivity follows the target order *)
  let by_family f =
    List.filter (fun (v : Tpch.Queries.variant) -> v.Tpch.Queries.family = f)
      (Tpch.Queries.variants c)
  in
  List.iter
    (fun fam ->
      let sels =
        List.map (fun v -> Tpch.Queries.measured_selectivity db c v) (by_family fam)
      in
      let expected_order =
        List.map (fun (v : Tpch.Queries.variant) -> v.Tpch.Queries.target_selectivity)
          (by_family fam)
      in
      let increasing l = List.sort compare l = l in
      let decreasing l = List.sort (fun a b -> compare b a) l = l in
      if increasing expected_order then
        Alcotest.(check bool)
          (Printf.sprintf "family %d monotone increasing" fam)
          true (increasing sels)
      else if decreasing expected_order then
        Alcotest.(check bool)
          (Printf.sprintf "family %d monotone decreasing" fam)
          true (decreasing sels))
    [ 1; 2; 3; 4 ]

let test_q1_selectivity_accuracy () =
  let db, c = Tpch.Dbgen.setup ~sf:0.01 ~seed:3 () in
  List.iter
    (fun (v : Tpch.Queries.variant) ->
      if v.Tpch.Queries.family = 1 then begin
        let m = Tpch.Queries.measured_selectivity db c v in
        let t = v.Tpch.Queries.target_selectivity in
        Alcotest.(check bool)
          (Printf.sprintf "%s within 30%% of target (%f vs %f)"
             v.Tpch.Queries.vid m t)
          true
          (Float.abs (m -. t) /. t < 0.3)
      end)
    (Tpch.Queries.variants c)

let test_workload_statements_deterministic () =
  let _, c = small () in
  let run_collect () =
    let db, _ = Tpch.Dbgen.setup ~sf:0.001 ~seed:3 () in
    let kernel = Minios.Kernel.create () in
    let server = Dbclient.Server.install kernel db in
    Tpch.Workload.install_runtime kernel;
    let q = Tpch.Queries.find c "Q1-1" in
    let cfg =
      { (Tpch.Workload.default_config ~query_sql:q.Tpch.Queries.sql ~stats:c)
        with Tpch.Workload.n_insert = 5; n_update = 3; n_select = 2 }
    in
    ignore (Tpch.Workload.install_app_files kernel cfg);
    let session = Dbclient.Interceptor.create ~kernel server in
    Dbclient.Interceptor.bind kernel session;
    ignore (Minios.Program.run kernel ~name:"app" (Tpch.Workload.app cfg));
    Dbclient.Interceptor.unbind kernel;
    List.map
      (fun (s : Dbclient.Interceptor.stmt_event) -> s.Dbclient.Interceptor.sql_norm)
      (Dbclient.Interceptor.log session)
  in
  let s1 = run_collect () and s2 = run_collect () in
  Alcotest.(check int) "statement count 5+2+3" 10 (List.length s1);
  Alcotest.(check (list string)) "identical statement streams" s1 s2

let test_workload_steps_fire_in_order () =
  let db, c = small () in
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel db in
  Tpch.Workload.install_runtime kernel;
  let q = Tpch.Queries.find c "Q1-1" in
  let cfg =
    { (Tpch.Workload.default_config ~query_sql:q.Tpch.Queries.sql ~stats:c)
      with Tpch.Workload.n_insert = 2; n_update = 1; n_select = 3 }
  in
  ignore (Tpch.Workload.install_app_files kernel cfg);
  let session = Dbclient.Interceptor.create ~kernel server in
  Dbclient.Interceptor.bind kernel session;
  let steps = ref [] in
  let hook step body =
    steps := Tpch.Workload.step_name step :: !steps;
    body ()
  in
  ignore (Minios.Program.run kernel ~name:"app" (Tpch.Workload.app ~step_hook:hook cfg));
  Dbclient.Interceptor.unbind kernel;
  Alcotest.(check (list string)) "step order"
    [ "Inserts"; "First Select"; "Other Selects"; "Updates" ]
    (List.rev !steps);
  (* the app wrote its results file *)
  Alcotest.(check bool) "output file exists" true
    (Minios.Vfs.exists (Minios.Kernel.vfs kernel) cfg.Tpch.Workload.out_path)

let test_prng_stability () =
  let r = Tpch.Prng.create ~seed:42 in
  let a = Tpch.Prng.int r 1000 and b = Tpch.Prng.int r 1000 in
  let r2 = Tpch.Prng.create ~seed:42 in
  Alcotest.(check int) "same first draw" a (Tpch.Prng.int r2 1000);
  Alcotest.(check int) "same second draw" b (Tpch.Prng.int r2 1000);
  (* ranges respected *)
  for _ = 1 to 100 do
    let v = Tpch.Prng.in_range r ~lo:5 ~hi:9 in
    Alcotest.(check bool) "in range" true (v >= 5 && v <= 9)
  done

let suite =
  [ Alcotest.test_case "row counts" `Quick test_row_counts_scale;
    Alcotest.test_case "tables populated" `Quick test_tables_populated;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "key ranges" `Quick test_key_ranges;
    Alcotest.test_case "customer name format" `Quick test_customer_name_format;
    Alcotest.test_case "18 variants run" `Quick test_all_18_variants_parse_and_run;
    Alcotest.test_case "selectivity ordering" `Quick test_selectivities_ordered;
    Alcotest.test_case "Q1 selectivity accuracy" `Quick test_q1_selectivity_accuracy;
    Alcotest.test_case "workload determinism" `Quick test_workload_statements_deterministic;
    Alcotest.test_case "workload steps" `Quick test_workload_steps_fire_in_order;
    Alcotest.test_case "prng stability" `Quick test_prng_stability ]

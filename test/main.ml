(* Test entry point: every module contributes one or more alcotest
   suites. *)

let () =
  Alcotest.run "ldv"
    [ ("value", Test_value.suite);
      ("schema", Test_schema.suite);
      ("annotation", Test_annotation.suite);
      ("sql-lexer", Test_sql_lexer.suite);
      ("sql-parser", Test_sql_parser.suite);
      ("eval-expr", Test_eval_expr.suite);
      ("table", Test_table.suite);
      ("storage", Test_storage.suite);
      ("executor", Test_executor.suite);
      ("sql-features", Test_sql_features.suite);
      ("csv", Test_csv.suite);
      ("database", Test_database.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("differential", Test_differential.suite);
      ("interval", Test_interval.suite);
      ("model", Test_model.suite);
      ("trace", Test_trace.suite);
      ("trace-golden", Test_trace_golden.suite);
      ("prov-golden", Test_prov_golden.suite);
      ("dependency", Test_dependency.suite);
      ("dependency-exact", Test_dependency_exact.suite);
      ("prov-export", Test_prov_export.suite);
      ("prov-query", Test_prov_query.suite);
      ("vfs", Test_vfs.suite);
      ("kernel", Test_kernel.suite);
      ("tracer", Test_tracer.suite);
      ("perm", Test_perm.suite);
      ("recorder", Test_recorder.suite);
      ("server", Test_server.suite);
      ("interceptor", Test_interceptor.suite);
      ("tpch", Test_tpch.suite);
      ("tpch-originals", Test_tpch_full.suite);
      ("audit", Test_audit.suite);
      ("slice", Test_slice.suite);
      ("package", Test_package.suite);
      ("replay", Test_replay.suite);
      ("gprom", Test_gprom.suite);
      ("obs", Test_obs.suite);
      ("profile", Test_profile.suite);
      ("faults", Test_faults.suite);
      ("durability", Test_durability.suite);
      ("check-golden", Test_check.suite);
      ("report", Test_report.suite);
      ("partial-diff", Test_partial_diff.suite);
      ("concurrent", Test_concurrent.suite);
      ("tx", Test_tx.suite);
      ("contention", Test_contention.suite);
      ("replication", Test_replication.suite);
      ("ledger", Test_ledger.suite);
      ("end-to-end", Test_e2e.suite) ]

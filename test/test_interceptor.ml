open Minidb
open Dbclient
module I = Interceptor

let mk_env ?(mode = I.Passthrough) () =
  let kernel = Minios.Kernel.create () in
  let db = Fixtures.sales_db () in
  let server = Server.install kernel db in
  let session = I.create ~mode ~kernel server in
  (kernel, server, session)

let test_passthrough () =
  let _, _, session = mk_env () in
  (match I.execute session ~pid:1 "SELECT id FROM sales WHERE price > 10" with
  | Protocol.Result_set { rows; _ } ->
    Alcotest.(check int) "rows returned" 2 (List.length rows)
  | _ -> Alcotest.fail "expected rows");
  Alcotest.(check int) "statement logged" 1 (List.length (I.log session));
  Alcotest.(check int) "nothing sliced" 0
    (Lineage.cardinal (I.slice_lineage session))

let test_audit_included_collects_lineage () =
  let _, _, session = mk_env ~mode:I.Audit_included () in
  ignore (I.execute session ~pid:1 "SELECT id FROM sales WHERE price > 10");
  let slice = I.slice_lineage session in
  Alcotest.(check int) "two lineage tuples sliced" 2 (Lineage.cardinal slice);
  (* repeated query does not duplicate slice entries *)
  ignore (I.execute session ~pid:1 "SELECT id FROM sales WHERE price > 10");
  Alcotest.(check int) "dedup" 2 (Lineage.cardinal (I.slice_lineage session));
  (* the log carries result tids with lineage *)
  match I.log session with
  | s :: _ ->
    Alcotest.(check int) "two result tuples" 2 (List.length s.I.results);
    List.iter
      (fun (rtid, lineage) ->
        Alcotest.(check bool) "result tid synthetic" true (I.is_result_tid rtid);
        Alcotest.(check int) "each result from one tuple" 1
          (Lineage.cardinal lineage))
      s.I.results
  | [] -> Alcotest.fail "log empty"

let test_audit_included_dml () =
  let _, _, session = mk_env ~mode:I.Audit_included () in
  ignore (I.execute session ~pid:1 "UPDATE sales SET price = price + 1 WHERE id = 2");
  (match I.log session with
  | [ s ] ->
    Alcotest.(check int) "read pre-version" 1 (Lineage.cardinal s.I.reads);
    Alcotest.(check int) "wrote new version" 1 (List.length s.I.results)
  | _ -> Alcotest.fail "expected one event");
  (* pre-version is in the slice (needed to re-run the update) *)
  Alcotest.(check int) "pre-version sliced" 1
    (Lineage.cardinal (I.slice_lineage session))

let test_audit_excluded_records () =
  let _, _, session = mk_env ~mode:I.Audit_excluded () in
  ignore (I.execute session ~pid:1 "SELECT id FROM sales WHERE price > 10");
  ignore (I.execute session ~pid:1 "UPDATE sales SET price = 0 WHERE id = 1");
  let recorded = I.recorded session in
  Alcotest.(check int) "two recorded" 2 (List.length recorded);
  (match recorded with
  | [ q; u ] ->
    Alcotest.(check bool) "query kind" true (q.Recorder.rec_kind = Recorder.Rquery);
    Alcotest.(check int) "query rows recorded" 2 (List.length q.Recorder.rec_rows);
    Alcotest.(check bool) "dml kind" true (u.Recorder.rec_kind = Recorder.Rdml);
    Alcotest.(check int) "dml affected recorded" 1 u.Recorder.rec_affected
  | _ -> Alcotest.fail "expected two records");
  Alcotest.(check int) "no slicing in excluded mode" 0
    (Lineage.cardinal (I.slice_lineage session))

let replay_session recording =
  let kernel = Minios.Kernel.create () in
  (* empty DB: replay must never touch it *)
  let server = Server.install kernel (Database.create ()) in
  I.create_replay ~kernel server recording

let record_two () =
  let _, _, session = mk_env ~mode:I.Audit_excluded () in
  ignore (I.execute session ~pid:1 "SELECT id FROM sales WHERE price > 10");
  ignore (I.execute session ~pid:1 "UPDATE sales SET price = 0 WHERE id = 1");
  I.recorded session

let test_replay_excluded_in_order () =
  let session = replay_session (record_two ()) in
  (match I.execute session ~pid:9 "SELECT id FROM sales WHERE price > 10" with
  | Protocol.Result_set { rows; _ } ->
    Alcotest.(check int) "recorded rows served" 2 (List.length rows)
  | _ -> Alcotest.fail "expected recorded rows");
  match I.execute session ~pid:9 "UPDATE sales SET price = 0 WHERE id = 1" with
  | Protocol.Command_ok { affected = 1 } -> ()
  | _ -> Alcotest.fail "expected recorded ack"

let test_replay_diverging_statement_fails () =
  let session = replay_session (record_two ()) in
  Alcotest.(check bool) "unexpected statement raises" true
    (try
       ignore (I.execute session ~pid:9 "SELECT id FROM sales WHERE price > 99");
       false
     with I.Replay_divergence _ -> true)

let test_replay_out_of_order_fails () =
  let session = replay_session (record_two ()) in
  Alcotest.(check bool) "running the update first diverges" true
    (try
       ignore (I.execute session ~pid:9 "UPDATE sales SET price = 0 WHERE id = 1");
       false
     with I.Replay_divergence _ -> true)

let test_replay_exhausted_fails () =
  let session = replay_session (record_two ()) in
  ignore (I.execute session ~pid:9 "SELECT id FROM sales WHERE price > 10");
  ignore (I.execute session ~pid:9 "UPDATE sales SET price = 0 WHERE id = 1");
  Alcotest.(check bool) "recording exhausted" true
    (try
       ignore (I.execute session ~pid:9 "SELECT id FROM sales WHERE price > 10");
       false
     with I.Replay_divergence _ -> true)

let test_replay_normalizes_sql () =
  (* formatting differences must not break matching *)
  let session = replay_session (record_two ()) in
  match
    I.execute session ~pid:9 "select  ID from SALES where PRICE>10"
  with
  | Protocol.Result_set _ -> ()
  | _ -> Alcotest.fail "normalized statement should match"

let test_session_binding () =
  let kernel, _, session = mk_env () in
  I.bind kernel session;
  Alcotest.(check bool) "found" true (I.find kernel == session);
  I.unbind kernel;
  Alcotest.(check bool) "unbound" true
    (try
       ignore (I.find kernel);
       false
     with Invalid_argument _ -> true)

let test_timestamps_monotone () =
  let _, _, session = mk_env ~mode:I.Audit_included () in
  ignore (I.execute session ~pid:1 "SELECT id FROM sales");
  ignore (I.execute session ~pid:1 "SELECT price FROM sales");
  match I.log session with
  | [ a; b ] ->
    Alcotest.(check bool) "start before end" true (a.I.t_start < a.I.t_end);
    Alcotest.(check bool) "statements ordered" true (a.I.t_end < b.I.t_start)
  | _ -> Alcotest.fail "expected two events"

(* Two sessions of one run over [sales] (3 rows): session B opens a
   transaction and inserts a row, then [read] issues a COUNT from the
   session it picks and returns the answer. *)
let count_beside_open_insert ~mode ~snapshot_reads read =
  let kernel = Minios.Kernel.create () in
  let server = Server.install kernel (Fixtures.sales_db ()) in
  let a = I.create ~mode ~snapshot_reads ~kernel server in
  let b = I.create_sibling a ~session_id:1 in
  ignore (I.execute b ~pid:2 "BEGIN");
  ignore (I.execute b ~pid:2 "INSERT INTO sales VALUES (4, 20)");
  match I.execute (read a b) ~pid:1 "SELECT COUNT(*) FROM sales" with
  | Protocol.Result_set { rows = [ [| Value.Int n |] ]; _ } -> n
  | _ -> Alcotest.fail "expected one count row"

(* An audit must not change what a session sees: a sibling's uncommitted
   insert stays invisible to an autocommit read, and a transaction's own
   insert is visible to its snapshot-pinned reads, in every mode. *)
let test_audit_reads_under_session_tx () =
  List.iter
    (fun (name, mode) ->
      Alcotest.(check int)
        (name ^ ": autocommit read skips the sibling's open insert")
        3
        (count_beside_open_insert ~mode ~snapshot_reads:false (fun a _ -> a));
      Alcotest.(check int)
        (name ^ ": snapshot read sees its own transaction's insert")
        4
        (count_beside_open_insert ~mode ~snapshot_reads:true (fun _ b -> b)))
    [ ("passthrough", I.Passthrough);
      ("server-excluded", I.Audit_excluded);
      ("server-included", I.Audit_included) ]

(* Each version's CSV row is written as the version enters the slice,
   and [slice_csv] copies the rows asked for in (rid, version) order: the
   bytes of encoding those versions afresh. Here first sight is another
   order (the UPDATE reads rid 2 before the scan reads rid 1), and a
   version that entered the slice before a rollback erased it is left
   out, as the fresh encoding leaves it out. *)
let test_slice_csv_copies_written_rows () =
  let _, server, session = mk_env ~mode:I.Audit_included () in
  List.iter
    (fun sql -> ignore (I.execute session ~pid:1 sql))
    [ "UPDATE sales SET price = price + 1 WHERE id = 2";
      "SELECT id, price FROM sales";
      "BEGIN";
      "INSERT INTO sales VALUES (4, 20)";
      "SELECT id FROM sales";
      "ROLLBACK" ];
  let db = Server.db server in
  let sales = Catalog.find (Database.catalog db) "sales" in
  let slice = I.slice_lineage session in
  let ids = ref [||] in
  Lineage.iter_tables (fun _ members -> ids := members) slice;
  let erased p =
    Option.is_none
      (Table.find_version_at sales ~rid:(Lineage.rid p)
         ~version:(Lineage.version p))
  in
  Alcotest.(check bool) "the slice holds a version the rollback erased" true
    (Array.exists erased !ids);
  Alcotest.(check (option string)) "copied rows: the versions encoded afresh"
    (List.assoc_opt "sales" (Ldv_core.Slice.lineage_csvs db slice))
    (I.slice_csv session ~table:"sales" sales !ids)

let suite =
  [ Alcotest.test_case "passthrough" `Quick test_passthrough;
    Alcotest.test_case "audit included: lineage" `Quick test_audit_included_collects_lineage;
    Alcotest.test_case "audit included: dml" `Quick test_audit_included_dml;
    Alcotest.test_case "audit excluded: recording" `Quick test_audit_excluded_records;
    Alcotest.test_case "replay in order" `Quick test_replay_excluded_in_order;
    Alcotest.test_case "replay divergence" `Quick test_replay_diverging_statement_fails;
    Alcotest.test_case "replay out of order" `Quick test_replay_out_of_order_fails;
    Alcotest.test_case "replay exhausted" `Quick test_replay_exhausted_fails;
    Alcotest.test_case "replay normalizes sql" `Quick test_replay_normalizes_sql;
    Alcotest.test_case "session binding" `Quick test_session_binding;
    Alcotest.test_case "timestamps monotone" `Quick test_timestamps_monotone;
    Alcotest.test_case "audit reads under the session's transaction" `Quick
      test_audit_reads_under_session_tx;
    Alcotest.test_case "audit included: slice rows copied, erased left out"
      `Quick test_slice_csv_copies_written_rows ]

open Minidb

let mk_db () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE acct (id INT, bal INT);\n\
        INSERT INTO acct VALUES (1, 100), (2, 50), (3, 10)");
  db

module B = Gprom.Backend.Minidb_backend

let test_backend_query () =
  let db = mk_db () in
  let schema, rows = B.query db "SELECT bal FROM acct WHERE bal > 20" in
  Alcotest.(check int) "one column" 1 (Schema.arity schema);
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (_, lineage) ->
      Alcotest.(check int) "row lineage singleton" 1 (Tid.Set.cardinal lineage))
    rows

let test_backend_dml_and_command () =
  let db = mk_db () in
  let deps, reads = B.dml db "UPDATE acct SET bal = 0 WHERE id = 1" in
  Alcotest.(check int) "one written" 1 (List.length deps);
  Alcotest.(check int) "one read" 1 (List.length reads);
  B.command db "BEGIN";
  B.command db "ROLLBACK";
  Alcotest.(check bool) "command rejects queries" true
    (try
       B.command db "SELECT id FROM acct";
       false
     with Errors.Db_error (Errors.Unsupported _) -> true)

(* A transfer transaction: the classic reenactment example. *)
let transfer_statements =
  [ "UPDATE acct SET bal = bal - 30 WHERE id = 1";
    "UPDATE acct SET bal = bal + 30 WHERE id = 2" ]

let test_tx_provenance_simple () =
  let db = mk_db () in
  let tx = Gprom.Tx_reenact.run (module B) db transfer_statements in
  Alcotest.(check int) "two surviving versions" 2
    (List.length tx.Gprom.Tx_reenact.tx_written);
  Alcotest.(check int) "no intermediates" 0
    (List.length tx.Gprom.Tx_reenact.tx_intermediate);
  Alcotest.(check int) "two pre-state versions" 2
    (Tid.Set.cardinal tx.Gprom.Tx_reenact.tx_pre_state);
  (* effects committed *)
  Fixtures.check_rows "transfer applied" [ "1|70"; "2|80"; "3|10" ]
    (Database.query db "SELECT id, bal FROM acct")

let test_tx_provenance_composes_chains () =
  (* two updates touching the same row: the intermediate version must be
     composed away and the final version traced to the pre-tx original *)
  let db = mk_db () in
  let tx =
    Gprom.Tx_reenact.run (module B) db
      [ "UPDATE acct SET bal = bal + 1 WHERE id = 1";
        "UPDATE acct SET bal = bal * 2 WHERE id = 1" ]
  in
  Alcotest.(check int) "one surviving version" 1
    (List.length tx.Gprom.Tx_reenact.tx_written);
  Alcotest.(check int) "one intermediate composed away" 1
    (List.length tx.Gprom.Tx_reenact.tx_intermediate);
  (match tx.Gprom.Tx_reenact.tx_deps with
  | [ (final, roots) ] ->
    Alcotest.(check int) "final rid 1" 1 final.Tid.rid;
    Alcotest.(check int) "single pre-tx root" 1 (Tid.Set.cardinal roots);
    let root = Tid.Set.choose roots in
    Alcotest.(check int) "root is the original version" 1 root.Tid.rid
  | _ -> Alcotest.fail "expected exactly one dependency");
  Fixtures.check_rows "both updates applied" [ "202" ]
    (Database.query db "SELECT bal FROM acct WHERE id = 1")

let test_tx_insert_then_update () =
  (* a version created inside the tx has no pre-tx roots *)
  let db = mk_db () in
  let tx =
    Gprom.Tx_reenact.run (module B) db
      [ "INSERT INTO acct VALUES (4, 5)";
        "UPDATE acct SET bal = 6 WHERE id = 4" ]
  in
  (match tx.Gprom.Tx_reenact.tx_deps with
  | [ (final, roots) ] ->
    Alcotest.(check int) "survivor is the updated version" 4 final.Tid.rid;
    Alcotest.(check bool) "no pre-tx roots" true (Tid.Set.is_empty roots)
  | _ -> Alcotest.fail "expected one surviving version");
  Alcotest.(check int) "insert composed away" 1
    (List.length tx.Gprom.Tx_reenact.tx_intermediate)

let test_tx_delete_contributes_pre_state () =
  let db = mk_db () in
  let tx =
    Gprom.Tx_reenact.run (module B) db [ "DELETE FROM acct WHERE bal < 60" ]
  in
  Alcotest.(check int) "nothing written" 0
    (List.length tx.Gprom.Tx_reenact.tx_written);
  Alcotest.(check int) "victims in pre-state" 2
    (Tid.Set.cardinal tx.Gprom.Tx_reenact.tx_pre_state)

let test_tx_failure_rolls_back () =
  let db = mk_db () in
  let before =
    Fingerprint.result (Database.query db "SELECT id, bal FROM acct")
  in
  (try
     ignore
       (Gprom.Tx_reenact.run (module B) db
          [ "UPDATE acct SET bal = 0 WHERE id = 1";
            "UPDATE nonexistent SET x = 1" ])
   with Errors.Db_error _ -> ());
  Alcotest.(check string) "state rolled back" before
    (Fingerprint.result (Database.query db "SELECT id, bal FROM acct"));
  Alcotest.(check bool) "transaction closed" false (Database.in_transaction db)

let test_tx_statements_normalized () =
  let db = mk_db () in
  let tx =
    Gprom.Tx_reenact.run (module B) db
      [ "update ACCT set bal=0 where ID=1" ]
  in
  Alcotest.(check (list string)) "normalized statement recorded"
    [ "UPDATE acct SET bal = 0 WHERE id = 1" ]
    tx.Gprom.Tx_reenact.tx_statements

let suite =
  [ Alcotest.test_case "backend query" `Quick test_backend_query;
    Alcotest.test_case "backend dml/command" `Quick test_backend_dml_and_command;
    Alcotest.test_case "transfer provenance" `Quick test_tx_provenance_simple;
    Alcotest.test_case "chained updates compose" `Quick test_tx_provenance_composes_chains;
    Alcotest.test_case "insert-then-update" `Quick test_tx_insert_then_update;
    Alcotest.test_case "delete pre-state" `Quick test_tx_delete_contributes_pre_state;
    Alcotest.test_case "failure rolls back" `Quick test_tx_failure_rolls_back;
    Alcotest.test_case "statements normalized" `Quick test_tx_statements_normalized ]

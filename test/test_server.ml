open Minidb
open Dbclient

let test_install_writes_artifacts () =
  let kernel = Minios.Kernel.create () in
  let db = Database.create () in
  let server = Server.install kernel db in
  let vfs = Minios.Kernel.vfs kernel in
  Alcotest.(check bool) "binary installed" true
    (Minios.Vfs.exists vfs (Server.binary_path server));
  Alcotest.(check bool) "libraries installed" true
    (List.for_all (Minios.Vfs.exists vfs) (Server.lib_paths server));
  Alcotest.(check bool) "binary is large" true
    (Minios.Vfs.size vfs (Server.binary_path server) > 10_000_000)

let test_handle_statements () =
  let kernel = Minios.Kernel.create () in
  let db = Database.create () in
  let server = Server.install kernel db in
  (match Server.handle server (Protocol.Statement { sql = "CREATE TABLE t (x INT)" }) with
  | Protocol.Ddl_ok -> ()
  | _ -> Alcotest.fail "expected ddl ok");
  (match Server.handle server (Protocol.Statement { sql = "INSERT INTO t VALUES (1)" }) with
  | Protocol.Command_ok { affected = 1 } -> ()
  | _ -> Alcotest.fail "expected command ok");
  (match Server.handle server (Protocol.Statement { sql = "SELECT x FROM t" }) with
  | Protocol.Result_set { rows = [ [| Value.Int 1 |] ]; _ } -> ()
  | _ -> Alcotest.fail "expected one row");
  match Server.handle server (Protocol.Statement { sql = "SELECT nope FROM t" }) with
  | Protocol.Error_response _ -> ()
  | _ -> Alcotest.fail "expected an error response"

let test_traced_start_stop_events () =
  let kernel = Minios.Kernel.create () in
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (x INT)");
  ignore (Database.exec db "INSERT INTO t VALUES (1)");
  let server = Server.install kernel db in
  let tracer = Minios.Tracer.create () in
  Minios.Tracer.attach tracer kernel;
  let pid = Server.start_traced kernel server in
  Server.stop_traced kernel server;
  Minios.Tracer.detach kernel;
  let touched = Minios.Tracer.touched_paths tracer in
  let paths = List.map fst touched in
  Alcotest.(check bool) "server binary read" true
    (List.mem (Server.binary_path server) paths);
  Alcotest.(check bool) "data file read" true
    (List.mem (Server.data_dir server ^ "/t.dat") paths);
  (* the data file is also written at shutdown *)
  let modes = List.assoc (Server.data_dir server ^ "/t.dat") touched in
  Alcotest.(check bool) "read and written" true
    (List.mem Minios.Syscall.Read modes && List.mem Minios.Syscall.Write modes);
  Alcotest.(check bool) "server pid positive" true (pid > 0)

let test_table_image_roundtrip () =
  let db = Fixtures.sales_db () in
  ignore (Database.exec db "UPDATE sales SET price = 6 WHERE id = 1");
  let table = Catalog.find (Database.catalog db) "sales" in
  let image = Server.encode_table_image (Server.table_image table) in
  let db2 = Database.create () in
  Server.restore_table_image db2 (Server.decode_table_image image);
  Fixtures.check_rows "restored content" [ "1|6"; "2|11"; "3|14" ]
    (Database.query db2 "SELECT id, price FROM sales");
  (* tids survive: live versions in the copy carry the same rid/version *)
  let t1 = Catalog.find (Database.catalog db) "sales" in
  let t2 = Catalog.find (Database.catalog db2) "sales" in
  List.iter2
    (fun (a : Table.tuple_version) (b : Table.tuple_version) ->
      Alcotest.(check bool) "tid preserved" true (Tid.equal a.Table.tid b.Table.tid))
    (Table.scan t1) (Table.scan t2)

(* The TPC-H app writes only [orders]: at stop, every other table's data
   file must be exactly the bytes written at start (the reused encoding),
   while [orders] must hold the post-run state. *)
let test_stop_reuses_unchanged_images () =
  let kernel, server, _cfg, binary, program, app_name =
    Ldv_fixtures.make_setup ()
  in
  let catalog = Database.catalog (Server.db server) in
  let start =
    List.map
      (fun name ->
        ( name,
          Server.encode_table_image
            (Server.table_image (Catalog.find catalog name)) ))
      (Catalog.table_names catalog)
  in
  let audit =
    Ldv_core.Audit.run ~packaging:Ldv_core.Audit.Ptu_baseline kernel server
      ~app_name ~app_binary:binary ~app_libs:Tpch.Workload.app_libs program
  in
  let vfs = Minios.Kernel.vfs kernel in
  let file name = Minios.Vfs.read vfs (Server.data_file server name) in
  List.iter
    (fun (name, bytes) ->
      if name <> "orders" then
        Alcotest.(check bool) (name ^ " file is its start image") true
          (String.equal bytes (file name)))
    start;
  Alcotest.(check bool) "orders file was rewritten" false
    (String.equal (List.assoc "orders" start) (file "orders"));
  let restored = Database.create () in
  Server.restore_table_image restored
    (Server.decode_table_image (file "orders"));
  let rows db =
    List.map
      (fun (tv : Table.tuple_version) ->
        String.concat "|"
          (Tid.to_string tv.Table.tid
          :: List.map Value.to_string (Array.to_list tv.Table.values)))
      (Table.scan (Catalog.find (Database.catalog db) "orders"))
  in
  Alcotest.(check (list string)) "orders file decodes to the live rows"
    (rows (Server.db server)) (rows restored);
  let result = Ldv_core.Replay.execute (Ldv_core.Ptu.build audit) in
  Alcotest.(check (list string)) "ptu package replays" []
    (Ldv_core.Replay.verify ~audit result)

let test_connect_disconnect () =
  let kernel = Minios.Kernel.create () in
  let server = Server.install kernel (Database.create ()) in
  (match Server.handle server (Protocol.Connect { db_name = "x"; pid = 1 }) with
  | Protocol.Connected _ -> ()
  | _ -> Alcotest.fail "expected connected");
  match Server.handle server Protocol.Disconnect with
  | Protocol.Ddl_ok -> ()
  | _ -> Alcotest.fail "expected ok"

let suite =
  [ Alcotest.test_case "install artifacts" `Quick test_install_writes_artifacts;
    Alcotest.test_case "handle statements" `Quick test_handle_statements;
    Alcotest.test_case "traced start/stop" `Quick test_traced_start_stop_events;
    Alcotest.test_case "table image roundtrip" `Quick test_table_image_roundtrip;
    Alcotest.test_case "stop reuses unchanged images" `Quick
      test_stop_reuses_unchanged_images;
    Alcotest.test_case "connect/disconnect" `Quick test_connect_disconnect ]

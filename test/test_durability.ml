(* Tests for the crash-consistency machinery: the VFS durability model
   (buffered writes, fsync barriers, torn tails), the minidb WAL,
   checkpoint + redo recovery (Dbclient.Durable), the crash campaigns,
   and the crash-safe package writer. *)

open Dbclient
module F = Ldv_faults
module K = Minios.Kernel
module V = Minios.Vfs
module Check = Ldv_core.Check

let data_dir = "/var/minidb/data"
let wal = data_dir ^ "/wal.log"

let exec d sql =
  match Durable.exec d sql with
  | Protocol.Error_response msg -> Alcotest.failf "statement failed: %s" msg
  | _ -> ()

let rows kernel_db table =
  List.length
    (Minidb.Table.scan
       (Minidb.Catalog.find (Minidb.Database.catalog kernel_db) table))

(* ---------------- VFS durability model -------------------------- *)

let test_vfs_buffered_lost_on_crash () =
  let v = V.create () in
  V.write_string v ~path:"/f" "base";
  V.append_buffered v ~path:"/f" "+tail";
  Alcotest.(check string) "readers see buffered bytes" "base+tail"
    (V.read v "/f");
  Alcotest.(check int) "unsynced tail" 5 (V.unsynced_bytes v "/f");
  V.crash v ();
  Alcotest.(check string) "crash drops unsynced bytes" "base" (V.read v "/f")

let test_vfs_fsync_makes_durable () =
  let v = V.create () in
  V.append_buffered v ~path:"/f" "hello";
  V.fsync v "/f";
  V.append_buffered v ~path:"/f" " world";
  V.crash v ();
  Alcotest.(check string) "synced prefix survives" "hello" (V.read v "/f")

let test_vfs_never_synced_vanishes () =
  let v = V.create () in
  V.append_buffered v ~path:"/f" "ghost";
  V.crash v ();
  Alcotest.(check bool) "never-synced file vanishes" false (V.exists v "/f")

let test_vfs_torn_keep () =
  let v = V.create () in
  V.write_string v ~path:"/f" "base";
  V.append_buffered v ~path:"/f" "0123456789";
  V.crash v ~keep:[ ("/f", 4) ] ();
  Alcotest.(check string) "torn prefix of the tail survives" "base0123"
    (V.read v "/f");
  Alcotest.(check int) "survivors are durable" 0 (V.unsynced_bytes v "/f")

let test_vfs_truncate_buffered_resurrects () =
  let v = V.create () in
  V.write_string v ~path:"/f" "durable";
  V.truncate_buffered v ~path:"/f" ();
  Alcotest.(check string) "truncation visible" "" (V.read v "/f");
  V.crash v ();
  Alcotest.(check string) "crash resurrects durable content" "durable"
    (V.read v "/f")

(* ---------------- deferred data files --------------------------- *)

(* A traced server over two small tables; [stop] inserts into [orders]
   and stops it. The images are encoded eagerly, straight from the
   tables, as the expectation. *)
let deferred_server () =
  let kernel = K.create () in
  let db = Minidb.Database.create () in
  List.iter
    (fun sql -> ignore (Minidb.Database.exec db sql))
    [ "CREATE TABLE customer (c_custkey INT, c_name TEXT)";
      "CREATE TABLE orders (o_orderkey INT, o_custkey INT, o_comment TEXT)";
      "INSERT INTO customer VALUES (1, 'Customer#1'), (2, 'Customer#2')";
      "INSERT INTO orders VALUES (10, 1, 'first'), (11, 2, 'second')" ];
  let server = Server.install kernel db in
  let images () =
    List.map
      (fun name ->
        ( Server.data_file server name,
          Server.encode_table_image
            (Server.table_image
               (Minidb.Catalog.find (Minidb.Database.catalog db) name)) ))
      [ "customer"; "orders" ]
  in
  let stop () =
    ignore (Minidb.Database.exec db "INSERT INTO orders VALUES (12, 1, 'third')");
    Server.stop_traced kernel server
  in
  (K.vfs kernel, images, (fun () -> ignore (Server.start_traced kernel server)), stop)

(* each file's size, asked for before its bytes exist, is their length *)
let check_sizes what v images =
  let sizes = List.map (fun (path, _) -> (path, V.size v path)) images in
  List.iter
    (fun (path, bytes) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s size" what path)
        (String.length (V.read v path))
        (List.assoc path sizes);
      Alcotest.(check bool) (Printf.sprintf "%s: %s bytes" what path) true
        (String.equal bytes (V.read v path)))
    images

let orders_dat = data_dir ^ "/orders.dat"

let test_deferred_sizes () =
  let v, images, start, stop = deferred_server () in
  start ();
  let at_start = images () in
  check_sizes "after start" v at_start;
  stop ();
  let at_stop = images () in
  Alcotest.(check bool) "the stop changed orders" false
    (String.equal (List.assoc orders_dat at_start) (List.assoc orders_dat at_stop));
  check_sizes "after stop" v at_stop

let test_deferred_crash_restores_start () =
  let v, images, start, stop = deferred_server () in
  let at_start = images () in
  start ();
  stop ();
  V.crash v ();
  List.iter
    (fun (path, bytes) ->
      Alcotest.(check bool) (path ^ " back to its start bytes") true
        (String.equal bytes (V.read v path)))
    at_start

let test_deferred_fsync_survives () =
  let v, images, start, stop = deferred_server () in
  let at_start = images () in
  start ();
  stop ();
  let at_stop = images () in
  Alcotest.(check bool) "orders changed" false
    (String.equal (List.assoc orders_dat at_start) (List.assoc orders_dat at_stop));
  List.iter (fun (path, _) -> V.fsync v path) at_stop;
  V.crash v ();
  List.iter
    (fun (path, bytes) ->
      Alcotest.(check bool) (path ^ " keeps its stop bytes") true
        (String.equal bytes (V.read v path)))
    at_stop

(* ---------------- deferred checkpoints -------------------------- *)

let checkpoint_img = data_dir ^ "/checkpoint.img"

(* The bytes of deferred content, or [None] while none were produced. *)
let produced (c : V.content) =
  match c with
  | V.Deferred { bytes; _ } when Lazy.is_val bytes -> Some (Lazy.force bytes)
  | V.Deferred _ -> None
  | _ -> Alcotest.fail "expected deferred content"

(* A durable server with a few rows in [t], and the payload that an eager
   encode produces at the instant of its next checkpoint. *)
let checkpointed_server () =
  let kernel, d = Durable.boot () in
  exec d "CREATE TABLE t (a INT, s TEXT)";
  exec d "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')";
  let expected =
    Option.get
      (V.content_bytes
         (Server.checkpoint_content
            (Server.db (Durable.server d))
            ~last_seq:(Durable.next_seq d - 1)))
  in
  (kernel, d, expected)

let test_deferred_checkpoint_bytes () =
  let kernel, d, expected = checkpointed_server () in
  Durable.checkpoint d;
  (* rewrite a row, drop the highest rid and insert past it: the rows,
     the row-id allocator and the clock all move after the capture *)
  exec d "UPDATE t SET s = 'uno' WHERE a = 1";
  exec d "DELETE FROM t WHERE a = 3";
  exec d "INSERT INTO t VALUES (4, 'four')";
  let v = K.vfs kernel in
  Alcotest.(check bool) "not produced by the checkpoint" true
    (produced (V.content v checkpoint_img) = None);
  Alcotest.(check bool) "the checkpoint instant's bytes" true
    (String.equal expected (V.read v checkpoint_img))

let test_deferred_checkpoint_size () =
  let kernel, d, _ = checkpointed_server () in
  Durable.checkpoint d;
  let v = K.vfs kernel in
  let size = V.size v checkpoint_img in
  Alcotest.(check bool) "the size produces no bytes" true
    (produced (V.content v checkpoint_img) = None);
  Alcotest.(check int) "size is the length of the bytes"
    (String.length (V.read v checkpoint_img))
    size

(* Replicas checkpoint every 8 applied records, and nothing reads those
   images until a replica recovers. *)
let test_deferred_replica_checkpoints () =
  let kernel, leader = Durable.boot () in
  let cluster = Replication.create kernel ~leader ~replicas:2 () in
  let write sql =
    match Replication.exec cluster sql with
    | Protocol.Error_response m -> Alcotest.failf "cluster exec failed: %s" m
    | _ -> ()
  in
  write "CREATE TABLE t (a INT, s TEXT)";
  for i = 1 to 36 do
    write (Printf.sprintf "INSERT INTO t VALUES (%d, 's%d')" i i)
  done;
  write "UPDATE t SET s = 'even' WHERE a = 2";
  write "DELETE FROM t WHERE a = 36";
  let v = K.vfs kernel in
  let image i =
    V.content v (Replication.data_dir_of i ^ "/checkpoint.img")
  in
  for i = 0 to 1 do
    Alcotest.(check bool)
      (Printf.sprintf "replica %d: checkpoint.img unproduced" i)
      true
      (produced (image i) = None)
  done;
  let before = image 0 in
  Replication.crash_replica cluster cluster.Replication.replicas.(0);
  Replication.recover cluster 0;
  Alcotest.(check bool) "recovery produced replica 0's image" true
    (produced before <> None);
  Alcotest.(check bool) "replica 1's image still unproduced" true
    (produced (image 1) = None);
  write "INSERT INTO t VALUES (37, 's37')";
  Replication.quiesce cluster;
  for i = 0 to 1 do
    Alcotest.(check string)
      (Printf.sprintf "replica %d byte-identical" i)
      (Minidb.Fingerprint.state (Replication.leader_db cluster))
      (Minidb.Fingerprint.state (Replication.replica_db cluster i))
  done

(* The base backup each replica starts from is deferred content over one
   capture of the leader: creating the cluster encodes nothing, and a
   replica that crashes before its first own checkpoint recovers from
   exactly the eager encoding of that capture. *)
let test_deferred_replica_base_backup () =
  let kernel, leader = Durable.boot () in
  exec leader "CREATE TABLE t (a INT, s TEXT)";
  exec leader "CREATE INDEX t_a ON t (a)";
  for i = 1 to 12 do
    exec leader (Printf.sprintf "INSERT INTO t VALUES (%d, 's%d')" i i)
  done;
  exec leader "DELETE FROM t WHERE a = 12";
  let expected =
    Server.encode_capture
      (Server.capture_checkpoint (Server.db (Durable.server leader)))
      ~last_seq:(Durable.next_seq leader - 1)
  in
  let cluster = Replication.create kernel ~leader ~replicas:2 () in
  let v = K.vfs kernel in
  let image i = V.content v (Replication.data_dir_of i ^ "/checkpoint.img") in
  for i = 0 to 1 do
    Alcotest.(check bool)
      (Printf.sprintf "replica %d: base backup unproduced" i)
      true
      (produced (image i) = None)
  done;
  let base = image 0 in
  Replication.crash_replica cluster cluster.Replication.replicas.(0);
  Replication.recover cluster 0;
  Alcotest.(check (option string)) "recovery read the eager encoding"
    (Some expected) (produced base);
  Alcotest.(check string) "replica 0 recovered to the leader's state"
    (Minidb.Fingerprint.state (Replication.leader_db cluster))
    (Minidb.Fingerprint.state (Replication.replica_db cluster 0))

(* The checkpoint protocol's crash windows: at [ckpt.image] the
   unsynced image vanishes, at [ckpt.pre_rename] it survives whole. A
   torn tail is granted only to [Data] appends such as the WAL's, so the
   image never tears, even when the crash offers it one. *)
let test_deferred_checkpoint_crash_windows () =
  let tmp = checkpoint_img ^ ".new" in
  let crash_at site =
    let kernel, d, expected = checkpointed_server () in
    let plan = F.make ~crash:(site, 1) ~seed:7 () in
    (F.with_plan plan @@ fun () ->
     match Durable.checkpoint d with
     | () -> Alcotest.failf "expected a crash at %s" site
     | exception F.Crash _ -> ());
    let v = K.vfs kernel in
    Alcotest.(check int) (site ^ ": no unsynced tail to tear") 0
      (V.unsynced_bytes v tmp);
    K.crash kernel ~keep:[ (tmp, 16) ] ();
    (kernel, v, expected)
  in
  let _, v, _ = crash_at "ckpt.image" in
  Alcotest.(check bool) "ckpt.image: the image vanishes" false (V.exists v tmp);
  let kernel, v, expected = crash_at "ckpt.pre_rename" in
  Alcotest.(check bool) "ckpt.pre_rename: the image survives whole" true
    (String.equal expected (V.read v tmp));
  let d', _ = Durable.recover kernel ~data_dir () in
  Alcotest.(check int) "recovery redoes the WAL" 3
    (rows (Server.db (Durable.server d')) "t")

(* ---------------- WAL format ------------------------------------ *)

let test_wal_roundtrip () =
  let kernel, d = Durable.boot () in
  exec d "CREATE TABLE t (a INT, note TEXT)";
  exec d "INSERT INTO t VALUES (1, 'multi\nline''s')";
  let loaded = Wal.load (K.vfs kernel) wal in
  Alcotest.(check int) "two records" 2 (List.length loaded.Wal.records);
  Alcotest.(check int) "no torn bytes" 0 loaded.Wal.torn_bytes;
  let sqls = List.map (fun (r : Wal.record) -> r.Wal.sql) loaded.Wal.records in
  Alcotest.(check (list string)) "payloads round-trip (newline included)"
    [ "CREATE TABLE t (a INT, note TEXT)";
      "INSERT INTO t VALUES (1, 'multi\nline''s')" ]
    sqls;
  Alcotest.(check (list int)) "sequence numbers are 1-based ordinals" [ 1; 2 ]
    (List.map (fun (r : Wal.record) -> r.Wal.seq) loaded.Wal.records)

(* Text that does not parse is refused before anything is logged: the
   durable path raises the parser's typed error and appends no record,
   and the server answers it with an error response. *)
let test_wal_unparseable_logs_nothing () =
  let kernel, d = Durable.boot () in
  exec d "CREATE TABLE t (a INT)";
  let vfs = K.vfs kernel in
  let before = V.read vfs wal in
  let seq = Durable.next_seq d in
  Alcotest.(check bool) "typed parse error" true
    (match Durable.exec d "UPDATE t SET WHERE" with
    | _ -> false
    | exception Minidb.Errors.Db_error (Minidb.Errors.Parse_error _) -> true);
  Alcotest.(check string) "no record appended" before (V.read vfs wal);
  Alcotest.(check int) "no sequence number used" seq (Durable.next_seq d);
  Alcotest.(check bool) "the server answers with an error" true
    (match Server.handle (Durable.server d) "UPDATE t SET WHERE" with
    | Protocol.Error_response _ -> true
    | _ -> false)

let test_wal_torn_tail_detected () =
  let kernel, d = Durable.boot () in
  exec d "CREATE TABLE t (a INT)";
  exec d "INSERT INTO t VALUES (1)";
  let vfs = K.vfs kernel in
  let full = V.read vfs wal in
  (* tear the last record: keep all but its final 5 bytes *)
  V.write_string vfs ~path:wal (String.sub full 0 (String.length full - 5));
  let loaded = Wal.load vfs wal in
  Alcotest.(check int) "only the intact record parses" 1
    (List.length loaded.Wal.records);
  Alcotest.(check bool) "torn bytes reported" true (loaded.Wal.torn_bytes > 0)

let test_wal_durable_cut_drops_open_tx () =
  let r seq kind sql = { Wal.seq; kind; sid = 0; sql } in
  let records =
    [ r 1 Wal.Stmt "s1"; r 2 Wal.Begin "BEGIN"; r 3 Wal.Stmt "s2";
      r 4 Wal.Commit "COMMIT"; r 5 Wal.Begin "BEGIN"; r 6 Wal.Stmt "s3" ]
  in
  let replay, dropped, redo_upto = Wal.durable_cut records in
  Alcotest.(check int) "replay up to the last closed tx" 4
    (List.length replay);
  Alcotest.(check int) "trailing open tx dropped" 2 (List.length dropped);
  Alcotest.(check int) "redo high-water mark" 4 redo_upto

(* Regression for the tx-depth bug: open-transaction tracking is per
   session, so one session's open transaction must not drag another
   session's durably committed transaction (interleaved in the log) into
   the dropped set. *)
let test_wal_durable_cut_per_session () =
  let r seq kind sid sql = { Wal.seq; kind; sid; sql } in
  let records =
    [ r 1 Wal.Stmt 0 "s1"; r 2 Wal.Begin 0 "BEGIN"; r 3 Wal.Begin 1 "BEGIN";
      r 4 Wal.Stmt 0 "s2"; r 5 Wal.Stmt 1 "s3"; r 6 Wal.Commit 1 "COMMIT";
      r 7 Wal.Stmt 0 "s4" ]
  in
  let replay, dropped, redo_upto = Wal.durable_cut records in
  let seqs rs = List.map (fun (r : Wal.record) -> r.Wal.seq) rs in
  Alcotest.(check (list int))
    "session 1's committed tx replays through the interleaving" [ 1; 3; 5; 6 ]
    (seqs replay);
  Alcotest.(check (list int)) "only session 0's open tx is dropped" [ 2; 4; 7 ]
    (seqs dropped);
  Alcotest.(check int) "redo high-water mark spans the survivors" 6 redo_upto

(* ---------------- recovery semantics ---------------------------- *)

let test_recover_redoes_wal_suffix () =
  let kernel, d = Durable.boot () in
  exec d "CREATE TABLE t (a INT)";
  exec d "INSERT INTO t VALUES (1)";
  Durable.checkpoint d;
  exec d "INSERT INTO t VALUES (2)";
  exec d "INSERT INTO t VALUES (3)";
  K.crash kernel ();
  let d', stats = Durable.recover kernel ~data_dir () in
  Alcotest.(check int) "checkpoint covered the first two records" 2
    stats.Durable.checkpoint_seq;
  Alcotest.(check int) "two records redone" 2 stats.Durable.redone;
  Alcotest.(check int) "all three rows recovered" 3
    (rows (Server.db (Durable.server d')) "t");
  (* the post-recovery checkpoint leaves an empty log for the next run *)
  Alcotest.(check int) "WAL empty after recovery" 0
    (List.length (Wal.load (K.vfs kernel) wal).Wal.records)

let test_rollback_leaves_no_trace_after_recovery () =
  let kernel, d = Durable.boot () in
  exec d "CREATE TABLE t (a INT)";
  exec d "INSERT INTO t VALUES (1)";
  exec d "BEGIN";
  exec d "INSERT INTO t VALUES (2)";
  exec d "UPDATE t SET a = 99 WHERE a = 1";
  exec d "ROLLBACK";
  exec d "INSERT INTO t VALUES (3)";
  K.crash kernel ();
  let d', _ = Durable.recover kernel ~data_dir () in
  let db' = Server.db (Durable.server d') in
  Alcotest.(check int) "only the committed rows" 2 (rows db' "t");
  let vals =
    List.map
      (fun (tv : Minidb.Table.tuple_version) ->
        Minidb.Value.to_raw_string tv.Minidb.Table.values.(0))
      (Minidb.Table.scan
         (Minidb.Catalog.find (Minidb.Database.catalog db') "t"))
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "rolled-back insert and update gone"
    [ "1"; "3" ] vals;
  (* replaying the ROLLBACK literally must keep the clock aligned with an
     uncrashed run of the same statements *)
  let _, control = Durable.boot () in
  List.iter (exec control)
    [ "CREATE TABLE t (a INT)"; "INSERT INTO t VALUES (1)"; "BEGIN";
      "INSERT INTO t VALUES (2)"; "UPDATE t SET a = 99 WHERE a = 1";
      "ROLLBACK"; "INSERT INTO t VALUES (3)" ];
  Alcotest.(check int) "clock parity with uncrashed control"
    (Minidb.Database.clock (Server.db (Durable.server control)))
    (Minidb.Database.clock db')

let test_commit_prefsync_crash_loses_tx_atomically () =
  let kernel, d = Durable.boot () in
  exec d "CREATE TABLE t (a INT)";
  exec d "INSERT INTO t VALUES (1)";
  (* wal.pre_fsync is consulted by sync-needed statements only; under the
     plan, BEGIN and the in-transaction statements never sync, so the
     first hit is the COMMIT barrier *)
  let plan = F.make ~crash:("wal.pre_fsync", 1) ~seed:7 () in
  let crashed =
    F.with_plan plan @@ fun () ->
    match
      exec d "BEGIN";
      exec d "INSERT INTO t VALUES (2)";
      exec d "UPDATE t SET a = 10 WHERE a = 1";
      exec d "COMMIT"
    with
    | () -> false
    | exception F.Crash site ->
      Alcotest.(check string) "crashed at the COMMIT barrier" "wal.pre_fsync"
        site;
      true
  in
  Alcotest.(check bool) "crash fired" true crashed;
  K.crash kernel ();
  let d', stats = Durable.recover kernel ~data_dir () in
  let db' = Server.db (Durable.server d') in
  (* the transaction's records never reached the platter: the whole
     transaction is lost atomically — no partial application *)
  Alcotest.(check int) "pre-transaction state only" 1 (rows db' "t");
  Alcotest.(check int) "no open-transaction leftovers" 0 stats.Durable.dropped;
  Alcotest.(check bool) "recovered db is not mid-transaction" false
    (Minidb.Database.in_transaction db')

(* Crash in the middle of a rollback's undo walk: the ROLLBACK record was
   synced before execution, so recovery replays the whole transaction plus
   the ROLLBACK literally — the interrupted undo is simply redone from
   scratch, and the recovered state matches an uncrashed run. *)
let test_undo_walk_crash_recovers_rollback () =
  let kernel, d = Durable.boot () in
  exec d "CREATE TABLE t (a INT)";
  exec d "INSERT INTO t VALUES (1)";
  exec d "BEGIN";
  exec d "INSERT INTO t VALUES (2)";
  exec d "UPDATE t SET a = 99 WHERE a = 1";
  let plan = F.make ~crash:("tx.undo", 1) ~seed:7 () in
  let crashed =
    F.with_plan plan @@ fun () ->
    match exec d "ROLLBACK" with
    | () -> false
    | exception F.Crash site ->
      Alcotest.(check string) "crashed mid-undo" "tx.undo" site;
      true
  in
  Alcotest.(check bool) "crash fired" true crashed;
  K.crash kernel ();
  let d', _ = Durable.recover kernel ~data_dir () in
  let db' = Server.db (Durable.server d') in
  Alcotest.(check int) "only the pre-transaction row" 1 (rows db' "t");
  Alcotest.(check bool) "recovered db is not mid-transaction" false
    (Minidb.Database.in_transaction db');
  let vals =
    List.map
      (fun (tv : Minidb.Table.tuple_version) ->
        Minidb.Value.to_raw_string tv.Minidb.Table.values.(0))
      (Minidb.Table.scan
         (Minidb.Catalog.find (Minidb.Database.catalog db') "t"))
  in
  Alcotest.(check (list string)) "update undone, insert gone" [ "1" ] vals;
  let _, control = Durable.boot () in
  List.iter (exec control)
    [ "CREATE TABLE t (a INT)"; "INSERT INTO t VALUES (1)"; "BEGIN";
      "INSERT INTO t VALUES (2)"; "UPDATE t SET a = 99 WHERE a = 1";
      "ROLLBACK" ];
  Alcotest.(check int) "clock parity with uncrashed control"
    (Minidb.Database.clock (Server.db (Durable.server control)))
    (Minidb.Database.clock db')

(* A torn WAL tail that lands on the COMMIT record leaves the transaction
   open in the durable log: recovery must drop the whole transaction
   atomically, not replay its statements. *)
let test_torn_commit_drops_tx_atomically () =
  let kernel, d = Durable.boot () in
  exec d "CREATE TABLE t (a INT)";
  exec d "INSERT INTO t VALUES (1)";
  exec d "BEGIN";
  exec d "INSERT INTO t VALUES (2)";
  exec d "COMMIT";
  let vfs = K.vfs kernel in
  let full = V.read vfs wal in
  (* tear the last 4 bytes: the COMMIT record no longer parses *)
  V.write_string vfs ~path:wal (String.sub full 0 (String.length full - 4));
  let d', stats = Durable.recover kernel ~data_dir () in
  let db' = Server.db (Durable.server d') in
  Alcotest.(check int) "pre-transaction state only" 1 (rows db' "t");
  Alcotest.(check int) "BEGIN and the in-tx insert dropped" 2
    stats.Durable.dropped;
  Alcotest.(check bool) "recovered db is not mid-transaction" false
    (Minidb.Database.in_transaction db')

let test_next_rid_preserved_across_checkpoint () =
  let kernel, d = Durable.boot () in
  exec d "CREATE TABLE t (a INT)";
  exec d "INSERT INTO t VALUES (1)";
  exec d "INSERT INTO t VALUES (2)";
  exec d "DELETE FROM t WHERE a = 2";
  (* the highest-rid row is dead: a checkpoint that derived next_rid from
     live rows alone would re-issue rid 2 after recovery *)
  Durable.checkpoint d;
  K.crash kernel ();
  let d', _ = Durable.recover kernel ~data_dir () in
  exec d' "INSERT INTO t VALUES (3)";
  let table =
    Minidb.Catalog.find
      (Minidb.Database.catalog (Server.db (Durable.server d')))
      "t"
  in
  let rids =
    List.map
      (fun (tv : Minidb.Table.tuple_version) -> tv.Minidb.Table.tid.Minidb.Tid.rid)
      (Minidb.Table.scan table)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "fresh insert continues the rid sequence"
    [ 1; 3 ] rids

let test_ckpt_pre_gc_crash_no_double_apply () =
  let kernel, d = Durable.boot () in
  exec d "CREATE TABLE t (a INT)";
  exec d "INSERT INTO t VALUES (1)";
  exec d "INSERT INTO t VALUES (1)";
  let plan = F.make ~crash:("ckpt.pre_gc", 1) ~seed:7 () in
  (F.with_plan plan @@ fun () ->
   match Durable.checkpoint d with
   | () -> Alcotest.fail "expected a crash"
   | exception F.Crash _ -> ());
  (* image published, WAL not yet emptied: records <= ck_last_seq must be
     skipped by sequence number, not re-applied *)
  K.crash kernel ();
  let d', stats = Durable.recover kernel ~data_dir () in
  Alcotest.(check int) "nothing redone past the image" 0 stats.Durable.redone;
  Alcotest.(check int) "rows not doubled" 2
    (rows (Server.db (Durable.server d')) "t")

(* A published checkpoint with one byte flipped at [pos image] must fail
   recovery with a typed engine error, not restore wrong rows and not
   escape as Failure, Invalid_argument or Not_found. *)
let recover_flipped_checkpoint ~pos () =
  let kernel, d = Durable.boot () in
  exec d "CREATE TABLE t (a INT, s TEXT)";
  exec d "INSERT INTO t VALUES (1, 'needle-one')";
  exec d "INSERT INTO t VALUES (2, 'needle-two')";
  Durable.checkpoint d;
  K.crash kernel ();
  let path = data_dir ^ "/checkpoint.img" in
  let image = V.read (K.vfs kernel) path in
  let at = pos image in
  V.write_string (K.vfs kernel) ~path
    (String.mapi
       (fun i c -> if i = at then Char.chr (Char.code c lxor 0x20) else c)
       image);
  match Durable.recover kernel ~data_dir () with
  | _ -> Alcotest.failf "checkpoint flipped at byte %d recovered" at
  | exception Minidb.Errors.Db_error _ -> ()
  | exception e -> Alcotest.failf "untyped %s" (Printexc.to_string e)

let in_string_payload image =
  let needle = "needle-two" in
  let n = String.length needle in
  let rec go i =
    if String.sub image i n = needle then i + 3 else go (i + 1)
  in
  go 0

(* ---------------- crash campaigns ------------------------------- *)

let test_crashcheck_deterministic_and_verified () =
  let crash = Check.crash ~recover:true ~sessions:1 in
  let r1 = Check.run crash ~campaigns:6 ~seed:123 in
  let r2 = Check.run crash ~campaigns:6 ~seed:123 in
  Alcotest.(check string) "same seed, identical report"
    (Check.to_string r1) (Check.to_string r2);
  Alcotest.(check int) "no divergence" 0 r1.Check.r_divergent;
  Alcotest.(check int) "no uncaught exceptions" 0 r1.Check.r_uncaught

let test_crashcheck_no_recover_diverges () =
  let r =
    Check.run (Check.crash ~recover:false ~sessions:1) ~campaigns:6 ~seed:123
  in
  Alcotest.(check bool) "skipping redo loses work the verifier catches" true
    (r.Check.r_divergent > 0)

(* ---------------- crash-safe package writer --------------------- *)

(* A failed write names the path asked for, never the temp file. *)
let check_write_fails pkg ~dest =
  match Ldv_core.Package.write_file pkg ~path:dest with
  | () -> Alcotest.failf "expected the write to %s to fail" dest
  | exception Sys_error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S starts with the destination" msg)
      true
      (String.starts_with ~prefix:(dest ^ ": ") msg);
    (* the temp file is <dest>.<pid>.<n>.tmp; the temp directory's own
       path may contain ".tmp", so look for the temp file's name *)
    Alcotest.(check bool)
      (Printf.sprintf "%S names no temp file" msg)
      false
      (Fixtures.contains_substring ~needle:(dest ^ ".") msg)

let test_write_file_no_tmp_after_failure () =
  let audit = Lazy.force Ldv_fixtures.included in
  let pkg = Ldv_core.Package.build audit in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ldv-durability-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      (* the destination's directory is missing: the temp file cannot be
         created *)
      check_write_fails pkg
        ~dest:(Filename.concat (Filename.concat dir "missing") "app.ldv");
      (* the destination is a directory: serialization and the temp write
         succeed, the final rename fails *)
      let dest = Filename.concat dir "taken" in
      Unix.mkdir dest 0o700;
      Fun.protect
        ~finally:(fun () -> Unix.rmdir dest)
        (fun () ->
          check_write_fails pkg ~dest;
          let leftovers =
            Array.to_list (Sys.readdir dir)
            |> List.filter (fun f -> f <> "taken")
          in
          Alcotest.(check (list string)) "no temp files left behind" []
            leftovers))

let suite =
  [ Alcotest.test_case "vfs: buffered bytes lost on crash" `Quick
      test_vfs_buffered_lost_on_crash;
    Alcotest.test_case "vfs: fsync makes bytes durable" `Quick
      test_vfs_fsync_makes_durable;
    Alcotest.test_case "vfs: never-synced file vanishes" `Quick
      test_vfs_never_synced_vanishes;
    Alcotest.test_case "vfs: torn tail survives via keep" `Quick
      test_vfs_torn_keep;
    Alcotest.test_case "vfs: buffered truncate resurrects" `Quick
      test_vfs_truncate_buffered_resurrects;
    Alcotest.test_case "deferred: size is the length of the bytes" `Quick
      test_deferred_sizes;
    Alcotest.test_case "deferred: crash restores start bytes" `Quick
      test_deferred_crash_restores_start;
    Alcotest.test_case "deferred: fsync keeps stop bytes" `Quick
      test_deferred_fsync_survives;
    Alcotest.test_case "deferred: checkpoint bytes are the capture's" `Quick
      test_deferred_checkpoint_bytes;
    Alcotest.test_case "deferred: checkpoint size is its length" `Quick
      test_deferred_checkpoint_size;
    Alcotest.test_case "deferred: replica checkpoints unread until recovery"
      `Quick test_deferred_replica_checkpoints;
    Alcotest.test_case "deferred: replica base backup unread until recovery"
      `Quick test_deferred_replica_base_backup;
    Alcotest.test_case "deferred: checkpoint crash windows" `Quick
      test_deferred_checkpoint_crash_windows;
    Alcotest.test_case "wal: records round-trip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal: unparseable SQL logs nothing" `Quick
      test_wal_unparseable_logs_nothing;
    Alcotest.test_case "wal: torn tail detected" `Quick
      test_wal_torn_tail_detected;
    Alcotest.test_case "wal: durable cut drops open tx" `Quick
      test_wal_durable_cut_drops_open_tx;
    Alcotest.test_case "wal: durable cut is per-session" `Quick
      test_wal_durable_cut_per_session;
    Alcotest.test_case "recover: redoes WAL suffix" `Quick
      test_recover_redoes_wal_suffix;
    Alcotest.test_case "recover: ROLLBACK leaves no trace" `Quick
      test_rollback_leaves_no_trace_after_recovery;
    Alcotest.test_case "recover: COMMIT pre-fsync crash is atomic" `Quick
      test_commit_prefsync_crash_loses_tx_atomically;
    Alcotest.test_case "recover: undo-walk crash replays ROLLBACK" `Quick
      test_undo_walk_crash_recovers_rollback;
    Alcotest.test_case "recover: torn COMMIT drops tx atomically" `Quick
      test_torn_commit_drops_tx_atomically;
    Alcotest.test_case "recover: next_rid survives checkpoint" `Quick
      test_next_rid_preserved_across_checkpoint;
    Alcotest.test_case "recover: no double apply after ckpt.pre_gc" `Quick
      test_ckpt_pre_gc_crash_no_double_apply;
    Alcotest.test_case "recover: flipped checkpoint header is typed" `Quick
      (recover_flipped_checkpoint ~pos:(fun _ -> 0));
    Alcotest.test_case "recover: flipped checkpoint row string is typed" `Quick
      (recover_flipped_checkpoint ~pos:in_string_payload);
    Alcotest.test_case "recover: flipped checkpoint trailer is typed" `Quick
      (recover_flipped_checkpoint ~pos:(fun image -> String.length image - 1));
    Alcotest.test_case "crashcheck: deterministic and verified" `Quick
      test_crashcheck_deterministic_and_verified;
    Alcotest.test_case "crashcheck: --no-recover diverges" `Quick
      test_crashcheck_no_recover_diverges;
    Alcotest.test_case "package: no .tmp after failed write" `Quick
      test_write_file_no_tmp_after_failure ]

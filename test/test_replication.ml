(* WAL-shipping replication: durable-cut recovery edges, ship-fault and
   crash/recover convergence, the session read router with its staleness
   bound, retry telemetry, the replica campaigns, and
   cluster-served concurrent audits replaying byte-identically. *)

open Ldv_core
open Dbclient
module F = Ldv_faults
module E = Ldv_errors
module K = Minios.Kernel
module R = Replication
module Obs = Ldv_obs

(* Run [f] against a clean in-memory collector (see test_obs.ml). *)
let with_memory f =
  Obs.set_sink Obs.Memory;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Null;
      Obs.reset ())
    f

let counter_of (snap : Obs.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name snap.Obs.counters)

let exec cluster sql =
  match R.exec cluster sql with
  | Protocol.Error_response m -> Alcotest.failf "cluster exec failed: %s" m
  | _ -> ()

let lexec (d : Durable.t) sql =
  match Durable.exec d sql with
  | Protocol.Error_response m -> Alcotest.failf "leader exec failed: %s" m
  | _ -> ()

let check_converged what cluster =
  match R.converged cluster with
  | None -> ()
  | Some (i, diff) ->
    Alcotest.failf "%s: replica %d diverged: %s" what i diff

(* ---------------- Wal.durable_cut edges ------------------------- *)

let test_durable_cut_empty () =
  let replay, dropped, redo_upto = Wal.durable_cut [] in
  Alcotest.(check int) "nothing to replay" 0 (List.length replay);
  Alcotest.(check int) "nothing dropped" 0 (List.length dropped);
  Alcotest.(check int) "redo mark is the fallback" 0 redo_upto;
  let _, _, upto = Wal.durable_cut ~fallback:7 [] in
  Alcotest.(check int) "explicit fallback honoured" 7 upto

(* A tear in the middle of a deferred-sync batch: under group commit
   nothing is durable until the quantum barrier, so a crash that keeps a
   torn prefix of the batch loses every record at or after the tear —
   and recovery replays exactly the intact prefix. *)
let test_torn_record_mid_batch_grouped () =
  let kernel, d = Durable.boot () in
  Durable.set_policy d Durable.Grouped;
  lexec d "CREATE TABLE t (a INT)";
  for i = 1 to 5 do
    lexec d (Printf.sprintf "INSERT INTO t VALUES (%d)" i)
  done;
  let vfs = K.vfs kernel in
  let wal_path = Durable.wal_path (Durable.server d) in
  let unsynced = Minios.Vfs.unsynced_bytes vfs wal_path in
  Alcotest.(check bool) "group commit deferred every sync" true
    (unsynced > 0);
  (* keep the whole batch minus 4 bytes: the tear lands inside the last
     record, mid-batch relative to the deferred-sync window *)
  K.crash kernel ~keep:[ (wal_path, unsynced - 4) ] ();
  let warned = ref None in
  let prev = !E.on_warning in
  E.on_warning := (fun e -> warned := Some e);
  let loaded =
    Fun.protect
      ~finally:(fun () -> E.on_warning := prev)
      (fun () -> Wal.load vfs wal_path)
  in
  Alcotest.(check bool) "torn bytes detected" true
    (loaded.Wal.torn_bytes > 0);
  Alcotest.(check bool) "typed Wal_torn warning fired" true
    (match !warned with Some (E.Wal_torn _) -> true | _ -> false);
  Alcotest.(check int) "intact prefix parses" 5
    (List.length loaded.Wal.records);
  let d', stats = Durable.recover kernel ~data_dir:"/var/minidb/data" () in
  Alcotest.(check int) "recovery redoes the intact prefix" 5
    stats.Durable.redone;
  match Server.handle (Durable.server d') "SELECT COUNT(*) FROM t" with
  | Protocol.Result_set { rows = [ [| Minidb.Value.Int n |] ]; _ } ->
    Alcotest.(check int) "torn insert lost, batch prefix kept" 4 n
  | _ -> Alcotest.fail "count query failed after recovery"

(* Resync a crashed replica whose own WAL runs ahead of its last
   checkpoint: recovery must redo the local suffix, then catch-up ships
   only what the replica never saw — no duplicate application. *)
let test_resync_wal_ahead_of_checkpoint () =
  let kernel, leader = Durable.boot () in
  let cluster =
    R.create kernel ~leader ~replicas:1 ~staleness:2 ~ckpt_every:4 ()
  in
  let plan = F.make ~crash:("repl.apply", 7) ~seed:11 () in
  F.with_plan plan (fun () ->
      exec cluster "CREATE TABLE t (a INT)";
      for i = 1 to 9 do
        exec cluster (Printf.sprintf "INSERT INTO t VALUES (%d)" i)
      done);
  Alcotest.(check bool) "replica crashed mid-stream" true
    (R.replica_state cluster 0 = R.Down);
  (* the replica checkpointed at apply #4 and then applied durably past
     it: its WAL is strictly ahead of the checkpoint image *)
  Alcotest.(check int) "replica checkpoint covers apply #4" 4
    (Server.checkpoint_seq
       (Minios.Vfs.read (K.vfs kernel) (R.data_dir_of 0 ^ "/checkpoint.img")));
  Alcotest.(check bool) "replica applied past its checkpoint" true
    (R.replica_applied cluster 0 > 4);
  Alcotest.(check bool) "replica behind the leader" true
    (R.replica_applied cluster 0 < R.ship_seq cluster);
  R.recover cluster 0;
  Alcotest.(check bool) "replica back up" true
    (R.replica_state cluster 0 = R.Up);
  Alcotest.(check int) "caught up to the ship head"
    (R.ship_seq cluster)
    (R.replica_applied cluster 0);
  check_converged "resync" cluster

(* A replica checkpoints once it has applied as many records as its
   last checkpoint (here the base backup) held rows, and never before
   [ckpt_every]: over a 20-row table the first local checkpoint comes
   with the 20th apply, not the 8th. *)
let twenty_row_cluster () =
  let kernel, leader = Durable.boot () in
  lexec leader "CREATE TABLE t (k INT, v INT)";
  lexec leader
    ("INSERT INTO t VALUES "
    ^ String.concat ", "
        (List.init 20 (fun i -> Printf.sprintf "(%d, 0)" (i + 1))));
  (kernel, R.create kernel ~leader ~replicas:1 ())

let update k = Printf.sprintf "UPDATE t SET v = %d WHERE k = %d" k k

let replica_checkpoint_seq kernel =
  Server.checkpoint_seq
    (Minios.Vfs.read (K.vfs kernel) (R.data_dir_of 0 ^ "/checkpoint.img"))

let test_replica_checkpoint_amortized () =
  let kernel, cluster = twenty_row_cluster () in
  let base = R.ship_seq cluster in
  for k = 1 to 19 do
    exec cluster (update k)
  done;
  Alcotest.(check int) "19 applies: still the base backup" base
    (replica_checkpoint_seq kernel);
  exec cluster (update 20);
  Alcotest.(check int) "the 20th apply checkpoints" (base + 20)
    (replica_checkpoint_seq kernel);
  (* a crash before the first local checkpoint redoes the replica's WAL
     over the base backup *)
  let kernel, cluster = twenty_row_cluster () in
  let base = R.ship_seq cluster in
  let plan = F.make ~crash:("repl.apply", 15) ~seed:9 () in
  F.with_plan plan (fun () ->
      for k = 1 to 20 do
        exec cluster (update k)
      done);
  Alcotest.(check bool) "replica crashed at apply 15" true
    (R.replica_state cluster 0 = R.Down);
  Alcotest.(check int) "14 applies survived" (base + 14)
    (R.replica_applied cluster 0);
  Alcotest.(check int) "checkpoint still the base backup" base
    (replica_checkpoint_seq kernel);
  R.recover cluster 0;
  Alcotest.(check bool) "replica back up" true
    (R.replica_state cluster 0 = R.Up);
  Alcotest.(check int) "caught up to the ship head" (R.ship_seq cluster)
    (R.replica_applied cluster 0);
  check_converged "amortized checkpoints" cluster

(* ---------------- convergence under faults ---------------------- *)

let test_ship_faults_converge () =
  let kernel, leader = Durable.boot () in
  let cluster = R.create kernel ~leader ~replicas:2 ~staleness:2 () in
  let plan = F.make ~p_ship:0.5 ~seed:3 () in
  F.with_plan plan (fun () ->
      exec cluster "CREATE TABLE t (a INT, b TEXT)";
      for i = 1 to 20 do
        exec cluster (Printf.sprintf "INSERT INTO t VALUES (%d, 'r%d')" i i)
      done);
  Alcotest.(check bool) "faults were actually injected" true
    (List.exists (fun (_, n) -> n > 0) (F.injected plan));
  R.quiesce cluster;
  check_converged "ship faults" cluster;
  for i = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d at the ship head" i)
      (R.ship_seq cluster)
      (R.replica_applied cluster i)
  done

let test_crash_recover_byte_identical () =
  List.iter
    (fun replicas ->
      let kernel, leader = Durable.boot () in
      let cluster = R.create kernel ~leader ~replicas ~staleness:2 () in
      (* every write is applied by replica 0 first, so hit 2r+1 is its
         third apply: it goes down on the second INSERT *)
      let plan = F.make ~crash:("repl.apply", (2 * replicas) + 1) ~seed:5 () in
      F.with_plan plan (fun () ->
          exec cluster "CREATE TABLE t (a INT)";
          for i = 1 to 7 do
            exec cluster (Printf.sprintf "INSERT INTO t VALUES (%d)" i)
          done);
      let what = Printf.sprintf "%d replica(s)" replicas in
      Alcotest.(check bool) (what ^ ": replica 0 down after injected crash")
        true
        (R.replica_state cluster 0 = R.Down);
      Alcotest.(check bool) (what ^ ": write backlog accrued while down") true
        (R.replica_applied cluster 0 < R.ship_seq cluster);
      R.recover cluster 0;
      R.quiesce cluster;
      check_converged what cluster;
      for i = 0 to replicas - 1 do
        Alcotest.(check string)
          (Printf.sprintf "%s: replica %d byte-identical" what i)
          (Minidb.Fingerprint.state (R.leader_db cluster))
          (Minidb.Fingerprint.state (R.replica_db cluster i))
      done)
    [ 1; 2; 4 ]

(* ---------------- the session read router ----------------------- *)

let test_read_router_stale_and_fallback () =
  with_memory @@ fun () ->
  let kernel, leader = Durable.boot () in
  lexec leader "CREATE TABLE t (a INT)";
  lexec leader "INSERT INTO t VALUES (1)";
  lexec leader "INSERT INTO t VALUES (2)";
  (* generous staleness bound: a lagging replica still serves *)
  let cluster = R.create kernel ~leader ~replicas:1 ~staleness:100 () in
  let applied0 = R.replica_applied cluster 0 in
  let plan = F.make ~p_ship:1.0 ~seed:2 () in
  F.with_plan plan (fun () ->
      for i = 3 to 5 do
        exec cluster (Printf.sprintf "INSERT INTO t VALUES (%d)" i)
      done);
  Alcotest.(check bool) "replica is lagging" true
    (R.replica_applied cluster 0 < R.ship_seq cluster);
  let served = R.read cluster "SELECT COUNT(*) FROM t" in
  Alcotest.(check int) "replica answered" 0 served.R.sv_node;
  (match served.R.sv_resp with
  | Protocol.Result_set { rows = [ [| Minidb.Value.Int n |] ]; _ } ->
    (* the replica sees the base backup plus exactly what it applied —
       strictly less than the leader's row count *)
    Alcotest.(check int) "stale read pinned at the applied version"
      (2 + (R.replica_applied cluster 0 - applied0))
      n;
    Alcotest.(check bool) "stale read misses the newest rows" true (n < 5)
  | _ -> Alcotest.fail "stale read failed");
  let snap = Obs.snapshot () in
  Alcotest.(check int) "stale read counted" 1
    (counter_of snap "repl.stale_reads");
  Alcotest.(check int) "replica read counted" 1
    (counter_of snap "repl.reads.replica");
  (* a downed replica is never eligible: the leader must answer *)
  let tight = R.create kernel ~leader ~replicas:1 ~staleness:0 () in
  let plan2 = F.make ~crash:("repl.apply", 1) ~seed:4 () in
  F.with_plan plan2 (fun () ->
      exec tight "INSERT INTO t VALUES (6)");
  Alcotest.(check bool) "replica crashed" true
    (R.replica_state tight 0 = R.Down);
  let served' = R.read tight "SELECT COUNT(*) FROM t" in
  Alcotest.(check int) "leader fallback node" (-1) served'.R.sv_node;
  (match served'.R.sv_resp with
  | Protocol.Result_set { rows = [ [| Minidb.Value.Int n |] ]; _ } ->
    Alcotest.(check int) "fallback sees every committed row" 6 n
  | _ -> Alcotest.fail "fallback read failed");
  Alcotest.(check bool) "fallback counted" true
    (counter_of (Obs.snapshot ()) "repl.fallbacks" >= 1)

(* A replica that applied a shipped BEGIN is mid-transaction, so the
   read falls back to the leader, which holds the same transaction open:
   the fallback must answer outside it, never with an uncommitted
   value, and leave the transaction as it was. *)
let test_fallback_read_outside_leader_tx () =
  let kernel, leader = Durable.boot () in
  let cluster = R.create kernel ~leader ~replicas:1 () in
  List.iter (exec cluster)
    [ "CREATE TABLE t (k INT, v INT)";
      "INSERT INTO t VALUES (1, 1)";
      "BEGIN";
      "UPDATE t SET v = 2 WHERE k = 1" ];
  let value (s : R.served) =
    match s.R.sv_resp with
    | Protocol.Result_set { rows = [ [| Minidb.Value.Int n |] ]; _ } -> n
    | _ -> Alcotest.fail "point read failed"
  in
  let served = R.read cluster "SELECT v FROM t WHERE k = 1" in
  Alcotest.(check int) "the leader answered" (-1) served.R.sv_node;
  Alcotest.(check int) "no uncommitted value" 1 (value served);
  Alcotest.(check bool) "the leader's transaction is still open" true
    (Minidb.Database.in_transaction (R.leader_db cluster));
  exec cluster "COMMIT";
  Alcotest.(check int) "the committed value" 2
    (value (R.read cluster "SELECT v FROM t WHERE k = 1"));
  check_converged "fallback read" cluster

(* ---------------- retry telemetry ------------------------------- *)

let test_retry_site_tagged_telemetry () =
  with_memory @@ fun () ->
  let calls = ref 0 in
  let v =
    F.with_retries ~op:"shiptest" (fun () ->
        incr calls;
        if !calls < 3 then E.fail (E.Connection_lost { context = "flaky" })
        else 9)
  in
  Alcotest.(check int) "eventually succeeded" 9 v;
  let snap = Obs.snapshot () in
  Alcotest.(check int) "global retry counter" 2
    (counter_of snap "faults.retry");
  Alcotest.(check int) "site-and-tag counter" 2
    (counter_of snap "faults.retry.shiptest.conn.lost")

let test_retry_backoff_cap_fails_fast () =
  let calls = ref 0 in
  Alcotest.(check bool) "cap cuts the attempt budget short" true
    (try
       F.with_retries ~attempts:10 ~cap_ms:2.0 ~op:"cap" (fun () ->
           incr calls;
           E.fail (E.Connection_lost { context = "dead peer" }))
     with E.Error (E.Retries_exhausted { op = "cap"; attempts; _ }) ->
       attempts < 10);
  (* backoff 1ms + 2ms exceeds the 2ms cap on the second pause *)
  Alcotest.(check int) "two calls, then fast-fail" 2 !calls

(* ---------------- the replica campaigns ------------------------- *)

let test_replicacheck_deterministic () =
  let replica = Check.replica ~replicas:2 in
  let r1 = Check.run replica ~campaigns:3 ~seed:7 in
  let r2 = Check.run replica ~campaigns:3 ~seed:7 in
  Alcotest.(check string) "same seed, same report"
    (Check.to_string r1) (Check.to_string r2);
  Alcotest.(check int) "no divergent runs" 0 r1.Check.r_divergent;
  Alcotest.(check int) "no uncaught exceptions" 0 r1.Check.r_uncaught;
  Alcotest.(check int) "every campaign ran" 3
    (List.length r1.Check.r_runs);
  let r3 = Check.run replica ~campaigns:3 ~seed:8 in
  Alcotest.(check bool) "different seed, different schedule" false
    (String.equal (Check.to_string r1) (Check.to_string r3))

(* ---------------- cluster-served concurrent audits -------------- *)

let test_cluster_audit_records_routes () =
  let audit = Concurrent.audited ~sessions:3 ~statements:6 ~seed:11
      ~replicas:2 ()
  in
  Alcotest.(check bool) "audit records the cluster shape" true
    (audit.Audit.repl = Some (2, 4));
  let replica_reads =
    List.filter
      (fun (s : Dbclient.Interceptor.stmt_event) ->
        s.Dbclient.Interceptor.replica >= 0)
      (Audit.stmts audit)
  in
  Alcotest.(check bool) "some reads were replica-served" true
    (List.length replica_reads > 0);
  let pkg = Package.build audit in
  Alcotest.(check (option (pair int int))) "cluster shape in metadata"
    (Some (2, 4)) (Package.replication pkg);
  Alcotest.(check int) "every replica-served read has a route"
    (List.length replica_reads)
    (List.length (Package.routes pkg))

let test_cluster_audit_replays_byte_identically () =
  let audit = Concurrent.audited ~sessions:3 ~statements:6 ~seed:11
      ~replicas:2 ()
  in
  let pkg = Package.of_bytes (Package.to_bytes (Package.build audit)) in
  let r = Replay.execute pkg in
  Alcotest.(check (list string)) "replay verified, routes included" []
    (Replay.verify ~audit r)

(* ---------------- replica bootstrap ------------------------------ *)

let specs_of db =
  let catalog = Minidb.Database.catalog db in
  List.map
    (fun name ->
      (name, Minidb.Table.index_specs (Minidb.Catalog.find catalog name)))
    (Minidb.Catalog.table_names catalog)

let specs = Alcotest.(list (pair string (list (triple string string bool))))

(* Each replica restores the leader's capture as it is; decoding the
   checkpoint.img it persisted from that capture gives the same
   database, and both list the leader's indexes in the leader's order. *)
let test_replica_from_capture_matches_decoded () =
  let kernel, d = Durable.boot () in
  List.iter (lexec d)
    [ "CREATE TABLE t (k INT, s TEXT, f FLOAT)";
      "CREATE INDEX t_k ON t (k)";
      "CREATE ORDERED INDEX t_f ON t (f)";
      "CREATE INDEX t_s ON t (s)";
      "INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', NULL), (3, 'a', 2)";
      "UPDATE t SET s = 'c' WHERE k = 1";
      "DELETE FROM t WHERE k = 3";
      "CREATE TABLE u (x INT)" ];
  let cluster = R.create kernel ~leader:d ~replicas:2 () in
  let leader = R.leader_db cluster in
  for i = 0 to 1 do
    let decoded = Minidb.Database.create () in
    ignore
      (Server.restore_checkpoint decoded
         (Minios.Vfs.read (K.vfs kernel)
            (R.data_dir_of i ^ "/checkpoint.img")));
    let replica = R.replica_db cluster i in
    Alcotest.(check string)
      (Printf.sprintf "replica %d state" i)
      (Minidb.Fingerprint.state decoded)
      (Minidb.Fingerprint.state replica);
    Alcotest.check specs
      (Printf.sprintf "replica %d index specs, as decoded" i)
      (specs_of decoded) (specs_of replica);
    Alcotest.check specs
      (Printf.sprintf "replica %d index specs, as the leader's" i)
      (specs_of leader) (specs_of replica)
  done

(* A replayed cluster package builds its indexes before the cluster
   bootstrap, so every replica starts with the leader's. *)
let test_replayed_replicas_carry_indexes () =
  let audit = Concurrent.audited ~sessions:3 ~statements:6 ~seed:11
      ~replicas:2 ()
  in
  let pkg = Package.build audit in
  let pkg =
    { pkg with
      Package.db_indexes =
        [ ( "notes",
            "CREATE INDEX notes_id ON notes (id)\n\
             CREATE ORDERED INDEX notes_author ON notes (author)" ) ] }
  in
  let prepared = Replay.prepare (Package.of_bytes (Package.to_bytes pkg)) in
  let cluster =
    match Interceptor.cluster prepared.Replay.session with
    | Some c -> c
    | None -> Alcotest.fail "the replay has no cluster"
  in
  let leader = R.leader_db cluster in
  Alcotest.check specs "leader indexes"
    [ ( "notes",
        [ ("notes_id", "id", false); ("notes_author", "author", true) ] ) ]
    (specs_of leader);
  for i = 0 to R.replica_count cluster - 1 do
    Alcotest.check specs
      (Printf.sprintf "replica %d indexes" i)
      (specs_of leader)
      (specs_of (R.replica_db cluster i))
  done;
  Alcotest.(check (list string)) "replay verified" []
    (Replay.verify ~audit (Replay.run prepared))

let test_plain_audit_has_no_cluster_metadata () =
  let audit = Concurrent.audited ~sessions:2 ~statements:4 ~seed:3 () in
  Alcotest.(check bool) "no cluster recorded" true
    (audit.Audit.repl = None);
  let pkg = Package.build audit in
  Alcotest.(check (option (pair int int))) "no replication metadata" None
    (Package.replication pkg);
  Alcotest.(check int) "no routes" 0 (List.length (Package.routes pkg))

(* ---------------- ship-log and WAL records ---------------------- *)

(* A log's byte size and MD5 digest. *)
let log_pin kernel path =
  let data = Minios.Vfs.read (K.vfs kernel) path in
  Printf.sprintf "%d %s" (String.length data) (Digest.to_hex (Digest.string data))

(* The kind letter and SQL of every record in the log at [path]. *)
let log_records kernel path =
  List.map
    (fun (r : Wal.record) ->
      Printf.sprintf "%c %s" (Wal.kind_char r.Wal.kind) r.Wal.sql)
    (Wal.load (K.vfs kernel) path).Wal.records

let replica_wal i = R.data_dir_of i ^ "/wal.log"

(* A durable leader holding two rows, behind two replicas. *)
let two_replica_cluster () =
  let kernel, leader = Durable.boot () in
  lexec leader "CREATE TABLE t (k INT, v INT)";
  lexec leader "INSERT INTO t VALUES (1, 10), (2, 20)";
  (kernel, leader, R.create kernel ~leader ~replicas:2 ())

(* An interceptor session ships a transaction's writes at its COMMIT,
   each as an ordinary statement record, and an autocommit write as
   it executes; every replica logs exactly the shipped records. *)
let test_ship_log_interceptor_records () =
  let kernel, leader, cluster = two_replica_cluster () in
  let session =
    Interceptor.create ~mode:Interceptor.Passthrough ~snapshot_reads:true
      ~kernel (Durable.server leader)
  in
  Interceptor.attach_cluster session cluster;
  List.iter
    (fun sql ->
      match Interceptor.execute session ~pid:1 sql with
      | Protocol.Error_response m -> Alcotest.failf "%s failed: %s" sql m
      | _ -> ())
    [ "BEGIN";
      "UPDATE t SET v = 11 WHERE k = 1";
      "COMMIT";
      "UPDATE t SET v = 21 WHERE k = 2" ];
  Alcotest.(check (list string)) "ship-log records"
    [ "S UPDATE t SET v = 11 WHERE k = 1";
      "S UPDATE t SET v = 21 WHERE k = 2" ]
    (log_records kernel cluster.R.ship_log);
  Alcotest.(check string) "ship log"
    "102 51e656d2f2e092bc9a0aec32dafb0f43" (log_pin kernel cluster.R.ship_log);
  for i = 0 to 1 do
    Alcotest.(check string)
      (Printf.sprintf "replica %d WAL" i)
      "102 51e656d2f2e092bc9a0aec32dafb0f43"
      (log_pin kernel (replica_wal i))
  done;
  check_converged "interceptor writes" cluster

(* [Replication.exec] ships every statement the leader accepts, with
   its WAL kind: BEGIN, COMMIT and ROLLBACK travel as their own
   records. *)
let test_ship_log_exec_records () =
  let kernel, leader, cluster = two_replica_cluster () in
  List.iter (exec cluster)
    [ "BEGIN";
      "UPDATE t SET v = 11 WHERE k = 1";
      "COMMIT";
      "BEGIN";
      "UPDATE t SET v = 12 WHERE k = 1";
      "ROLLBACK";
      "INSERT INTO t VALUES (3, 30)" ];
  Alcotest.(check (list string)) "ship-log records"
    [ "B BEGIN";
      "S UPDATE t SET v = 11 WHERE k = 1";
      "C COMMIT";
      "B BEGIN";
      "S UPDATE t SET v = 12 WHERE k = 1";
      "R ROLLBACK";
      "S INSERT INTO t VALUES (3, 30)" ]
    (log_records kernel cluster.R.ship_log);
  Alcotest.(check string) "ship log"
    "250 96dd212837adf10adb40752b681e27d2" (log_pin kernel cluster.R.ship_log);
  for i = 0 to 1 do
    Alcotest.(check string)
      (Printf.sprintf "replica %d WAL" i)
      "250 96dd212837adf10adb40752b681e27d2"
      (log_pin kernel (replica_wal i))
  done;
  Alcotest.(check string) "leader WAL"
    "356 73312e15aab5398bd73112f9c4f71ecb"
    (log_pin kernel (Durable.wal_path (Durable.server leader)));
  check_converged "exec writes" cluster

(* ---------------- one parse per node ----------------------------- *)

(* How many times [f] ran the SQL parser. *)
let parses f =
  let before = counter_of (Obs.snapshot ()) "sql.parse" in
  f ();
  counter_of (Obs.snapshot ()) "sql.parse" - before

(* Each node parses a statement's text once: the interceptor parses what
   the client sends, the leader what crosses the wire, each replica the
   record it applies. With two replicas a shipped write costs four
   parses through a session and three through [Replication.exec]; an
   audited UPDATE adds its reenactment query and an INSERT has none. A
   replica-served read costs two through a session and one through
   [Replication.read]. *)
let test_parses_per_statement () =
  with_memory @@ fun () ->
  let kernel, leader, cluster = two_replica_cluster () in
  let session mode =
    let s =
      Interceptor.create ~mode ~snapshot_reads:true ~kernel
        (Durable.server leader)
    in
    Interceptor.attach_cluster s cluster;
    s
  in
  let run s sql () =
    match Interceptor.execute s ~pid:1 sql with
    | Protocol.Error_response m -> Alcotest.failf "%s failed: %s" sql m
    | _ -> ()
  in
  let passthrough = session Interceptor.Passthrough in
  let audited = session Interceptor.Audit_included in
  Alcotest.(check int) "passthrough autocommit UPDATE" 4
    (parses (run passthrough "UPDATE t SET v = 11 WHERE k = 1"));
  Alcotest.(check int) "audited UPDATE" 4
    (parses (run audited "UPDATE t SET v = 12 WHERE k = 1"));
  Alcotest.(check int) "audited INSERT" 3
    (parses (run audited "INSERT INTO t VALUES (3, 30)"));
  Alcotest.(check int) "Replication.exec UPDATE" 3
    (parses (fun () -> exec cluster "UPDATE t SET v = 13 WHERE k = 1"));
  Alcotest.(check int) "Replication.read" 1
    (parses (fun () -> ignore (R.read cluster "SELECT v FROM t WHERE k = 1")));
  Alcotest.(check int) "routed passthrough read" 2
    (parses (run passthrough "SELECT v FROM t WHERE k = 2"));
  match List.rev (Interceptor.log passthrough) with
  | last :: _ ->
    Alcotest.(check bool) "the read was served by a replica" true
      (last.Interceptor.replica >= 0)
  | [] -> Alcotest.fail "no statement logged"

(* ---------------- routed reads at a stale pin -------------------- *)

(* Run [f] with the kernel preemptive and run [between] at the first
   yield point [f] reaches, with preemption masked. For an interceptor
   statement that point comes after its snapshot is pinned and before it
   executes: [between] lands in the request's flight. *)
let at_first_yield kernel ~between f =
  let fired = ref false in
  K.set_preemptive kernel true;
  Fun.protect ~finally:(fun () -> K.set_preemptive kernel false) @@ fun () ->
  Effect.Deep.match_with f ()
    { Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | K.Yield ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                if not !fired then begin
                  fired := true;
                  K.set_preemptive kernel false;
                  between ();
                  K.set_preemptive kernel true
                end;
                Effect.Deep.continue k ())
          | _ -> None) }

(* Session B deletes a row, or moves it to another id, while session A's
   read is in flight. A's routed point read and its BETWEEN count are
   served by a replica that has applied B's write, and both return the
   answer at A's pin: the replica's index probes re-check the rows B
   retired after it. *)
let test_routed_read_at_a_stale_pin () =
  let kernel, leader = Durable.boot () in
  lexec leader "CREATE TABLE acc (id INT, v INT)";
  lexec leader
    ("INSERT INTO acc VALUES "
    ^ String.concat ", "
        (List.init 40 (fun i -> Printf.sprintf "(%d, %d)" (i + 1) (101 + i))));
  lexec leader "CREATE INDEX acc_id ON acc (id)";
  let cluster = R.create kernel ~leader ~replicas:2 () in
  let a =
    Interceptor.create ~mode:Interceptor.Passthrough ~snapshot_reads:true
      ~kernel (Durable.server leader)
  in
  Interceptor.attach_cluster a cluster;
  let b = Interceptor.create_sibling a ~session_id:1 in
  let run s ~pid sql =
    match Interceptor.execute s ~pid sql with
    | Protocol.Error_response m -> Alcotest.failf "%s failed: %s" sql m
    | r -> r
  in
  let answer = function
    | Protocol.Result_set { rows = [ [| Minidb.Value.Int n |] ]; _ } -> n
    | _ -> Alcotest.fail "expected one integer"
  in
  let race what ~write read =
    let resp =
      at_first_yield kernel
        ~between:(fun () -> ignore (run b ~pid:2 write))
        (fun () -> run a ~pid:1 read)
    in
    (match List.rev (Interceptor.log a) with
    | last :: _ ->
      let rep = last.Interceptor.replica in
      Alcotest.(check bool) (what ^ ": served by a replica") true (rep >= 0);
      Alcotest.(check int)
        (what ^ ": the replica applied B's write")
        cluster.R.ship_seq (R.replica_applied cluster rep)
    | [] -> Alcotest.fail "no statement logged");
    answer resp
  in
  List.iter
    (fun (what, write, point, range) ->
      Alcotest.(check int)
        (what ^ ": point read at A's pin")
        (100 + point)
        (race (what ^ " point read") ~write:(write point)
           (Printf.sprintf "SELECT v FROM acc WHERE id = %d" point));
      Alcotest.(check int)
        (what ^ ": BETWEEN count at A's pin")
        5
        (race (what ^ " BETWEEN count") ~write:(write range)
           (Printf.sprintf "SELECT COUNT(*) FROM acc WHERE id BETWEEN %d AND %d"
              (range - 2) (range + 2))))
    [ ("delete", Printf.sprintf "DELETE FROM acc WHERE id = %d", 7, 20);
      ( "move",
        (fun k -> Printf.sprintf "UPDATE acc SET id = %d WHERE id = %d" (k + 1000) k),
        9,
        30 ) ];
  Alcotest.(check int) "after the race the count misses the moved row" 4
    (answer (run a ~pid:1 "SELECT COUNT(*) FROM acc WHERE id BETWEEN 28 AND 32"))

let suite =
  [ Alcotest.test_case "durable-cut: empty log" `Quick test_durable_cut_empty;
    Alcotest.test_case "durable-cut: torn record mid-batch (grouped)" `Quick
      test_torn_record_mid_batch_grouped;
    Alcotest.test_case "resync: replica WAL ahead of checkpoint" `Quick
      test_resync_wal_ahead_of_checkpoint;
    Alcotest.test_case "replica checkpoints amortized over its table" `Quick
      test_replica_checkpoint_amortized;
    Alcotest.test_case "ship faults converge" `Quick
      test_ship_faults_converge;
    Alcotest.test_case "crash+recover byte-identical" `Quick
      test_crash_recover_byte_identical;
    Alcotest.test_case "read router: stale bound and fallback" `Quick
      test_read_router_stale_and_fallback;
    Alcotest.test_case "fallback read outside the leader's transaction"
      `Quick test_fallback_read_outside_leader_tx;
    Alcotest.test_case "retry telemetry is site-tagged" `Quick
      test_retry_site_tagged_telemetry;
    Alcotest.test_case "retry backoff cap fails fast" `Quick
      test_retry_backoff_cap_fails_fast;
    Alcotest.test_case "replicacheck deterministic" `Quick
      test_replicacheck_deterministic;
    Alcotest.test_case "cluster audit records routes" `Quick
      test_cluster_audit_records_routes;
    Alcotest.test_case "replica from the capture equals the decoded base backup"
      `Quick test_replica_from_capture_matches_decoded;
    Alcotest.test_case "replayed replicas carry the leader's indexes" `Quick
      test_replayed_replicas_carry_indexes;
    Alcotest.test_case "cluster audit replays byte-identically" `Quick
      test_cluster_audit_replays_byte_identically;
    Alcotest.test_case "plain audit has no cluster metadata" `Quick
      test_plain_audit_has_no_cluster_metadata;
    Alcotest.test_case "ship log: interceptor records and log bytes" `Quick
      test_ship_log_interceptor_records;
    Alcotest.test_case "ship log: exec records and log bytes" `Quick
      test_ship_log_exec_records;
    Alcotest.test_case "one parse per node: parses per statement" `Quick
      test_parses_per_statement;
    Alcotest.test_case "routed reads answer at a stale pin" `Quick
      test_routed_read_at_a_stale_pin ]

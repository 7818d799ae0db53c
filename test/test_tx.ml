(* Interactive MVCC transactions: cross-session visibility, first-
   updater-wins conflicts, the client-side bounded-retry loop, the
   audit/package/replay chain for commit/abort decisions, and the
   tx recovery campaigns. *)

open Minidb
module I = Dbclient.Interceptor
module F = Ldv_faults
module E = Ldv_errors
open Ldv_core

let mk_db () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (id INT, body TEXT)");
  ignore (Database.exec db "INSERT INTO t VALUES (1, 'one')");
  db

let count db =
  match Database.query db "SELECT COUNT(*) FROM t" with
  | { Executor.rows = [ { Executor.values = [| Value.Int n |]; _ } ]; _ } -> n
  | _ -> Alcotest.fail "count query failed"

(* ---------------- engine-level MVCC ------------------------------ *)

(* A transaction sees its own writes plus the begin snapshot; other
   sessions see neither until COMMIT, and writes committed after the
   begin stay invisible inside it. *)
let test_cross_session_visibility () =
  let db = mk_db () in
  ignore (Database.exec db "BEGIN");
  let a = Database.current_tx db in
  ignore (Database.exec db "INSERT INTO t VALUES (2, 'two')");
  Alcotest.(check int) "own uncommitted write visible inside" 2 (count db);
  Database.set_current_tx db 0;
  Alcotest.(check int) "uncommitted write invisible outside" 1 (count db);
  (* a commit that lands after [a]'s begin snapshot *)
  ignore (Database.exec db "INSERT INTO t VALUES (3, 'three')");
  Alcotest.(check int) "autocommit sees its own commit" 2 (count db);
  Database.set_current_tx db a;
  Alcotest.(check int) "later commit invisible to the begin snapshot" 2
    (count db);
  ignore (Database.exec db "COMMIT");
  Alcotest.(check int) "all three visible after commit" 3 (count db)

(* First-updater-wins: the second transaction to touch a row already
   written by a live transaction aborts immediately with a typed
   serialization failure. *)
let test_first_updater_wins () =
  let db = mk_db () in
  ignore (Database.exec db "INSERT INTO t VALUES (2, 'two')");
  ignore (Database.exec db "BEGIN");
  let a = Database.current_tx db in
  ignore (Database.exec db "UPDATE t SET body = 'a' WHERE id = 1");
  Database.set_current_tx db 0;
  ignore (Database.exec db "BEGIN");
  Alcotest.(check bool) "second updater aborts" true
    (try
       ignore (Database.exec db "UPDATE t SET body = 'b' WHERE id = 1");
       false
     with Errors.Db_error (Errors.Serialization_failure _) -> true);
  (* a disjoint row is not contended *)
  ignore (Database.exec db "UPDATE t SET body = 'b2' WHERE id = 2");
  ignore (Database.exec db "COMMIT");
  Database.set_current_tx db a;
  ignore (Database.exec db "COMMIT");
  match Database.query db "SELECT body FROM t WHERE id = 1" with
  | { Executor.rows = [ { Executor.values = [| Value.Str s |]; _ } ]; _ } ->
    Alcotest.(check string) "first updater's write survives" "a" s
  | _ -> Alcotest.fail "body query failed"

(* The conflict loser also aborts when the winner has already committed
   a version newer than the loser's begin snapshot (no lost update). *)
let test_no_lost_update_after_commit () =
  let db = mk_db () in
  ignore (Database.exec db "BEGIN");
  let a = Database.current_tx db in
  Database.set_current_tx db 0;
  ignore (Database.exec db "UPDATE t SET body = 'winner' WHERE id = 1");
  Database.set_current_tx db a;
  Alcotest.(check bool) "stale snapshot updater aborts" true
    (try
       ignore (Database.exec db "UPDATE t SET body = 'loser' WHERE id = 1");
       false
     with Errors.Db_error (Errors.Serialization_failure _) -> true);
  Database.rollback_tx db

(* ---------------- DML access paths under MVCC -------------------- *)

(* A seeded UPDATE/DELETE script over t(k, tag, v). Each statement comes
   with the access path EXPLAIN must name for it when its predicate
   column carries a hash index and when it carries an ordered index;
   without an index every statement is a full scan. *)
let dml_script ~seed =
  let rng = Tpch.Prng.create ~seed in
  let int lo hi = Tpch.Prng.in_range rng ~lo ~hi in
  List.concat
    (List.init 4 (fun _ ->
         let c = int 0 39 in
         [ ( Printf.sprintf "UPDATE t SET v = v + 1 WHERE k = %d" c,
             "indexscan(t.t_k)",
             "rangescan(t.t_k" );
           ( Printf.sprintf "UPDATE t SET k = k + 1 WHERE %d < k" (int 35 38),
             "scan(t)",
             "rangescan(t.t_k" );
           ( Printf.sprintf "DELETE FROM t WHERE k BETWEEN %d AND %d" c (c + 1),
             "indexscan(t.t_k)",
             "rangescan(t.t_k" );
           ( Printf.sprintf
               "UPDATE t SET tag = 'x' WHERE tag LIKE 'g%d%%' AND v > %d"
               (int 0 4) (int 0 60),
             "scan(t)",
             "rangescan(t.t_tag" );
           ( Printf.sprintf
               "DELETE FROM t WHERE k IN (SELECT k FROM s WHERE w = %d)"
               (int 0 3),
             "scan(t)",
             "scan(t)" ) ]))

(* 120 rows over 40 keys and 50 tags. Indexes are added through the
   catalog, which leaves the clock alone, so all three copies stamp
   every version identically. *)
let dml_db index =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (k INT, tag TEXT, v INT)");
  ignore (Database.exec db "CREATE TABLE s (k INT, w INT)");
  ignore
    (Database.exec db
       ("INSERT INTO t VALUES "
       ^ String.concat ", "
           (List.init 120 (fun i ->
                Printf.sprintf "(%d, 'g%02d', %d)" (i mod 40) (i mod 50) i))));
  ignore
    (Database.exec db
       ("INSERT INTO s VALUES "
       ^ String.concat ", "
           (List.init 12 (fun i -> Printf.sprintf "(%d, %d)" (3 * i) (i mod 4)))));
  let catalog = Database.catalog db in
  Option.iter
    (fun ordered ->
      Catalog.create_index ~ordered catalog ~index:"t_k" ~table:"t" ~column:"k";
      Catalog.create_index ~ordered catalog ~index:"t_tag" ~table:"t"
        ~column:"tag")
    index;
  db

(* One statement's outcome as the dml_info fields, in order, or the
   conflict it raised. *)
let dml_outcome db sql =
  let tids l = String.concat " " (List.map Tid.to_string l) in
  match Database.dml db sql with
  | info ->
    Printf.sprintf "count=%d written=[%s] read=[%s] deps=[%s]"
      info.Database.count (tids info.Database.written)
      (tids info.Database.read)
      (String.concat "; "
         (List.map
            (fun (w, from) -> Tid.to_string w ^ " <- " ^ tids from)
            info.Database.deps))
  | exception Errors.Db_error (Errors.Serialization_failure _) -> "conflict"

(* Run the script on one copy under [mode]: "autocommit" with nothing
   open, or "autocommit" / "in a transaction" beside a sibling
   transaction that has inserted, updated and deleted rows. Returns the
   per-statement outcomes and the final state (indexes dropped, so the
   copies compare). *)
let run_dml_script ~seed ~mode ~index =
  let db = dml_db index in
  let sibling =
    if mode = "autocommit" then None
    else begin
      ignore (Database.exec db "BEGIN");
      ignore (Database.exec db "INSERT INTO t VALUES (5, 'g05', 500)");
      ignore (Database.exec db "UPDATE t SET k = 38 WHERE v = 7");
      ignore (Database.exec db "DELETE FROM t WHERE v = 9");
      let s = Database.current_tx db in
      Database.set_current_tx db 0;
      Some s
    end
  in
  if mode = "in a transaction" then ignore (Database.exec db "BEGIN");
  let own = Database.current_tx db in
  let outcomes =
    List.map
      (fun (sql, on_hash, on_ordered) ->
        let path =
          match index with
          | None -> "scan(t)"
          | Some false -> on_hash
          | Some true -> on_ordered
        in
        (match Database.query db ("EXPLAIN " ^ sql) with
        | { Executor.rows = [ { Executor.values = [| Value.Str plan |]; _ } ]; _ }
          ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: EXPLAIN %s names %s" mode plan path)
            true
            (Fixtures.contains_substring ~needle:("(" ^ path) plan)
        | _ -> Alcotest.fail "EXPLAIN returned no plan");
        dml_outcome db sql)
      (dml_script ~seed)
  in
  Option.iter
    (fun s ->
      Database.set_current_tx db s;
      ignore (Database.exec db "COMMIT"))
    sibling;
  if own <> 0 then begin
    Database.set_current_tx db own;
    ignore (Database.exec db "COMMIT")
  end;
  if index <> None then begin
    Catalog.drop_index (Database.catalog db) "t_k";
    Catalog.drop_index (Database.catalog db) "t_tag"
  end;
  (outcomes, Fingerprint.state db)

(* UPDATE/DELETE pick their rows through the planner's access path: a
   hash index, an ordered index or a full scan must affect the same rows
   with the same provenance, autocommit and under MVCC. *)
let test_dml_access_path_equivalence () =
  List.iter
    (fun mode ->
      let outcomes, state = run_dml_script ~seed:5 ~mode ~index:None in
      Alcotest.(check bool)
        (mode ^ ": the script modifies rows")
        true
        (List.exists
           (fun o -> String.starts_with ~prefix:"count=" o
                     && not (String.starts_with ~prefix:"count=0 " o))
           outcomes);
      List.iter
        (fun (name, index) ->
          let outcomes', state' = run_dml_script ~seed:5 ~mode ~index in
          Alcotest.(check (list string))
            (Printf.sprintf "%s, %s index: dml_info per statement" mode name)
            outcomes outcomes';
          Alcotest.(check string)
            (Printf.sprintf "%s, %s index: final state" mode name)
            state state')
        [ ("hash", Some false); ("ordered", Some true) ])
    [ "autocommit"; "autocommit beside a transaction"; "in a transaction" ]

(* ---------------- typed Tx_state warnings (server) --------------- *)

(* Transaction-state misuse surfaces as a typed warning through
   [on_warning] (like Wal_torn), plus an error response to the client. *)
let test_tx_state_warning_surfaced () =
  let kernel = Minios.Kernel.create () in
  let db = Database.create () in
  let server = Dbclient.Server.install kernel db in
  let warned = ref None in
  let prev = !E.on_warning in
  E.on_warning := (fun e -> warned := Some e);
  let resp =
    Fun.protect
      ~finally:(fun () -> E.on_warning := prev)
      (fun () ->
        Dbclient.Server.handle server "COMMIT")
  in
  (match resp with
  | Dbclient.Protocol.Error_response _ -> ()
  | _ -> Alcotest.fail "expected an error response");
  Alcotest.(check bool) "typed Tx_state warning fired" true
    (match !warned with Some (E.Tx_state _) -> true | _ -> false)

(* ---------------- tx-outcome derivation -------------------------- *)

let ev sid sql_norm =
  { I.qid = 0;
    sid;
    pid = 0;
    sql = sql_norm;
    sql_norm;
    kind = I.Sddl;
    t_start = 0;
    t_end = 0;
    snapshot = 0;
    replica = -1;
    results = [];
    reads = Minidb.Lineage.empty;
    schema = None;
    rows = [];
    affected = 0;
    response_bytes = 0 }

let outcome =
  Alcotest.testable
    (fun fmt (sid, n, o) ->
      Format.fprintf fmt "%d.%d=%s" sid n (Audit.tx_outcome_name o))
    ( = )

let test_tx_outcomes_derivation () =
  let stmts =
    [ ev 0 "BEGIN"; ev 0 "INSERT INTO t VALUES (1)"; ev 0 "COMMIT";
      ev 0 "BEGIN";
      (* session 0's second tx never closes: conflict-aborted, no retry *)
      ev 1 "BEGIN"; ev 1 "ROLLBACK";
      (* session 1's second tx is conflict-aborted, then retried *)
      ev 1 "BEGIN"; ev 1 "BEGIN"; ev 1 "COMMIT" ]
  in
  Alcotest.(check (list outcome))
    "per-session ordinals and outcomes"
    [ (0, 1, Audit.Tx_committed);
      (0, 2, Audit.Tx_aborted);
      (1, 1, Audit.Tx_rolled_back);
      (1, 2, Audit.Tx_retried);
      (1, 3, Audit.Tx_committed) ]
    (Audit.tx_outcomes stmts)

(* ---------------- concurrent audited tx workload ----------------- *)

let has o outcomes = List.exists (fun (_, _, x) -> x = o) outcomes

let test_audited_tx_conflicts_and_determinism () =
  let a1 = Concurrent.audited_tx ~sessions:4 ~rounds:6 ~seed:3 () in
  let o1 = Audit.tx_outcomes (Audit.stmts a1) in
  Alcotest.(check bool) "transactions recorded" true (List.length o1 > 0);
  Alcotest.(check bool) "commits recorded" true (has Audit.Tx_committed o1);
  Alcotest.(check bool) "explicit rollbacks recorded" true
    (has Audit.Tx_rolled_back o1);
  Alcotest.(check bool) "genuine conflicts aborted and retried" true
    (has Audit.Tx_retried o1);
  let a2 = Concurrent.audited_tx ~sessions:4 ~rounds:6 ~seed:3 () in
  Alcotest.(check (list outcome))
    "same seed, same commit/abort decisions" o1
    (Audit.tx_outcomes (Audit.stmts a2))

let test_tx_package_records_outcomes () =
  let audit = Concurrent.audited_tx ~sessions:4 ~rounds:6 ~seed:3 () in
  let pkg = Package.build audit in
  Alcotest.(check (list outcome))
    "package metadata round-trips the outcomes"
    (Audit.tx_outcomes (Audit.stmts audit))
    (Package.tx_outcomes pkg)

(* No CLI path reaches the transactional concurrent audit, so its package
   bytes are pinned here: a change to the monitored run, the scheduler or
   packaging that alters what this audit packages shows as a new digest. *)
let test_tx_package_bytes_pinned () =
  let audit = Concurrent.audited_tx ~sessions:4 ~rounds:6 ~seed:3 () in
  let pkg = Package.build audit in
  let data = Package.to_bytes pkg in
  Alcotest.(check string) "package bytes (length and MD5)"
    "19737 c7922aa360cd36ef351fce25ef2173ed"
    (Printf.sprintf "%d %s" (String.length data)
       (Digest.to_hex (Digest.string data)));
  Alcotest.(check (list string)) "replay verifies" []
    (Replay.verify ~audit (Replay.execute pkg))

let test_tx_replay_reproduces_decisions () =
  let audit = Concurrent.audited_tx ~sessions:3 ~rounds:5 ~seed:7 () in
  let pkg = Package.build audit in
  (match Package.schedule pkg with
  | Some (_, clients) -> Concurrent.register_schedule_clients clients
  | None -> Alcotest.fail "concurrent package lost its schedule");
  let r = Replay.execute pkg in
  Alcotest.(check (list string))
    "replay verifies: outputs, fingerprints, tx decisions" []
    (Replay.verify ~audit r);
  Alcotest.(check (list outcome))
    "replayed stream derives the recorded outcomes"
    (Package.tx_outcomes pkg)
    (Audit.tx_outcomes (Audit.merge_logs r.Replay.sessions))

(* ---------------- abort injection + bounded retry ---------------- *)

let test_abort_injection_retries () =
  let plan = F.make ~p_abort:0.25 ~seed:17 () in
  let audit =
    F.with_plan plan (fun () ->
        Concurrent.audited_tx ~sessions:2 ~rounds:5 ~seed:11 ())
  in
  let injected = List.assoc "abort" (F.injected plan) in
  Alcotest.(check bool) "abort faults injected" true (injected > 0);
  let outcomes = Audit.tx_outcomes (Audit.stmts audit) in
  Alcotest.(check bool) "injected conflicts were retried" true
    (has Audit.Tx_retried outcomes);
  Alcotest.(check bool) "workload still commits through retries" true
    (has Audit.Tx_committed outcomes)

(* ---------------- tx campaigns ----------------------------------- *)

let test_txcheck_deterministic_and_verified () =
  let r1 = Check.run (Check.tx ~sessions:4) ~campaigns:4 ~seed:123 in
  let r2 = Check.run (Check.tx ~sessions:4) ~campaigns:4 ~seed:123 in
  Alcotest.(check string) "same seed, identical report" (Check.to_string r1)
    (Check.to_string r2);
  Alcotest.(check int) "no divergence" 0 r1.Check.r_divergent;
  Alcotest.(check int) "no uncaught exceptions" 0 r1.Check.r_uncaught;
  Alcotest.(check bool) "crashes actually happened and verified" true
    (List.exists
       (fun (r : Check.run) ->
         match r.Check.outcome with Check.Verified _ -> true | _ -> false)
       r1.Check.r_runs)

let suite =
  [ Alcotest.test_case "mvcc: cross-session visibility" `Quick
      test_cross_session_visibility;
    Alcotest.test_case "mvcc: first updater wins" `Quick
      test_first_updater_wins;
    Alcotest.test_case "mvcc: no lost update after commit" `Quick
      test_no_lost_update_after_commit;
    Alcotest.test_case "mvcc: DML access paths agree" `Quick
      test_dml_access_path_equivalence;
    Alcotest.test_case "server: Tx_state warning surfaced" `Quick
      test_tx_state_warning_surfaced;
    Alcotest.test_case "audit: tx outcome derivation" `Quick
      test_tx_outcomes_derivation;
    Alcotest.test_case "audit: conflicts + determinism" `Quick
      test_audited_tx_conflicts_and_determinism;
    Alcotest.test_case "package: records tx outcomes" `Quick
      test_tx_package_records_outcomes;
    Alcotest.test_case "package: tx audit bytes pinned, replay verifies"
      `Quick test_tx_package_bytes_pinned;
    Alcotest.test_case "replay: reproduces commit/abort decisions" `Quick
      test_tx_replay_reproduces_decisions;
    Alcotest.test_case "faults: abort injection + bounded retry" `Quick
      test_abort_injection_retries;
    Alcotest.test_case "txcheck: deterministic and verified" `Quick
      test_txcheck_deterministic_and_verified ]

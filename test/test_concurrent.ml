(* Concurrent multi-session audit: seeded scheduler determinism, snapshot
   isolation, WAL group commit, schedule-replay, and the dependency-probe
   fast path the concurrent diff uses. *)

open Ldv_core
module I = Dbclient.Interceptor

let audited = Concurrent.audited

(* ------------------------------------------------------------------ *)
(* Determinism: the same seed must reproduce the identical interleaving,
   trace, and package bytes; a different seed must actually reschedule.  *)

let test_same_seed_same_bytes () =
  let a1 = audited ~sessions:4 ~statements:6 ~seed:5 () in
  let a2 = audited ~sessions:4 ~statements:6 ~seed:5 () in
  Alcotest.(check string)
    "same seed, same serialized trace"
    (Prov.Trace.serialize a1.Audit.trace)
    (Prov.Trace.serialize a2.Audit.trace);
  let b1 = Package.to_bytes (Package.build a1) in
  let b2 = Package.to_bytes (Package.build a2) in
  Alcotest.(check bool) "same seed, same package bytes" true
    (String.equal b1 b2);
  let a3 = audited ~sessions:4 ~statements:6 ~seed:6 () in
  let b3 = Package.to_bytes (Package.build a3) in
  Alcotest.(check bool) "different seed, different interleaving" false
    (String.equal b1 b3)

(* ------------------------------------------------------------------ *)
(* Snapshot isolation, read off the merged statement log: counts are
   monotone in snapshot order, every session contributes, and at least
   one query's pinned snapshot excluded an insert that committed while
   the query was in flight.                                             *)

let count_of (s : I.stmt_event) =
  match s.I.rows with [ [| Minidb.Value.Int n |] ] -> Some n | _ -> None

let test_snapshot_isolation () =
  let audit = audited ~sessions:8 ~statements:6 ~seed:42 () in
  let queries =
    List.filter_map
      (fun (s : I.stmt_event) ->
        if s.I.kind = I.Squery then
          Option.map (fun n -> (s.I.sid, s.I.snapshot, s.I.t_end, n)) (count_of s)
        else None)
      (Audit.stmts audit)
  in
  Alcotest.(check bool) "several sessions ran queries" true
    (List.length (List.sort_uniq compare (List.map (fun (sid, _, _, _) -> sid) queries))
    > 2);
  let by_snap =
    List.sort (fun (_, a, _, _) (_, b, _, _) -> compare (a : int) b) queries
  in
  let rec monotone = function
    | (_, _, _, n1) :: ((_, _, _, n2) :: _ as rest) ->
      n1 <= n2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "counts monotone in snapshot order" true
    (monotone by_snap);
  (* q1 pinned its snapshot, then an insert committed before q1's interval
     ended (q2's later snapshot, still within q1's window, sees more rows):
     q1 excluded a concurrent insert — the observable SI effect *)
  let excluded_concurrent_insert =
    List.exists
      (fun (_, snap1, t_end1, n1) ->
        List.exists
          (fun (_, snap2, _, n2) -> snap1 < snap2 && snap2 <= t_end1 && n2 > n1)
          queries)
      queries
  in
  Alcotest.(check bool) "some query excluded a concurrent insert" true
    excluded_concurrent_insert

(* ------------------------------------------------------------------ *)
(* Slicing attribution: every tuple any session created is recreated by
   replay, so the packaged subset is exactly the pre-existing seed rows. *)

let test_subset_excludes_session_writes () =
  let audit = audited ~sessions:4 ~statements:6 ~seed:5 () in
  let pkg = Package.build audit in
  let rows =
    List.concat_map
      (fun (_, csv) -> Minidb.Csv.decode_versions csv)
      pkg.Package.db_subset
  in
  Alcotest.(check int) "only the 4 fixture tuples ship" 4 (List.length rows);
  List.iter
    (fun (_, _, values) ->
      match values with
      | [| _; Minidb.Value.Str author; _ |] ->
        Alcotest.(check string) "a pre-existing tuple" "seed" author
      | _ -> Alcotest.fail "unexpected row shape")
    rows

(* The sessions share one slice, and each version's CSV row is written
   by whichever session reads it first. The package copies those rows in
   (rid, version) order: the bytes of the relevant versions encoded
   afresh, with reads served by replicas, and with transactions that
   roll back, abort and retry. *)
let test_subset_is_reference () =
  let replicated = audited ~replicas:2 ~sessions:3 ~statements:6 ~seed:11 () in
  Ldv_fixtures.check_subset_is_reference replicated (Package.build replicated);
  let tx = Concurrent.audited_tx ~sessions:4 ~rounds:6 ~seed:3 () in
  Ldv_fixtures.check_subset_is_reference tx (Package.build tx)

(* ------------------------------------------------------------------ *)
(* Group commit: one fsync barrier per scheduler quantum instead of one
   per statement.                                                       *)

let wal_barriers ~grouped ~sessions ~rounds =
  let kernel = Minios.Kernel.create () in
  let db = Minidb.Database.create () in
  let server = Dbclient.Server.attach db in
  let proc = Minios.Kernel.start_process kernel ~name:"minidb-server" () in
  let d = Dbclient.Durable.start kernel server ~pid:proc.Minios.Kernel.pid in
  if grouped then Dbclient.Durable.enable_group_commit d;
  ignore (Dbclient.Durable.exec d "CREATE TABLE t (a INT)");
  for round = 1 to rounds do
    for sid = 0 to sessions - 1 do
      ignore
        (Dbclient.Durable.exec d
           (Printf.sprintf "INSERT INTO t VALUES (%d)" ((round * 100) + sid)))
    done;
    Minios.Kernel.run_quantum_hooks kernel
  done;
  Dbclient.Durable.flush d;
  Dbclient.Durable.fsync_barriers d

let test_group_commit_batches_fsync () =
  let per_stmt = wal_barriers ~grouped:false ~sessions:8 ~rounds:12 in
  let grouped = wal_barriers ~grouped:true ~sessions:8 ~rounds:12 in
  Alcotest.(check bool)
    (Printf.sprintf "grouped (%d) at most half of per-statement (%d)" grouped
       per_stmt)
    true
    (2 * grouped <= per_stmt);
  (* per-statement syncs every statement: CREATE + 8*12 inserts *)
  Alcotest.(check int) "per-statement barrier count" 97 per_stmt;
  (* grouped: one barrier per non-empty quantum (the CREATE rides in the
     first round's batch) *)
  Alcotest.(check int) "grouped barrier count" 12 grouped

(* ------------------------------------------------------------------ *)
(* Replay: the recorded schedule round-trips through the package and an
   8-session run replays byte-identically.                              *)

let test_schedule_roundtrip_and_replay () =
  let audit = audited ~sessions:8 ~statements:6 ~seed:42 () in
  let bytes = Package.to_bytes (Package.build audit) in
  let pkg = Package.of_bytes bytes in
  (match Package.schedule pkg with
  | None -> Alcotest.fail "concurrent package lost its schedule"
  | Some (seed, clients) ->
    Alcotest.(check int) "seed round-trips" 42 seed;
    Alcotest.(check int) "all clients recorded" 8 (List.length clients));
  let r = Replay.execute pkg in
  Alcotest.(check int) "one replay session per client" 8
    (List.length r.Replay.sessions);
  Alcotest.(check (list string)) "replay verified" [] (Replay.verify ~audit r)

(* ------------------------------------------------------------------ *)
(* Concurrent crash consistency: group-commit batches can vanish at a
   power failure, recovery + resume must still match the control.       *)

let test_concurrent_crashcheck () =
  let r =
    Check.run (Check.crash ~recover:true ~sessions:4) ~campaigns:8 ~seed:11
  in
  Alcotest.(check int) "no divergent campaigns" 0 r.Check.r_divergent;
  Alcotest.(check int) "no uncaught exceptions" 0 r.Check.r_uncaught

(* ------------------------------------------------------------------ *)
(* The dependency probe behind the concurrent diff: [depends_on] must
   agree with the full enumeration while terminating early.             *)

let figure4_trace () =
  let open Prov in
  let t = Trace.create Bb_model.model in
  ignore (Bb_model.add_process t ~pid:1 ~name:"P1");
  List.iter (fun p -> ignore (Bb_model.add_file t ~path:p)) [ "A"; "B"; "C"; "D" ];
  ignore (Bb_model.read_from t ~pid:1 ~path:"A" ~time:(Interval.make 2 3));
  ignore (Bb_model.read_from t ~pid:1 ~path:"B" ~time:(Interval.make 1 5));
  ignore (Bb_model.has_written t ~pid:1 ~path:"C" ~time:(Interval.make 2 3));
  ignore (Bb_model.has_written t ~pid:1 ~path:"D" ~time:(Interval.make 8 8));
  t

let test_depends_on_matches_enumeration () =
  let t = figure4_trace () in
  let entities = [ "file:A"; "file:B"; "file:C"; "file:D" ] in
  List.iter
    (fun target ->
      let full = Prov.Dependency.dependencies_of t target in
      List.iter
        (fun source ->
          Alcotest.(check bool)
            (Printf.sprintf "depends_on %s -> %s agrees" target source)
            (List.mem source full && not (String.equal source target))
            (Prov.Dependency.depends_on t ~target ~source))
        entities)
    entities

let suite =
  [ Alcotest.test_case "same seed, same trace and package bytes" `Quick
      test_same_seed_same_bytes;
    Alcotest.test_case "snapshot-isolated reads" `Quick
      test_snapshot_isolation;
    Alcotest.test_case "subset excludes session-created tuples" `Quick
      test_subset_excludes_session_writes;
    Alcotest.test_case "group commit batches fsync barriers" `Quick
      test_group_commit_batches_fsync;
    Alcotest.test_case "schedule round-trips and replay verifies" `Quick
      test_schedule_roundtrip_and_replay;
    Alcotest.test_case "crashcheck with 4 concurrent sessions" `Quick
      test_concurrent_crashcheck;
    Alcotest.test_case "depends_on agrees with full enumeration" `Quick
      test_depends_on_matches_enumeration;
    Alcotest.test_case "shared slice packages the re-encoded subset" `Quick
      test_subset_is_reference ]

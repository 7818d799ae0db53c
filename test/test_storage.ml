(* Storage-layer regressions from the 1M-tuple scaling work: scan-order
   stability of [scan_as_of], index maintenance across every MVCC
   mutation path (backfill, churn, transaction rollback, version
   restore), the empty-bucket invariant of the hash-index stats, the
   delete-heavy workload that used to rebuild the live order
   quadratically, and a model-based property checking every read path
   against a naive list of versions. *)

open Minidb

let schema =
  Schema.of_list
    [ Schema.column "k" Value.Tint;
      Schema.column "grp" Value.Tint;
      Schema.column "s" Value.Tstr ]

let mk () = Table.create ~name:"t" ~schema

let row k grp s = [| Value.Int k; Value.Int grp; Value.Str s |]

let rids tvs = List.map (fun tv -> tv.Table.tid.Tid.rid) tvs

(* rids of the live rows whose column [pos] equals [v], ascending — the
   ground truth every index lookup is compared against *)
let scan_matching table pos v =
  Table.scan table
  |> List.filter (fun tv -> tv.Table.values.(pos) = v)
  |> rids |> List.sort compare

let check_integrity table =
  (match Table.check_index_integrity table with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "index integrity: %s" msg);
  ignore (Table.stats ~verify:true table)

(* every distinct live key answers an index_lookup equal to the filtered
   scan, and a key with no live rows answers nothing *)
let check_lookup_equivalence table ~column =
  let idx =
    match Table.index_on table ~column with
    | Some idx -> idx
    | None -> Alcotest.fail "hash index missing"
  in
  (* NULL keys are deliberately unindexed, so only non-NULL keys are
     required to round-trip through the index *)
  let keys =
    Table.scan table
    |> List.filter_map (fun tv ->
           let v = tv.Table.values.(column) in
           if Value.is_null v then None else Some v)
    |> List.sort_uniq compare
  in
  List.iter
    (fun v ->
      Alcotest.(check (list int))
        (Printf.sprintf "lookup %s = filtered scan" (Value.to_string v))
        (scan_matching table column v)
        (rids (Table.index_lookup table idx v) |> List.sort compare))
    keys;
  Alcotest.(check (list int))
    "dead key finds nothing" []
    (rids (Table.index_lookup table idx (Value.Int (-12345))))

(* ------------------------------------------------------------------ *)
(* scan_as_of returns ascending rids even after updates moved a row to
   the back of the version history                                      *)

let test_scan_as_of_ascending_rids () =
  let t = mk () in
  for k = 1 to 5 do
    ignore (Table.insert t ~clock:k (row k (k mod 2) (Printf.sprintf "v%d" k)))
  done;
  (* rewrite rid 2 then rid 1: their latest versions are now the newest
     entries in the history, which used to leak into the scan order *)
  ignore (Table.update t ~clock:6 ~rid:2 (row 2 0 "v2'"));
  ignore (Table.update t ~clock:7 ~rid:1 (row 1 1 "v1'"));
  let past = Table.scan_as_of t ~at:5 in
  Alcotest.(check (list int)) "pre-update snapshot ascending" [ 1; 2; 3; 4; 5 ]
    (rids past);
  Alcotest.(check string) "pre-update value" "v1"
    (match (List.hd past).Table.values.(2) with
    | Value.Str s -> s
    | _ -> "?");
  let now = Table.scan_as_of t ~at:10 in
  Alcotest.(check (list int)) "post-update snapshot ascending" [ 1; 2; 3; 4; 5 ]
    (rids now);
  Alcotest.(check string) "updated row read back in place" "v1'"
    (match (List.hd now).Table.values.(2) with
    | Value.Str s -> s
    | _ -> "?")

(* ------------------------------------------------------------------ *)
(* index maintenance across the MVCC mutation paths                    *)

let test_backfill_and_churn () =
  let t = mk () in
  for k = 1 to 40 do
    ignore (Table.insert t ~clock:k (row k (k mod 7) (Printf.sprintf "v%d" k)))
  done;
  (* a NULL key must stay out of both index kinds *)
  ignore
    (Table.insert t ~clock:41 [| Value.Int 41; Value.Null; Value.Str "n" |]);
  Table.create_index t ~index_name:"t_grp" ~column:"grp";
  Table.create_index ~ordered:true t ~index_name:"t_k" ~column:"k";
  check_integrity t;
  check_lookup_equivalence t ~column:1;
  (* churn: updates move keys between buckets, deletes empty some *)
  for k = 1 to 40 do
    if k mod 3 = 0 then ignore (Table.delete t ~clock:(100 + k) ~rid:k)
    else if k mod 3 = 1 then
      ignore (Table.update t ~clock:(100 + k) ~rid:k (row k (k mod 5) "u"))
  done;
  check_integrity t;
  check_lookup_equivalence t ~column:1;
  (* the ordered index agrees with the live scan over any range *)
  let oidx =
    match Table.ordered_index_on t ~column:0 with
    | Some o -> o
    | None -> Alcotest.fail "ordered index missing"
  in
  let in_range =
    Table.scan t
    |> List.filter (fun tv ->
           match tv.Table.values.(0) with
           | Value.Int k -> k >= 10 && k <= 30
           | _ -> false)
    |> rids |> List.sort compare
  in
  Alcotest.(check (list int)) "range lookup = filtered scan" in_range
    (rids
       (Table.range_lookup t oidx
          ~lo:(Some (Value.Int 10, true))
          ~hi:(Some (Value.Int 30, true))))

(* deleting every row of a key must drop its bucket, so the distinct
   count the planner reads stays equal to the live distinct keys *)
let test_empty_buckets_dropped () =
  let t = mk () in
  Table.create_index t ~index_name:"t_grp" ~column:"grp";
  for k = 1 to 12 do
    ignore (Table.insert t ~clock:k (row k (k mod 4) "x"))
  done;
  Alcotest.(check (option int)) "4 distinct keys" (Some 4)
    (Table.distinct_on t ~column:1);
  (* retire every grp=0 row (rids 4, 8, 12) *)
  List.iter (fun rid -> ignore (Table.delete t ~clock:(20 + rid) ~rid)) [ 4; 8; 12 ];
  Alcotest.(check (option int)) "bucket dropped with its last row" (Some 3)
    (Table.distinct_on t ~column:1);
  check_integrity t;
  (* updates that move the last row out of a key drop that bucket too:
     rids 2, 6, 10 are the grp=2 rows; moving them to grp=1 empties it *)
  List.iter
    (fun rid -> ignore (Table.update t ~clock:(40 + rid) ~rid (row rid 1 "y")))
    [ 2; 6; 10 ];
  Alcotest.(check (option int)) "update-vacated bucket dropped" (Some 2)
    (Table.distinct_on t ~column:1);
  check_integrity t

let test_rollback_keeps_indexes () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE acc (id INT, grp INT, note TEXT)");
  ignore (Database.exec db "CREATE INDEX acc_grp ON acc (grp)");
  ignore (Database.exec db "CREATE ORDERED INDEX acc_id ON acc (id)");
  for k = 1 to 10 do
    ignore
      (Database.exec db
         (Printf.sprintf "INSERT INTO acc VALUES (%d, %d, 'v%d')" k (k mod 3) k))
  done;
  let table = Catalog.find (Database.catalog db) "acc" in
  let before = scan_matching table 1 (Value.Int 1) in
  ignore (Database.exec db "BEGIN");
  ignore (Database.exec db "INSERT INTO acc VALUES (11, 1, 'tx')");
  ignore (Database.exec db "UPDATE acc SET grp = 1 WHERE id = 3");
  ignore (Database.exec db "DELETE FROM acc WHERE id = 4");
  ignore (Database.exec db "ROLLBACK");
  (* the abort unlink/relink path must leave every index consistent *)
  check_integrity table;
  check_lookup_equivalence table ~column:1;
  Alcotest.(check (list int)) "grp=1 membership restored" before
    (scan_matching table 1 (Value.Int 1));
  let r = Database.query db "SELECT COUNT(*) FROM acc WHERE grp = 1" in
  Alcotest.(check int) "indexed count matches" (List.length before)
    (match (List.hd r.Executor.rows).Executor.values.(0) with
    | Value.Int n -> n
    | _ -> -1)

let test_restore_version_maintains_indexes () =
  let t = mk () in
  Table.create_index t ~index_name:"t_grp" ~column:"grp";
  Table.create_index ~ordered:true t ~index_name:"t_k" ~column:"k";
  (* checkpoint-style restore: out-of-order rids, then a superseding
     newer version of rid 3 that changes its indexed keys *)
  ignore (Table.restore_version t ~rid:3 ~version:2 (row 3 0 "a"));
  ignore (Table.restore_version t ~rid:1 ~version:1 (row 1 1 "b"));
  ignore (Table.restore_version t ~rid:5 ~version:4 (row 5 0 "c"));
  ignore (Table.restore_version t ~rid:3 ~version:7 (row 30 2 "a2"));
  check_integrity t;
  check_lookup_equivalence t ~column:1;
  Alcotest.(check (list int)) "superseded key vacated" []
    (scan_matching t 0 (Value.Int 3));
  Alcotest.(check (list int)) "ascending scan over restored rids" [ 1; 3; 5 ]
    (rids (Table.scan t))

(* ------------------------------------------------------------------ *)
(* delete-heavy workload: 10k inserts then 10k deletes used to rebuild
   the live-order list per delete (quadratic); it must now finish well
   inside the tier-1 timeout                                            *)

let test_delete_heavy_workload () =
  let n = 10_000 in
  let t = mk () in
  Table.create_index t ~index_name:"t_grp" ~column:"grp";
  let t0 = Unix.gettimeofday () in
  for k = 1 to n do
    ignore (Table.insert t ~clock:k (row k (k mod 13) "x"))
  done;
  (* interleave scans so a quadratic rebuild would surface as seconds *)
  for k = 1 to n do
    ignore (Table.delete t ~clock:(n + k) ~rid:k);
    if k mod 1000 = 0 then ignore (Table.scan t)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "all rows gone" 0 (Table.row_count t);
  Alcotest.(check (list int)) "empty scan" [] (rids (Table.scan t));
  check_integrity t;
  if dt > 5.0 then
    Alcotest.failf "delete-heavy workload took %.1fs (quadratic rebuild?)" dt

(* ------------------------------------------------------------------ *)
(* The retirement log names the rids retired after a snapshot, until a
   trim or a restore raises its floor past it                          *)

let test_retirement_log_floor () =
  let t = mk () in
  for k = 1 to 4 do
    ignore (Table.insert t ~clock:k (row k 0 "i"))
  done;
  Alcotest.(check (option (list int))) "inserts log nothing" (Some [])
    (Table.retired_since t ~at:0);
  ignore (Table.update t ~clock:5 ~rid:2 (row 2 1 "u"));
  ignore (Table.delete t ~clock:6 ~rid:3);
  Alcotest.(check (option (list int))) "an update and a delete, oldest first"
    (Some [ 2; 3 ]) (Table.retired_since t ~at:4);
  Alcotest.(check (option (list int))) "only those after the snapshot"
    (Some [ 3 ]) (Table.retired_since t ~at:5);
  (* far more retirements than live rows: the log trims its older half *)
  for i = 0 to 39 do
    ignore (Table.update t ~clock:(10 + i) ~rid:(1 + (i mod 2)) (row 1 i "c"))
  done;
  Alcotest.(check (option (list int))) "trimmed past an old snapshot" None
    (Table.retired_since t ~at:4);
  Alcotest.(check (option (list int))) "a recent snapshot still served"
    (Some [ 1; 2 ]) (Table.retired_since t ~at:47);
  ignore (Table.restore_version t ~rid:4 ~version:60 (row 4 0 "r"));
  Alcotest.(check (option (list int))) "a restore raises the floor" None
    (Table.retired_since t ~at:59);
  Alcotest.(check (option (list int))) "served again from the restore on"
    (Some []) (Table.retired_since t ~at:60)

(* ------------------------------------------------------------------ *)
(* [db.rows_scanned] counts the rows each access path examined, for
   SELECT and DML alike                                                 *)

(* [f ()]'s result and the [db.rows_scanned] it counted, against a clean
   in-memory collector that is switched off again afterwards *)
let rows_scanned f =
  Ldv_obs.set_sink Ldv_obs.Memory;
  Ldv_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Ldv_obs.set_sink Ldv_obs.Null;
      Ldv_obs.reset ();
      Ldv_obs.set_ring_capacity 65536)
    (fun () ->
      let r = f () in
      let counters = (Ldv_obs.snapshot ()).Ldv_obs.counters in
      (r, Option.value ~default:0 (List.assoc_opt "db.rows_scanned" counters)))

let int_answer (r : Executor.result) =
  match r.Executor.rows with
  | [ { Executor.values = [| Value.Int n |]; _ } ] -> n
  | _ -> Alcotest.fail "expected one integer"

let test_rows_scanned_counts_examined () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE acc (id INT, balance INT)");
  ignore
    (Database.bulk_insert db ~table:"acc"
       (List.init 10_000 (fun k -> [| Value.Int (k + 1); Value.Int (k mod 97) |])));
  ignore (Database.exec db "CREATE INDEX acc_id ON acc (id)");
  let query sql = rows_scanned (fun () -> Database.query db sql) in
  let dml sql = snd (rows_scanned (fun () -> Database.dml db sql)) in
  let pin = Database.clock db in
  (* after the pin, row 7 is updated, then deleted: the live index no
     longer holds it, and only the retirement log names it *)
  Alcotest.(check int) "an indexed UPDATE examines its one candidate" 1
    (dml "UPDATE acc SET balance = balance + 1000 WHERE id = 7");
  Alcotest.(check int) "an unindexed DELETE examines every row" 10_000
    (dml "DELETE FROM acc WHERE balance > 1000");
  let r, n =
    query (Printf.sprintf "SELECT balance FROM acc AS OF %d WHERE id = 7" pin)
  in
  Alcotest.(check int) "stale pinned point read: the pinned answer" 6
    (int_answer r);
  Alcotest.(check int) "stale pinned point read: rows examined" 1 n;
  let r, n = query "SELECT COUNT(*) FROM acc WHERE id BETWEEN 100 AND 105" in
  Alcotest.(check int) "6-key BETWEEN count: the count" 6 (int_answer r);
  Alcotest.(check int) "6-key BETWEEN count: rows examined" 6 n

(* ------------------------------------------------------------------ *)
(* Model-based property: a [Table] inside a [Database] and a naive
   reference (every version ever written, with its commit and retirement
   clocks) go through the same random operations; every read path must
   agree with the reference afterwards.                                 *)

type model_version = {
  m_tid : Tid.t;
  m_values : Value.t array;
  mutable m_retired : int;  (* 0 = not retired *)
}

type model = {
  mutable versions : model_version list;  (* newest first *)
  mutable unlinked : Tid.t list;  (* versions erased by a rollback *)
  mutable next_rid : int;
}

type rid_choice =
  | Known of int  (* some rid below the allocator: live, dead or a gap *)
  | Beyond of int  (* [next_rid + n]: a sparse, high rid *)

type op =
  | Insert of int * int  (* k, grp *)
  | Update of int * int  (* live row pick, new grp *)
  | Delete of int  (* live row pick *)
  | Restore of (rid_choice * int) list  (* one restore batch: rid, grp *)
  | Stale_restore of int  (* live row pick, restored at its own version *)
  | Bump_next_rid of int
  | Rollback of int * int * int  (* k, grp, key deleted inside the tx *)
  | Create_index of int

let show_op = function
  | Insert (k, g) -> Printf.sprintf "Insert(%d,%d)" k g
  | Update (p, g) -> Printf.sprintf "Update(%d,%d)" p g
  | Delete p -> Printf.sprintf "Delete %d" p
  | Restore rows ->
    Printf.sprintf "Restore[%s]"
      (String.concat ";"
         (List.map
            (function
              | Known r, g -> Printf.sprintf "known %d,%d" r g
              | Beyond n, g -> Printf.sprintf "beyond %d,%d" n g)
            rows))
  | Stale_restore p -> Printf.sprintf "Stale_restore %d" p
  | Bump_next_rid d -> Printf.sprintf "Bump_next_rid %d" d
  | Rollback (k, g, d) -> Printf.sprintf "Rollback(%d,%d,%d)" k g d
  | Create_index i -> Printf.sprintf "Create_index %d" i

let op_gen =
  let open QCheck.Gen in
  let key = int_bound 12 and grp = int_bound 4 and pick = int_bound 1000 in
  let rid_choice =
    frequency
      [ (3, map (fun r -> Known r) (int_bound 1000));
        (1, map (fun n -> Beyond n) (int_bound 300)) ]
  in
  frequency
    [ (4, map2 (fun k g -> Insert (k, g)) key grp);
      (2, map2 (fun p g -> Update (p, g)) pick grp);
      (2, map (fun p -> Delete p) pick);
      (2, map (fun rows -> Restore rows)
            (list_size (int_range 1 4) (pair rid_choice grp)));
      (1, map (fun p -> Stale_restore p) pick);
      (1, map (fun d -> Bump_next_rid d) (int_bound 200));
      (1, map3 (fun k g d -> Rollback (k, g, d)) key grp key);
      (1, map (fun i -> Create_index i) (int_bound 3)) ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 40) op_gen)

(* grp NULL every fifth value: NULL keys stay out of both index kinds *)
let model_row k grp s =
  [| Value.Int k; (if grp = 4 then Value.Null else Value.Int grp); Value.Str s |]

let model_live m =
  List.filter (fun v -> v.m_retired = 0) m.versions
  |> List.sort (fun a b -> Int.compare a.m_tid.Tid.rid b.m_tid.Tid.rid)

let model_live_of m rid =
  List.find_opt (fun v -> v.m_retired = 0 && v.m_tid.Tid.rid = rid) m.versions

let pick_live m p =
  match model_live m with
  | [] -> None
  | live -> Some (List.nth live (p mod List.length live))

let model_add m ~rid ~version values =
  (match model_live_of m rid with
  | Some old -> old.m_retired <- version
  | None -> ());
  m.versions <-
    { m_tid = Tid.make ~table:"t" ~rid ~version; m_values = values;
      m_retired = 0 }
    :: m.versions;
  if rid >= m.next_rid then m.next_rid <- rid + 1

let index_specs =
  [| ("ix_grp", "grp", false); ("ox_k", "k", true); ("ix_k", "k", false);
     ("ox_grp", "grp", true) |]

let apply db table m op =
  let written = function
    | Database.Affected info -> info.Database.written
    | _ -> []
  in
  match op with
  | Insert (k, grp) ->
    let clock = Database.tick db and row = model_row k grp "i" in
    let tv = Table.insert table ~clock row in
    if tv.Table.tid.Tid.rid <> m.next_rid then
      QCheck.Test.fail_reportf "insert got rid %d, expected %d"
        tv.Table.tid.Tid.rid m.next_rid;
    model_add m ~rid:m.next_rid ~version:clock row
  | Update (p, grp) -> (
    match pick_live m p with
    | None -> ()
    | Some v ->
      let clock = Database.tick db and rid = v.m_tid.Tid.rid in
      let row = model_row rid grp "u" in
      ignore (Table.update table ~clock ~rid row);
      model_add m ~rid ~version:clock row)
  | Delete p -> (
    match pick_live m p with
    | None -> ()
    | Some v ->
      let clock = Database.tick db in
      ignore (Table.delete table ~clock ~rid:v.m_tid.Tid.rid);
      v.m_retired <- clock)
  | Restore choices ->
    (* resolve each rid against the allocator as the batch advances it;
       every row gets a fresh version, so superseding is never stale *)
    let next = ref m.next_rid in
    let rows =
      List.map
        (fun (choice, grp) ->
          let rid =
            match choice with
            | Known r -> 1 + (r mod !next)
            | Beyond n -> !next + n
          in
          if rid >= !next then next := rid + 1;
          (rid, Database.tick db, model_row (rid * 10) grp "r"))
        choices
    in
    ignore (Table.restore_versions table rows);
    List.iter (fun (rid, version, row) -> model_add m ~rid ~version row) rows
  | Stale_restore p -> (
    match pick_live m p with
    | None -> ()
    | Some v -> (
      let rid = v.m_tid.Tid.rid and version = v.m_tid.Tid.version in
      match Table.restore_version table ~rid ~version (model_row 0 0 "s") with
      | _ -> QCheck.Test.fail_reportf "stale restore of rid %d accepted" rid
      | exception Errors.Db_error (Errors.Constraint_violation _) -> ()))
  | Bump_next_rid d ->
    Table.restore_next_rid table (m.next_rid + d);
    m.next_rid <- m.next_rid + d
  | Rollback (k, grp, gone) ->
    let exec sql = Database.exec db sql in
    ignore (exec "BEGIN");
    let inserted =
      written
        (exec (Printf.sprintf "INSERT INTO t VALUES (%d, %d, 'tx')" k grp))
    in
    let updated =
      written (exec (Printf.sprintf "UPDATE t SET s = 'tx' WHERE grp = %d" grp))
    in
    ignore (exec (Printf.sprintf "DELETE FROM t WHERE k = %d" gone));
    ignore (exec "ROLLBACK");
    List.iter
      (fun tid -> if tid.Tid.rid >= m.next_rid then m.next_rid <- tid.Tid.rid + 1)
      inserted;
    m.unlinked <- inserted @ updated @ m.unlinked
  | Create_index i ->
    let name, column, ordered = index_specs.(i) in
    if not (Table.index_exists table name) then
      Table.create_index ~ordered table ~index_name:name ~column

let tids tvs = List.map (fun tv -> tv.Table.tid) tvs

let tid_list = Alcotest.testable (Fmt.Dump.list Tid.pp) (List.equal Tid.equal)

(* [what] names the failing check; it is only rendered on failure *)
let expect what expected got =
  if not (Alcotest.equal tid_list expected got) then
    QCheck.Test.fail_reportf "%s:@ expected %a@ got %a" (what ())
      (Alcotest.pp tid_list) expected (Alcotest.pp tid_list) got

let check_against_model db table m =
  let by_rid_version a b =
    match Int.compare a.Tid.rid b.Tid.rid with
    | 0 -> Int.compare a.Tid.version b.Tid.version
    | c -> c
  in
  let live = model_live m in
  let scanned = Table.scan table in
  expect (fun () -> "scan") (List.map (fun v -> v.m_tid) live) (tids scanned);
  List.iter2
    (fun v tv ->
      if not (Array.for_all2 Value.equal v.m_values tv.Table.values) then
        QCheck.Test.fail_reportf "scan: values of %s differ"
          (Tid.to_string v.m_tid))
    live scanned;
  let arr = Table.scan_array table in
  if
    Array.length arr <> List.length scanned
    || not (List.for_all2 ( == ) (Array.to_list arr) scanned)
  then QCheck.Test.fail_reportf "scan_array differs from scan";
  if Table.row_count table <> List.length live then
    QCheck.Test.fail_reportf "row_count %d, model %d" (Table.row_count table)
      (List.length live);
  if table.Table.next_rid <> m.next_rid then
    QCheck.Test.fail_reportf "next_rid %d, model %d" table.Table.next_rid
      m.next_rid;
  if Table.version_count table <> List.length m.versions then
    QCheck.Test.fail_reportf "version_count %d, model %d"
      (Table.version_count table) (List.length m.versions);
  List.iter
    (fun v ->
      match Table.find_version table v.m_tid with
      | Some tv when Tid.equal tv.Table.tid v.m_tid -> ()
      | _ ->
        QCheck.Test.fail_reportf "find_version %s" (Tid.to_string v.m_tid))
    m.versions;
  List.iter
    (fun tid ->
      if Table.find_version table tid <> None then
        QCheck.Test.fail_reportf "unlinked %s still found" (Tid.to_string tid))
    m.unlinked;
  expect (fun () -> "all_versions")
    (List.map (fun v -> v.m_tid) m.versions |> List.sort by_rid_version)
    (tids (Table.all_versions table));
  (* at every clock: the versions committed by then and not yet retired *)
  for at = 0 to Database.clock db + 1 do
    let snapshot =
      List.filter
        (fun v ->
          v.m_tid.Tid.version <= at && (v.m_retired = 0 || v.m_retired > at))
        m.versions
      |> List.map (fun v -> v.m_tid)
      |> List.sort by_rid_version
    in
    expect (fun () -> Printf.sprintf "scan_as_of %d" at) snapshot
      (tids (Table.scan_as_of table ~at));
    let by_rid = Array.make (m.next_rid + 1) [] in
    List.iter (fun tid -> by_rid.(tid.Tid.rid) <- [ tid ]) snapshot;
    for rid = 1 to m.next_rid do
      expect
        (fun () -> Printf.sprintf "visible_version rid %d at %d" rid at)
        by_rid.(rid)
        (Option.to_list (Table.visible_version ~at table ~rid) |> tids)
    done
  done;
  match Table.check_index_integrity table with
  | Ok () -> ignore (Table.stats ~verify:true table)
  | Error e -> QCheck.Test.fail_reportf "index integrity: %s" e

let prop_storage_model =
  QCheck.Test.make ~count:200 ~name:"table agrees with a naive version model"
    arb_ops (fun ops ->
      let db = Database.create () in
      ignore (Database.exec db "CREATE TABLE t (k INT, grp INT, s TEXT)");
      let table = Catalog.find (Database.catalog db) "t" in
      let m = { versions = []; unlinked = []; next_rid = 1 } in
      List.iter (apply db table m) ops;
      check_against_model db table m;
      true)

(* ------------------------------------------------------------------ *)
(* Property: AS-OF and in-transaction reads through a hash index (= and
   BETWEEN) and an ordered index (ranges) return the rows, rid order and
   Lineage of an unindexed copy. Three copies of one table go through
   the same random history: autocommit and transactional writes
   (updates of the indexed key among them, and updates and deletes whose
   WHERE adds a residual conjunct on the unindexed column), COMMIT and
   ROLLBACK, a version restore, and more retirements than the table has
   live rows. Reads with a residual conjunct run its filter inside each
   access path: the full scan, the hash-key and hash-range probes and
   the ordered range.
   Indexes are added through the catalog, which leaves the clock alone,
   so every copy stamps every version identically.                      *)

type hop =
  | H_insert of int * int  (* k, v *)
  | H_add of int * int  (* k, delta to v *)
  | H_move of int * int  (* k, new k *)
  | H_delete of int  (* k *)
  | H_bump of int * int  (* k, v floor: a residual in an UPDATE's WHERE *)
  | H_trim of int * int  (* k, v ceiling: a residual in a DELETE's WHERE *)
  | H_begin
  | H_commit
  | H_rollback
  | H_switch  (* the next writes run in the transaction / autocommit *)
  | H_restore of (int * int) list  (* rid pick, k *)

let show_hop = function
  | H_insert (k, v) -> Printf.sprintf "insert(%d,%d)" k v
  | H_add (k, d) -> Printf.sprintf "add(%d,%d)" k d
  | H_move (k, k') -> Printf.sprintf "move(%d->%d)" k k'
  | H_delete k -> Printf.sprintf "delete %d" k
  | H_bump (k, v) -> Printf.sprintf "bump(%d,v>%d)" k v
  | H_trim (k, v) -> Printf.sprintf "trim(%d,v<%d)" k v
  | H_begin -> "begin"
  | H_commit -> "commit"
  | H_rollback -> "rollback"
  | H_switch -> "switch"
  | H_restore rows ->
    Printf.sprintf "restore[%s]"
      (String.concat ";"
         (List.map (fun (r, k) -> Printf.sprintf "%d,%d" r k) rows))

let n_keys = 6

let hop_gen =
  let open QCheck.Gen in
  let key = int_bound (n_keys - 1) in
  frequency
    [ (2, map2 (fun k v -> H_insert (k, v)) key (int_bound 99));
      (4, map2 (fun k d -> H_add (k, d)) key (int_range 1 9));
      (3, map2 (fun k k' -> H_move (k, k')) key key);
      (2, map (fun k -> H_delete k) key);
      (2, map2 (fun k v -> H_bump (k, v)) key (int_bound 30));
      (2, map2 (fun k v -> H_trim (k, v)) key (int_bound 30));
      (2, return H_begin);
      (1, return H_commit);
      (1, return H_rollback);
      (2, return H_switch);
      (1, map (fun rows -> H_restore rows)
            (list_size (int_range 1 3) (pair (int_bound 40) key))) ]

let arb_history =
  QCheck.make
    ~print:(fun hops -> String.concat "; " (List.map show_hop hops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 10 40) hop_gen)

(* One copy of the table: its database and its open transaction (0 =
   none; transaction ids differ between copies). *)
type copy = { db : Database.t; mutable tx : int }

let copy_db index =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (k INT, v INT)");
  ignore
    (Database.exec db
       ("INSERT INTO t VALUES "
       ^ String.concat ", "
           (List.init (3 * n_keys) (fun i ->
                Printf.sprintf "(%d, %d)" (i mod n_keys) i))));
  Option.iter
    (fun ordered ->
      Catalog.create_index ~ordered (Database.catalog db) ~index:"t_k"
        ~table:"t" ~column:"k")
    index;
  { db; tx = 0 }

(* Rows, rid order and Lineage of a read, or the error it raised. Reads
   leave the clock alone, so only writes advance it. *)
let answer db sql =
  match Database.with_frozen_clock db (fun () -> Database.query db sql) with
  | r ->
    String.concat "; "
      (List.map
         (fun (row : Executor.arow) ->
           String.concat ","
             (Array.to_list (Array.map Value.to_string row.Executor.values))
           ^ " <- "
           ^ String.concat " "
               (List.map Tid.to_string
                  (Lineage.elements (Annotation.lineage row.Executor.ann))))
         r.Executor.rows)
  | exception Errors.Db_error e -> "error " ^ Errors.to_string e

(* The same outcome on every copy, or a failure naming [what]. *)
let same what (outcomes : string list) =
  match outcomes with
  | reference :: indexed ->
    List.iter
      (fun o ->
        if o <> reference then
          QCheck.Test.fail_reportf "%s:@ unindexed %s@ indexed %s" (what ())
            reference o)
      indexed
  | [] -> ()

(* Every read shape, each over [t] or [t AS OF s]: hash equality (a key
   no row holds among them), short BETWEEN ranges (an empty one among
   them) and ordered ranges, some with a residual conjunct on the
   unindexed [v], and the residual alone (a full scan on every copy). *)
let reads from =
  let sel = Printf.sprintf "SELECT k, v FROM %s WHERE %s" from in
  List.init (n_keys + 1) (fun c -> sel (Printf.sprintf "k = %d" c))
  @ List.concat_map
      (fun c ->
        [ sel (Printf.sprintf "k BETWEEN %d AND %d" c (c + 1));
          sel (Printf.sprintf "k BETWEEN %d AND %d" c (c + 2)) ])
      [ 0; 2; 4 ]
  @ [ sel "k BETWEEN 3 AND 1"; sel "k > 3"; sel "k <= 1" ]
  @ [ sel "k = 2 AND v > 8"; sel "k BETWEEN 1 AND 3 AND v > 8";
      sel "k > 3 AND v > 8"; sel "v > 8" ]

(* Run [f] on every copy with its session bound to its transaction
   ([in_tx]) or to autocommit, then restore the session. *)
let as_viewer copies ~in_tx f =
  List.map
    (fun c ->
      let saved = Database.current_tx c.db in
      Database.set_current_tx c.db (if in_tx then c.tx else 0);
      Fun.protect
        ~finally:(fun () -> Database.set_current_tx c.db saved)
        (fun () -> f c))
    copies

let check_reads copies ~label ~in_tx from =
  List.iter
    (fun sql ->
      same
        (fun () -> Printf.sprintf "%s: %s" label sql)
        (as_viewer copies ~in_tx (fun c -> answer c.db sql)))
    (reads from)

(* Every AS-OF read at every clock, by an autocommit reader and, while a
   transaction is open, by the transaction. *)
let check_as_of_sweep copies =
  let clock = Database.clock (List.hd copies).db in
  let open_tx = (List.hd copies).tx <> 0 in
  for s = 0 to clock + 1 do
    let from = Printf.sprintf "t AS OF %d" s in
    check_reads copies ~label:"autocommit" ~in_tx:false from;
    if open_tx then check_reads copies ~label:"in the transaction" ~in_tx:true from
  done

let run_hop copies hop =
  let exec_all sql =
    same
      (fun () -> sql)
      (List.map
         (fun c ->
           match Database.exec c.db sql with
           | Database.Affected info ->
             String.concat " " (List.map Tid.to_string info.Database.written)
             ^ " / "
             ^ String.concat " " (List.map Tid.to_string info.Database.read)
           | _ -> "done"
           | exception Errors.Db_error e -> "error " ^ Errors.to_string e)
         copies)
  in
  let open_tx = (List.hd copies).tx <> 0 in
  match hop with
  | H_insert (k, v) -> exec_all (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" k v)
  | H_add (k, d) ->
    exec_all (Printf.sprintf "UPDATE t SET v = v + %d WHERE k = %d" d k)
  | H_move (k, k') -> exec_all (Printf.sprintf "UPDATE t SET k = %d WHERE k = %d" k' k)
  | H_delete k -> exec_all (Printf.sprintf "DELETE FROM t WHERE k = %d" k)
  | H_bump (k, v) ->
    exec_all (Printf.sprintf "UPDATE t SET v = v + 1 WHERE k = %d AND v > %d" k v)
  | H_trim (k, v) ->
    exec_all
      (Printf.sprintf "DELETE FROM t WHERE k BETWEEN %d AND %d AND v < %d" k
         (k + 1) v)
  | H_begin ->
    if not open_tx then begin
      exec_all "BEGIN";
      List.iter (fun c -> c.tx <- Database.current_tx c.db) copies
    end
  | H_commit | H_rollback ->
    if open_tx then begin
      List.iter (fun c -> Database.set_current_tx c.db c.tx) copies;
      exec_all (if hop = H_commit then "COMMIT" else "ROLLBACK");
      List.iter (fun c -> c.tx <- 0) copies
    end
  | H_switch ->
    if open_tx then
      List.iter
        (fun c ->
          Database.set_current_tx c.db
            (if Database.current_tx c.db = 0 then c.tx else 0))
        copies
  | H_restore picks ->
    (* a restore runs between transactions; every row gets a fresh
       version, the same on every copy *)
    if not open_tx then begin
      check_as_of_sweep copies;
      List.iter
        (fun c ->
          let table = Catalog.find (Database.catalog c.db) "t" in
          let rows =
            List.map
              (fun (pick, k) ->
                ( 1 + (pick mod (table.Table.next_rid + 1)),
                  Database.tick c.db,
                  [| Value.Int k; Value.Int (-pick) |] ))
              picks
          in
          ignore (Table.restore_versions table rows))
        copies
    end

let prop_as_of_index_reads =
  QCheck.Test.make ~count:40
    ~name:"AS-OF and in-transaction index reads match an unindexed copy"
    arb_history (fun hops ->
      let copies =
        [ copy_db None; copy_db (Some false); copy_db (Some true) ]
      in
      List.iter
        (fun hop ->
          run_hop copies hop;
          if (List.hd copies).tx <> 0 then
            check_reads copies ~label:"in the transaction" ~in_tx:true "t")
        hops;
      check_reads copies ~label:"autocommit" ~in_tx:false "t";
      check_as_of_sweep copies;
      true)

let suite =
  [ Alcotest.test_case "scan_as_of ascending rids" `Quick
      test_scan_as_of_ascending_rids;
    Alcotest.test_case "backfill and churn" `Quick test_backfill_and_churn;
    Alcotest.test_case "empty buckets dropped" `Quick
      test_empty_buckets_dropped;
    Alcotest.test_case "rollback keeps indexes" `Quick
      test_rollback_keeps_indexes;
    Alcotest.test_case "restore_version maintains indexes" `Quick
      test_restore_version_maintains_indexes;
    Alcotest.test_case "delete-heavy workload" `Slow
      test_delete_heavy_workload;
    Alcotest.test_case "retirement log floor" `Quick test_retirement_log_floor;
    Alcotest.test_case "rows_scanned counts rows examined" `Quick
      test_rows_scanned_counts_examined;
    QCheck_alcotest.to_alcotest prop_storage_model;
    QCheck_alcotest.to_alcotest prop_as_of_index_reads ]

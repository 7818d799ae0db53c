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
    QCheck_alcotest.to_alcotest prop_storage_model ]

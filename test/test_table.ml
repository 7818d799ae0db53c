open Minidb

let schema =
  Schema.of_list [ Schema.column "k" Value.Tint; Schema.column "s" Value.Tstr ]

let mk () = Table.create ~name:"T" ~schema

let test_insert_assigns_rids () =
  let t = mk () in
  let a = Table.insert t ~clock:1 [| Value.Int 1; Value.Str "a" |] in
  let b = Table.insert t ~clock:2 [| Value.Int 2; Value.Str "b" |] in
  Alcotest.(check int) "rids sequential" 1 a.Table.tid.Tid.rid;
  Alcotest.(check int) "second rid" 2 b.Table.tid.Tid.rid;
  Alcotest.(check string) "name lowercased" "t" a.Table.tid.Tid.table;
  Alcotest.(check int) "row count" 2 (Table.row_count t);
  Alcotest.(check int) "scan in insertion order" 1
    (List.hd (Table.scan t)).Table.tid.Tid.rid

let test_update_creates_version () =
  let t = mk () in
  let a = Table.insert t ~clock:1 [| Value.Int 1; Value.Str "a" |] in
  let old_tv, new_tv = Table.update t ~clock:5 ~rid:1 [| Value.Int 1; Value.Str "a2" |] in
  Alcotest.(check bool) "old is the insert" true (Tid.equal old_tv.Table.tid a.Table.tid);
  Alcotest.(check int) "new version carries clock" 5 new_tv.Table.tid.Tid.version;
  Alcotest.(check int) "rid stable" 1 new_tv.Table.tid.Tid.rid;
  Alcotest.(check (option int)) "old retired" (Some 5) old_tv.Table.retired_at;
  Alcotest.(check int) "still one live row" 1 (Table.row_count t);
  Alcotest.(check int) "two versions in history" 2 (Table.version_count t);
  (* both versions findable *)
  Alcotest.(check bool) "old version retrievable" true
    (Table.find_version t a.Table.tid <> None)

let test_delete () =
  let t = mk () in
  ignore (Table.insert t ~clock:1 [| Value.Int 1; Value.Str "a" |]);
  let victim = Table.delete t ~clock:3 ~rid:1 in
  Alcotest.(check (option int)) "retired at delete time" (Some 3)
    victim.Table.retired_at;
  Alcotest.(check int) "no live rows" 0 (Table.row_count t);
  Alcotest.(check int) "history keeps it" 1 (Table.version_count t)

let test_update_dead_rid_fails () =
  let t = mk () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Table.update t ~clock:1 ~rid:99 [| Value.Int 1; Value.Str "x" |]);
       false
     with Errors.Db_error (Errors.Constraint_violation _) -> true)

let test_restore_version () =
  let t = mk () in
  let tv = Table.restore_version t ~rid:7 ~version:3 [| Value.Int 9; Value.Str "z" |] in
  Alcotest.(check int) "rid preserved" 7 tv.Table.tid.Tid.rid;
  Alcotest.(check int) "version preserved" 3 tv.Table.tid.Tid.version;
  (* next insert does not collide *)
  let next = Table.insert t ~clock:9 [| Value.Int 1; Value.Str "n" |] in
  Alcotest.(check int) "next_rid advanced" 8 next.Table.tid.Tid.rid;
  (* restoring a newer version of the same rid supersedes *)
  ignore (Table.restore_version t ~rid:7 ~version:5 [| Value.Int 10; Value.Str "z2" |]);
  Alcotest.(check int) "still 2 live" 2 (Table.row_count t);
  (* restoring a stale version fails *)
  Alcotest.(check bool) "stale restore rejected" true
    (try
       ignore (Table.restore_version t ~rid:7 ~version:4 [| Value.Int 0; Value.Str "" |]);
       false
     with Errors.Db_error (Errors.Constraint_violation _) -> true)

(* a bulk restore checks every rid before it changes anything *)
let test_restore_versions_checks_rids () =
  let t = mk () in
  let row = [| Value.Int 1; Value.Str "a" |] in
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rid %d rejected" bad)
        true
        (try
           ignore (Table.restore_versions t [ (1, 1, row); (bad, 2, row) ]);
           false
         with Errors.Db_error (Errors.Constraint_violation _) -> true))
    [ 0; -4; Table.max_rid + 1 ];
  Alcotest.(check int) "nothing restored" 0 (Table.row_count t);
  Alcotest.(check int) "newest version returned" 9
    (Table.restore_versions t [ (3, 9, row); (1, 2, row) ]);
  Alcotest.(check int) "allocator past the highest rid" 4 t.Table.next_rid

let test_schema_coercion_on_insert () =
  let t =
    Table.create ~name:"f"
      ~schema:(Schema.of_list [ Schema.column "x" Value.Tfloat ])
  in
  let tv = Table.insert t ~clock:1 [| Value.Int 2 |] in
  Alcotest.(check bool) "int widened" true
    (Value.equal tv.Table.values.(0) (Value.Float 2.0))

let suite =
  [ Alcotest.test_case "insert assigns rids" `Quick test_insert_assigns_rids;
    Alcotest.test_case "update creates version" `Quick test_update_creates_version;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "update dead rid" `Quick test_update_dead_rid_fails;
    Alcotest.test_case "restore version" `Quick test_restore_version;
    Alcotest.test_case "restore checks rids first" `Quick
      test_restore_versions_checks_rids;
    Alcotest.test_case "insert coercion" `Quick test_schema_coercion_on_insert ]

(* Tests for partial re-execution (backward slicing + package slimming)
   and replay validation. *)

open Ldv_core
module I = Dbclient.Interceptor

(* An app with two independent strands:
   - strand A: read /in/a, query table ta, write /out/a
   - strand B: read /in/b, query table tb, write /out/b
   Slicing to /out/a must drop everything strand-B. *)
let two_strand_audit () =
  let db = Minidb.Database.create () in
  ignore
    (Minidb.Database.exec_script db
       "CREATE TABLE ta (x INT);\nCREATE TABLE tb (y INT);\n\
        INSERT INTO ta VALUES (1), (2);\nINSERT INTO tb VALUES (10), (20)");
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel db in
  let vfs = Minios.Kernel.vfs kernel in
  Minios.Vfs.write_string vfs ~path:"/in/a" "2";
  Minios.Vfs.write_string vfs ~path:"/in/b" "20";
  Minios.Vfs.write_opaque vfs ~path:"/bin/two-strand" 1000;
  let program env =
    let conn = Dbclient.Client.connect env ~db:"main" in
    let ta = Minios.Program.read_file env "/in/a" in
    let rows_a =
      Dbclient.Client.query conn
        (Printf.sprintf "SELECT x FROM ta WHERE x >= %s" ta)
    in
    Minios.Program.write_file env "/out/a"
      (String.concat ","
         (List.map (fun r -> Minidb.Value.to_raw_string r.(0)) rows_a));
    let tb = Minios.Program.read_file env "/in/b" in
    let rows_b =
      Dbclient.Client.query conn
        (Printf.sprintf "SELECT y FROM tb WHERE y >= %s" tb)
    in
    Minios.Program.write_file env "/out/b"
      (String.concat ","
         (List.map (fun r -> Minidb.Value.to_raw_string r.(0)) rows_b));
    Dbclient.Client.close conn
  in
  Minios.Program.register ~name:"two-strand" program;
  Audit.run ~packaging:Audit.Included kernel server ~app_name:"two-strand"
    ~app_binary:"/bin/two-strand" program

let audit = lazy (two_strand_audit ())

let test_requirements_slice () =
  let audit = Lazy.force audit in
  let r = Partial.requirements audit.Audit.trace ~target:"file:/out/a" in
  Alcotest.(check bool) "strand A input required" true
    (List.mem "/in/a" r.Partial.req_files);
  Alcotest.(check bool) "strand B input not required" false
    (List.mem "/in/b" r.Partial.req_files);
  Alcotest.(check bool) "app binary required (loader read)" true
    (List.mem "/bin/two-strand" r.Partial.req_files);
  let tables =
    Minidb.Tid.Set.elements r.Partial.req_tuples
    |> List.map (fun (t : Minidb.Tid.t) -> t.Minidb.Tid.table)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "only ta tuples required" [ "ta" ] tables;
  Alcotest.(check int) "one statement required" 1
    (List.length r.Partial.req_statements)

let test_slim_package () =
  let audit = Lazy.force audit in
  let pkg = Package.build audit in
  let r = Partial.requirements audit.Audit.trace ~target:"file:/out/a" in
  let slim = Partial.slim pkg [ r ] in
  let paths =
    List.map (fun (e : Package.entry) -> e.Package.e_path) slim.Package.entries
  in
  Alcotest.(check bool) "slim keeps /in/a" true (List.mem "/in/a" paths);
  Alcotest.(check bool) "slim drops /in/b" false (List.mem "/in/b" paths);
  Alcotest.(check (list string)) "slim keeps only ta csv" [ "ta" ]
    (List.map fst slim.Package.db_subset);
  Alcotest.(check bool) "slim is smaller" true
    (Package.total_bytes slim < Package.total_bytes pkg);
  (* a partial program covering only strand A replays against the slim
     package and reproduces the original output *)
  let partial_program env =
    let conn = Dbclient.Client.connect env ~db:"main" in
    let ta = Minios.Program.read_file env "/in/a" in
    let rows_a =
      Dbclient.Client.query conn
        (Printf.sprintf "SELECT x FROM ta WHERE x >= %s" ta)
    in
    Minios.Program.write_file env "/out/a"
      (String.concat ","
         (List.map (fun r -> Minidb.Value.to_raw_string r.(0)) rows_a));
    Dbclient.Client.close conn
  in
  let result = Replay.execute ~program:partial_program slim in
  Alcotest.(check (option string)) "partial replay reproduces /out/a"
    (List.assoc_opt "/out/a" audit.Audit.out_files)
    (List.assoc_opt "/out/a" result.Replay.out_files)

let test_slim_rejects_other_kinds () =
  let exc = Ldv_fixtures.audit Audit.Excluded in
  let pkg = Package.build exc in
  Alcotest.(check bool) "server-excluded cannot be slimmed" true
    (try
       ignore (Partial.slim pkg []);
       false
     with Invalid_argument _ -> true)

(* ---------------- replay validation ---------------- *)

let test_diff_validates_replay () =
  (* replaying a package issues the audited run's statement stream:
     the same kinds and normalized SQL, in the same order *)
  let audit1 = Lazy.force audit in
  let replay = Replay.execute (Package.build audit1) in
  let stream log =
    List.map
      (fun (e : I.stmt_event) -> (I.stmt_kind_name e.I.kind, e.I.sql_norm))
      log
  in
  Alcotest.(check (list (pair string string))) "same statement stream"
    (stream (Audit.stmts audit1))
    (stream (I.log replay.Replay.session))

let suite =
  [ Alcotest.test_case "requirements slice" `Quick test_requirements_slice;
    Alcotest.test_case "slim package" `Quick test_slim_package;
    Alcotest.test_case "slim rejects other kinds" `Quick test_slim_rejects_other_kinds;
    Alcotest.test_case "diff validates replay" `Quick test_diff_validates_replay ]

(* Golden digests of the provenance each of the 18 Table II variants
   computes on the seeded fixture instance. Per result row: its values,
   the N[X] annotation rendered in normal form, its lineage, its
   why-provenance and its derivation count; then the Perm-style expansion
   of [PROVENANCE SELECT]. Q2/Q3 are 3-way joins (Q3 under COUNT: one row
   summing every derivation), Q4 groups a join under AVG, Q1 is a plain
   selection. A change to how annotations are represented or propagated
   must leave all of them byte-identical. *)

open Minidb

let digest s = Digest.to_hex (Digest.string s)

(* The fixtures' seed at sf 0.002: at their default scale every Q1/Q4
   parameter rounds to the same supplier bound. *)
let instance = lazy (Tpch.Dbgen.setup ~sf:0.002 ~seed:Ldv_fixtures.seed ())

let tids s = String.concat "," (List.map Tid.to_string (Tid.Set.elements s))

let add_values buf (values : Value.t array) =
  Array.iter
    (fun v ->
      Buffer.add_string buf (Value.to_string v);
      Buffer.add_char buf '\x1f')
    values

(* Every provenance view of every result row, one line each. *)
let annotated_rows (r : Executor.result) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (row : Executor.arow) ->
      let ann = row.Executor.ann in
      add_values buf row.Executor.values;
      Buffer.add_string buf (Annotation.to_string ann);
      Buffer.add_char buf '|';
      Buffer.add_string buf (tids (Lineage.to_set (Annotation.lineage ann)));
      Buffer.add_char buf '|';
      Buffer.add_string buf
        (String.concat ";" (List.map tids (Annotation.why ann)));
      Buffer.add_char buf '|';
      Buffer.add_string buf (string_of_int (Annotation.derivation_count ann));
      Buffer.add_char buf '\n')
    r.Executor.rows;
  Buffer.contents buf

let provenance_rows (r : Executor.result) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (row : Executor.arow) ->
      add_values buf row.Executor.values;
      Buffer.add_char buf '\n')
    r.Executor.rows;
  Buffer.contents buf

(* (variant, annotated rows digest, PROVENANCE output digest) *)
let golden =
  [ ("Q1-1", "690e146cbf36536592c6bbc1bb37a177",
     "c1ab5ad00cea41e7392340f655fbaf69");
    ("Q1-2", "690e146cbf36536592c6bbc1bb37a177",
     "c1ab5ad00cea41e7392340f655fbaf69");
    ("Q1-3", "690e146cbf36536592c6bbc1bb37a177",
     "c1ab5ad00cea41e7392340f655fbaf69");
    ("Q1-4", "35675015adedde1dbb5cbcd0eeb47abe",
     "36bd623515714b2ec68517dfb13a57be");
    ("Q1-5", "fe8cf63dfc3911d6f89458c1c3261d6d",
     "20da0e1c969d67588d2f13d9b771eeeb");
    ("Q2-1", "634e7270e39a556601e0c2425e2756c8",
     "9c1989316b3aaeb97b376760c022b3d2");
    ("Q2-2", "3e367613935622318e3fc576a34f68ad",
     "476d630ece292e4211648cb30411840b");
    ("Q2-3", "44fb8c354df6fec82a96fcc1909d8af8",
     "b01ddb73efdc56fd906d60abb970bf38");
    ("Q2-4", "44fb8c354df6fec82a96fcc1909d8af8",
     "b01ddb73efdc56fd906d60abb970bf38");
    ("Q3-1", "fc7ade9dfdb052d66c9fa6cf63b09eea",
     "8849eba62422fb5b85c15619ba613620");
    ("Q3-2", "34882f779e84fb8e8eea796fdcf08509",
     "cdc809609c540a600c38256b68ddcf8b");
    ("Q3-3", "de1cca3fee63b3016f0201bd4a18854a",
     "301f8499c42665405bc02817b890dd62");
    ("Q3-4", "de1cca3fee63b3016f0201bd4a18854a",
     "301f8499c42665405bc02817b890dd62");
    ("Q4-1", "2e15748542049c828a4f4ba4206c4256",
     "324defe64d2d080fefedea92bd17228d");
    ("Q4-2", "2e15748542049c828a4f4ba4206c4256",
     "324defe64d2d080fefedea92bd17228d");
    ("Q4-3", "2e15748542049c828a4f4ba4206c4256",
     "324defe64d2d080fefedea92bd17228d");
    ("Q4-4", "fcd563914f3624879ee201d1aced6777",
     "b80a49c993a1209b22714c780597068c");
    ("Q4-5", "dda1a302f23fb3c80409a3e5a8e07648",
     "9101846776745fb30f37ca97d818e2c9") ]

let check_variant db stats (vid, rows_digest, prov_digest) =
  let q = Tpch.Queries.find stats vid in
  let select =
    match Sql_parser.parse q.Tpch.Queries.sql with
    | Sql_ast.Select s -> s
    | _ -> Alcotest.failf "%s is not a SELECT" vid
  in
  Alcotest.(check string)
    (vid ^ " annotated rows") rows_digest
    (digest (annotated_rows (Database.query db q.Tpch.Queries.sql)));
  Alcotest.(check string)
    (vid ^ " PROVENANCE output") prov_digest
    (digest (provenance_rows (Database.run_provenance db select)))

let test_family family () =
  let db, stats = Lazy.force instance in
  Alcotest.(check (list string)) "every Table II variant has digests"
    (List.map (fun v -> v.Tpch.Queries.vid) (Tpch.Queries.variants stats))
    (List.map (fun (vid, _, _) -> vid) golden);
  List.iter
    (fun ((vid, _, _) as g) ->
      if (Tpch.Queries.find stats vid).Tpch.Queries.family = family then
        check_variant db stats g)
    golden

let suite =
  List.map
    (fun family ->
      Alcotest.test_case
        (Printf.sprintf "Q%d-* provenance digests" family)
        `Quick (test_family family))
    [ 1; 2; 3; 4 ]

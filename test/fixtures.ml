(* Shared test fixtures. *)

open Minidb

(* The paper's Figure 5 example: an annotated sales table where
   SELECT sum(price) FROM sales WHERE price > 10 has lineage {t2, t3}. *)
let sales_db () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE sales (id INT, price INT)");
  ignore (Database.exec db "INSERT INTO sales VALUES (1, 5), (2, 11), (3, 14)");
  db

(* A two-table join fixture. *)
let orders_db () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE orders (okey INT, cust TEXT)");
  ignore (Database.exec db "CREATE TABLE items (okey INT, qty INT, price FLOAT)");
  ignore
    (Database.exec db
       "INSERT INTO orders VALUES (1, 'alice'), (2, 'bob'), (3, 'carol')");
  ignore
    (Database.exec db
       "INSERT INTO items VALUES (1, 2, 10.0), (1, 3, 5.0), (2, 1, 7.5), (4, \
        9, 1.0)");
  db

let rows_of (r : Executor.result) : Value.t array list =
  Executor.result_values r

let int_cell = function
  | Value.Int i -> i
  | v -> Alcotest.failf "expected int cell, got %s" (Value.to_string v)

let str_cell = function
  | Value.Str s -> s
  | v -> Alcotest.failf "expected string cell, got %s" (Value.to_string v)

let float_cell = function
  | Value.Float f -> f
  | Value.Int i -> float_of_int i
  | v -> Alcotest.failf "expected float cell, got %s" (Value.to_string v)

(* Render rows for order-insensitive comparison. *)
let row_strings (rows : Value.t array list) : string list =
  List.map
    (fun row ->
      String.concat "|" (Array.to_list (Array.map Value.to_raw_string row)))
    rows
  |> List.sort String.compare

let check_rows msg expected (r : Executor.result) =
  Alcotest.(check (list string)) msg
    (List.sort String.compare expected)
    (row_strings (rows_of r))

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* Restrict a database to a tuple-version subset: a fresh DB holding, per
   table, only the live versions whose tid is in [tids]. Used by the
   lineage-sufficiency property. *)
let restrict_db (db : Database.t) (tids : Tid.Set.t) : Database.t =
  let out = Database.create ~name:(Database.name db ^ "-restricted") () in
  Catalog.iter (Database.catalog db) (fun table ->
      let name = Table.name table in
      let copy =
        Catalog.create_table (Database.catalog out) ~name
          ~schema:(Table.schema table)
      in
      List.iter
        (fun (tv : Table.tuple_version) ->
          if Tid.Set.mem tv.Table.tid tids then
            ignore
              (Table.restore_version copy ~rid:tv.Table.tid.Tid.rid
                 ~version:tv.Table.tid.Tid.version tv.Table.values))
        (Table.scan table));
  out

(* Words [f] allocates, by [Gc.allocated_bytes]. The minor heap is
   collected before and after: on OCaml 5.1 [Gc.allocated_bytes] counts
   the words still in it an eighth of their number, and words promoted
   from an empty minor heap are words [f] allocated. *)
let allocated_words f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)

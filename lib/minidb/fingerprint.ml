(** Canonical fingerprints: digests of result rows, and dumps of a whole
    database's logical state for byte-identical comparisons. *)

(** A stable digest of result rows (order-sensitive): replay verification
    compares these. *)
let rows (rows : Value.t array list) : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun row ->
      Array.iter
        (fun v ->
          Buffer.add_string buf (Value.to_raw_string v);
          Buffer.add_char buf '\x1f')
        row;
      Buffer.add_char buf '\n')
    rows;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let result (r : Executor.result) : string = rows (Executor.result_values r)

(** Canonical dump of the full database state — clock, per-table next_rid
    and indexes, and every live tuple version, tables by name and rows
    sorted — used for byte-identical convergence and recovery checks. Two
    databases are statement-equivalent iff their dumps are equal. *)
let state (db : Database.t) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "clock=%d\n" (Database.clock db));
  let catalog = Database.catalog db in
  List.iter
    (fun name ->
      let table = Catalog.find catalog name in
      Buffer.add_string buf
        (Printf.sprintf "table %s next_rid=%d indexes=[%s]\n" name
           table.Table.next_rid
           (String.concat ";"
              (List.sort String.compare (Table.index_names table))));
      let rows =
        List.map
          (fun (tv : Table.tuple_version) ->
            Printf.sprintf "  (%d,%d,[%s])" tv.Table.tid.Tid.rid
              tv.Table.tid.Tid.version
              (String.concat ";"
                 (Array.to_list
                    (Array.map Value.to_raw_string tv.Table.values))))
          (Table.scan table)
        |> List.sort String.compare
      in
      List.iter (fun r -> Buffer.add_string buf (r ^ "\n")) rows)
    (List.sort String.compare (Catalog.table_names catalog));
  Buffer.contents buf

(** First line where two dumps differ, each side labelled for a report. *)
let first_diff ~left ~right (a : string) (b : string) : string =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> "states differ"
    | x :: la', y :: lb' ->
      if String.equal x y then go (i + 1) la' lb'
      else
        Printf.sprintf "line %d: %s %S vs %s %S" i left (String.trim x) right
          (String.trim y)
    | x :: _, [] ->
      Printf.sprintf "%s has extra state: %S" left (String.trim x)
    | [], y :: _ ->
      Printf.sprintf "%s has extra state: %S" right (String.trim y)
  in
  go 1 la lb

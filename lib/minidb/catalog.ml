(** The catalog: a named collection of tables. *)

type t = {
  tables : (string, Table.t) Hashtbl.t;
  index_owner : (string, string) Hashtbl.t;  (** index name -> table name *)
}

let create () = { tables = Hashtbl.create 16; index_owner = Hashtbl.create 16 }

let create_table t ~name ~schema =
  let name = String.lowercase_ascii name in
  if Hashtbl.mem t.tables name then Errors.fail (Errors.Duplicate_table name);
  let table = Table.create ~name ~schema in
  Hashtbl.replace t.tables name table;
  table

let drop_table t name =
  let name = String.lowercase_ascii name in
  if not (Hashtbl.mem t.tables name) then
    Errors.fail (Errors.Unknown_table name);
  Hashtbl.remove t.tables name

let find t name =
  let name = String.lowercase_ascii name in
  match Hashtbl.find_opt t.tables name with
  | Some table -> table
  | None -> Errors.fail (Errors.Unknown_table name)

let find_opt t name = Hashtbl.find_opt t.tables (String.lowercase_ascii name)
let mem t name = Hashtbl.mem t.tables (String.lowercase_ascii name)

let table_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []
  |> List.sort String.compare

let iter t f = List.iter (fun n -> f (find t n)) (table_names t)

(** Create a named index on [table].[column]; [ordered] selects the
    range-capable sorted index over the default hash index. *)
let create_index ?(ordered = false) t ~index ~table ~column =
  let index = String.lowercase_ascii index in
  if Hashtbl.mem t.index_owner index then
    Errors.fail
      (Errors.Constraint_violation
         (Printf.sprintf "index %S already exists" index));
  let tbl = find t table in
  Table.create_index ~ordered tbl ~index_name:index ~column;
  Hashtbl.replace t.index_owner index (Table.name tbl)

let drop_index t index =
  let index = String.lowercase_ascii index in
  match Hashtbl.find_opt t.index_owner index with
  | None -> Errors.fail (Errors.Unknown_table ("index " ^ index))
  | Some table ->
    Table.drop_index (find t table) ~index_name:index;
    Hashtbl.remove t.index_owner index

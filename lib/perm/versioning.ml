(** Tuple-version bookkeeping utilities.

    The paper implements versioning by extending each accessed relation
    with [prov_rowid]/[prov_v]/[prov_usedby]/[prov_p] attributes and
    updating them as statements run (§VII-B). MiniDB versions tuples
    natively, so these helpers expose the same information — which
    tables are versioned and which version of which row existed when —
    without the schema rewrite. Which statement and process used a
    version ([prov_usedby]/[prov_p]) is answered by the interceptor's
    statement log, whose events carry their qid, pid and reads. *)

open Minidb

type t = {
  db : Database.t;
  (* tables whose versioning has been "enabled" — in the paper, the lazy
     ALTER TABLE performed on first access *)
  enabled : (string, unit) Hashtbl.t;
}

let create db = { db; enabled = Hashtbl.create 16 }

(** Mark a table as provenance-enabled; idempotent. Returns [true] the
    first time, which is when the paper's implementation pays the schema
    extension cost. *)
let enable_table t name =
  let name = String.lowercase_ascii name in
  if Hashtbl.mem t.enabled name then false
  else begin
    Hashtbl.replace t.enabled name ();
    true
  end

let enabled_tables t =
  Hashtbl.fold (fun n () acc -> n :: acc) t.enabled [] |> List.sort compare

(** Fetch the stored values of a tuple version, if it still exists in the
    table's history. *)
let lookup_version t (tid : Tid.t) : Value.t array option =
  match Catalog.find_opt (Database.catalog t.db) tid.Tid.table with
  | None -> None
  | Some table ->
    Option.map
      (fun (tv : Table.tuple_version) -> tv.Table.values)
      (Table.find_version table tid)

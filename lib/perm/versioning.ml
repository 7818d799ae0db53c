(** Tuple-version bookkeeping utilities.

    The paper implements versioning by extending each accessed relation
    with [prov_rowid]/[prov_v]/[prov_usedby]/[prov_p] attributes and
    updating them as statements run (§VII-B). MiniDB versions tuples
    natively, so these helpers expose the same information — which version
    of which row existed when, and which statement/process used it —
    without the schema rewrite. The [usage] registry reproduces the
    [prov_usedby]/[prov_p] bookkeeping for inspection and tests: one
    record per statement, holding the statement's packed reads. *)

open Minidb

type usage = { used_by_qid : int; used_by_pid : int; at : int }

type t = {
  db : Database.t;
  mutable usages : (usage * Lineage.t) list;  (** newest first *)
  (* tables whose versioning has been "enabled" — in the paper, the lazy
     ALTER TABLE performed on first access *)
  enabled : (string, unit) Hashtbl.t;
}

let create db = { db; usages = []; enabled = Hashtbl.create 16 }

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

(** Record that the versions [reads] were used by statement [qid] issued
    by process [pid] — the [prov_usedby]/[prov_p] columns of the paper. *)
let record_usage t reads ~qid ~pid ~at =
  if not (Lineage.is_empty reads) then
    t.usages <- ({ used_by_qid = qid; used_by_pid = pid; at }, reads) :: t.usages

let usages_of t tid =
  List.fold_left
    (fun acc (u, reads) -> if Lineage.mem tid reads then u :: acc else acc)
    [] t.usages

let used_tids t = Lineage.elements (Lineage.union_all (List.map snd t.usages))

(** Fetch the stored values of a tuple version, if it still exists in the
    table's history. *)
let lookup_version t (tid : Tid.t) : Value.t array option =
  match Catalog.find_opt (Database.catalog t.db) tid.Tid.table with
  | None -> None
  | Some table ->
    Option.map
      (fun (tv : Table.tuple_version) -> tv.Table.values)
      (Table.find_version table tid)

(** Current live version of a row, if any. *)
let live_version t ~table ~rid : Tid.t option =
  match Catalog.find_opt (Database.catalog t.db) table with
  | None -> None
  | Some tbl ->
    Option.map
      (fun (tv : Table.tuple_version) -> tv.Table.tid)
      (Table.find_live tbl ~rid)

(** Computing the relevant DB subset (§VII-D).

    A tuple version is relevant to the application iff (a) it was *not*
    created by the application itself (re-execution will recreate those —
    including them would duplicate rows and break key constraints / bag
    semantics), and (b) the state of some activity in the execution trace
    depends on it, which for the compact traces we build is equivalent to
    the version appearing in the lineage of some executed statement.

    Two implementations are provided: the production one over the
    interceptor's dedup table (what the paper's prototype does with its
    in-memory hash table), and a trace-walking one used to cross-check the
    first in tests. *)

open Minidb
module I = Dbclient.Interceptor

(** Tuple versions created by the audited application: everything a DML
    statement in the log wrote. *)
let created_by_app (stmts : I.stmt_event list) : Lineage.t =
  List.concat_map
    (fun (s : I.stmt_event) ->
      List.filter_map
        (fun (tid, _) -> if I.is_result_tid tid then None else Some tid)
        s.I.results)
    stmts
  |> Lineage.of_tids

(** The relevant tuple versions of an audited run, packed: the
    interceptor's deduplicated lineage table minus application-created
    versions. Transient query-result tuples never enter that table. *)
let relevant_lineage (audit : Audit.t) : Lineage.t =
  Ldv_obs.with_span "slice.relevant" @@ fun () ->
  (* all sessions' logs: a tuple created by *any* session of the audited
     run will be recreated on replay, whichever session reads it *)
  let created = created_by_app (Audit.stmts audit) in
  let relevant = Lineage.diff (I.slice_lineage audit.Audit.session) created in
  if Ldv_obs.enabled () then begin
    Ldv_obs.counter ~by:(Lineage.cardinal relevant) "slice.relevant_tuples";
    Ldv_obs.counter ~by:(Lineage.cardinal created) "slice.app_created_tuples"
  end;
  relevant

let relevant (audit : Audit.t) : Tid.Set.t =
  Lineage.to_set (relevant_lineage audit)

(** Trace-based computation of the same set: stored tuple entities that
    some statement read ([hasRead] out-edge) but that no statement in the
    trace produced ([hasReturned] in-edge). *)
let relevant_via_trace (trace : Prov.Trace.t) : Tid.Set.t =
  Ldv_obs.with_span "slice.relevant_via_trace" @@ fun () ->
  List.fold_left
    (fun acc (n : Prov.Trace.node) ->
      match Prov.Lineage_model.tid_of_node_id n.Prov.Trace.id with
      | None -> acc
      | Some tid ->
        if I.is_result_tid tid then acc
        else
          let produced =
            List.exists
              (fun (e : Prov.Trace.edge) ->
                String.equal e.Prov.Trace.elabel "hasReturned")
              (Prov.Trace.in_edges trace n.Prov.Trace.id)
          in
          let read =
            List.exists
              (fun (e : Prov.Trace.edge) ->
                String.equal e.Prov.Trace.elabel "hasRead")
              (Prov.Trace.out_edges trace n.Prov.Trace.id)
          in
          if read && not produced then Tid.Set.add tid acc else acc)
    Tid.Set.empty (Prov.Trace.entities trace)

(** Materialize a packed tuple-version set as per-table CSV blobs, looking
    the values up in the database's version history and writing each
    version found straight into one reused buffer: one catalog lookup
    per table, and rows already in (rid, version) order. A table none of
    whose versions is found yields no blob. Packaging copies the rows
    the audit already wrote instead ([slice_csvs]); this encoder is the
    reference that copy must equal, and serves sets outside a slice. *)
let lineage_csvs (db : Database.t) (lin : Lineage.t) : (string * string) list =
  Ldv_obs.with_span "slice.to_csvs" @@ fun () ->
  let csvs = ref [] in
  let buf = Buffer.create 4096 in
  Lineage.iter_tables
    (fun table ids ->
      match Catalog.find_opt (Database.catalog db) table with
      | None -> ()
      | Some tbl ->
        Buffer.clear buf;
        Csv.add_header buf (Table.schema tbl);
        let header = Buffer.length buf in
        Array.iter
          (fun p ->
            let rid = Lineage.rid p and version = Lineage.version p in
            match Table.find_version_at tbl ~rid ~version with
            | Some tv -> Csv.add_row buf ~rid ~version tv.Table.values
            | None -> ())
          ids;
        if Buffer.length buf > header then
          csvs := (table, Buffer.contents buf) :: !csvs)
    lin;
  List.rev !csvs

let to_csvs (db : Database.t) (tids : Tid.Set.t) : (string * string) list =
  lineage_csvs db (Lineage.of_set tids)

(** The package CSV blobs of [lin], a subset of the audit's slice: per
    table the database still holds, the rows the interceptor wrote as
    each version entered the slice, copied out in (rid, version) order
    for the versions still found. Byte for byte [lineage_csvs] of the
    same set, without encoding a row again. *)
let slice_csvs (audit : Audit.t) (lin : Lineage.t) : (string * string) list =
  Ldv_obs.with_span "slice.csvs" @@ fun () ->
  let catalog = Database.catalog (Dbclient.Server.db audit.Audit.server) in
  let csvs = ref [] in
  Lineage.iter_tables
    (fun table ids ->
      match Catalog.find_opt catalog table with
      | None -> ()
      | Some tbl -> (
        match I.slice_csv audit.Audit.session ~table tbl ids with
        | Some csv -> csvs := (table, csv) :: !csvs
        | None -> ()))
    lin;
  List.rev !csvs

(** The tables contributing tuples to a version set. *)
let tables_of_tids (tids : Tid.Set.t) : string list =
  Tid.Set.fold (fun tid acc -> tid.Tid.table :: acc) tids []
  |> List.sort_uniq String.compare

(** Every table the audited application touched: the query-read and
    DML-target tables of the interceptor's versioning registry plus
    [tables]. All of them need DDL in the package even when none of their
    tuples survives slicing (a table the app populates itself must still
    exist on replay). The versioning registry is shared across a
    concurrent run's sibling sessions, so the primary session covers every
    session's accesses. *)
let touched_tables (audit : Audit.t) (tables : string list) : string list =
  Perm.Versioning.enabled_tables (I.versioning audit.Audit.session) @ tables
  |> List.sort_uniq String.compare

let accessed_tables (audit : Audit.t) (tids : Tid.Set.t) : string list =
  touched_tables audit (tables_of_tids tids)

let lineage_tables (audit : Audit.t) (lin : Lineage.t) : string list =
  touched_tables audit (Lineage.tables lin)

(** DDL for recreating the given tables at replay time. *)
let schema_ddl_for (db : Database.t) (tables : string list) :
    (string * string) list =
  List.filter_map
    (fun table ->
      match Catalog.find_opt (Database.catalog db) table with
      | None -> None
      | Some tbl ->
        let cols =
          Array.to_list (Table.schema tbl)
          |> List.map (fun (c : Schema.column) ->
                 Printf.sprintf "%s %s" c.Schema.name
                   (Value.type_name c.Schema.ty))
          |> String.concat ", "
        in
        Some (table, Printf.sprintf "CREATE TABLE %s (%s)" table cols))
    tables

(** Index DDL for the given tables: per table with at least one index,
    one [CREATE [ORDERED] INDEX] line per entry of [Table.index_specs],
    newline-separated. [index_specs] lists each kind's indexes newest
    first, so the lines run in reverse: a replay that creates them in
    order recreates the same specs. *)
let index_ddl_for (db : Database.t) (tables : string list) :
    (string * string) list =
  List.filter_map
    (fun table ->
      match Catalog.find_opt (Database.catalog db) table with
      | None -> None
      | Some tbl -> (
        match List.rev (Table.index_specs tbl) with
        | [] -> None
        | specs ->
          Some
            ( table,
              List.map
                (fun (index, column, ordered) ->
                  Printf.sprintf "CREATE %sINDEX %s ON %s (%s)"
                    (if ordered then "ORDERED " else "")
                    index table column)
                specs
              |> String.concat "\n" )))
    tables

(** Total bytes of an already-materialized subset — the provenance size
    axis of the paper's trade-off discussion. *)
let subset_bytes_of_csvs (csvs : (string * string) list) : int =
  List.fold_left (fun acc (_, csv) -> acc + String.length csv) 0 csvs

(** Computing the relevant DB subset (§VII-D).

    A tuple version is relevant to the application iff (a) it was not
    created by the application itself (re-execution recreates those), and
    (b) some statement's lineage contains it. *)

open Minidb

(** Tuple versions created by the audited application: everything a DML
    statement in the log wrote. *)
val created_by_app : Dbclient.Interceptor.stmt_event list -> Tid.Set.t

(** The relevant tuple versions of an audited run, from the interceptor's
    deduplicated lineage table. *)
val relevant : Audit.t -> Tid.Set.t

(** The same set computed by walking the execution trace (stored tuples
    with a [hasRead] out-edge and no [hasReturned] in-edge); used to
    cross-check [relevant]. *)
val relevant_via_trace : Prov.Trace.t -> Tid.Set.t

(** Materialize a tuple-version set as per-table CSV blobs. *)
val to_csvs : Database.t -> Tid.Set.t -> (string * string) list

(** The tables contributing tuples to a version set — the shared
    derivation behind [accessed_tables] and [schema_ddl]. *)
val tables_of_tids : Tid.Set.t -> string list

(** Every table the audited application touched (query reads, DML targets,
    and tables contributing tuples to the given set): all of them need DDL
    in the package, even when none of their tuples survives slicing. *)
val accessed_tables : Audit.t -> Tid.Set.t -> string list

(** CREATE TABLE statements for the given tables. *)
val schema_ddl_for : Database.t -> string list -> (string * string) list

(** Index DDL for the given tables, one entry per table that has
    indexes: a [CREATE [ORDERED] INDEX] line per [Table.index_specs]
    entry, newline-separated, ordered so that creating them in turn
    recreates the same specs. *)
val index_ddl_for : Database.t -> string list -> (string * string) list

(** CREATE TABLE statements for the tables contributing tuples to the
    set. *)
val schema_ddl : Database.t -> Tid.Set.t -> (string * string) list

(** Total bytes of an already-materialized subset; callers that also ship
    the blobs should size them here instead of re-encoding through
    [subset_bytes]. *)
val subset_bytes_of_csvs : (string * string) list -> int

(** Total bytes of the subset's CSV encoding — the provenance-size axis of
    the paper's trade-off discussion. Materializes the CSVs just to size
    them; prefer [subset_bytes_of_csvs] when the blobs are needed
    anyway. *)
val subset_bytes : Database.t -> Tid.Set.t -> int

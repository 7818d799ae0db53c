(** The DB-independent backend abstraction of the GProM middleware.

    The paper plans to replace the Perm-specific integration with GProM
    (§X), whose defining property is that provenance is computed by
    instrumenting SQL sent to an *unmodified* backend. This module pins
    down the minimal backend contract — execute a statement, report its
    affected tuple versions — and provides the MiniDB instance. A real
    deployment would add a PostgreSQL or SQLite instance with the same
    signature. *)

open Minidb

(** What the middleware needs from any backend. *)
module type S = sig
  type conn

  val name : conn -> string

  (** Execute a query, returning schema, rows, and per-row lineage. *)
  val query :
    conn -> string -> Schema.t * (Value.t array * Lineage.t) list

  (** Execute a DML statement, returning (a) the versions written with,
      per written version, the versions it derives from, and (b) every
      version the statement read (including delete victims, which write
      nothing). *)
  val dml : conn -> string -> (Tid.t * Tid.t list) list * Tid.t list

  (** Execute DDL / transaction-control statements. *)
  val command : conn -> string -> unit

  (** The current logical time of the backend. *)
  val clock : conn -> int
end

(** The MiniDB backend. *)
module Minidb_backend : S with type conn = Database.t = struct
  type conn = Database.t

  let name = Database.name

  let query db sql =
    let prov = Perm.Provenance_sql.query_lineage db sql in
    ( prov.Perm.Provenance_sql.schema,
      List.map
        (fun (r : Perm.Provenance_sql.provenance_row) ->
          (r.Perm.Provenance_sql.values, r.Perm.Provenance_sql.lineage))
        prov.Perm.Provenance_sql.rows )

  let dml db sql =
    match Database.exec db sql with
    | Database.Affected info -> (info.Database.deps, info.Database.read)
    | Database.Rows _ | Database.Ddl_done ->
      Errors.unsupported "Backend.dml expects a DML statement"

  let command db sql =
    match Database.exec db sql with
    | Database.Ddl_done -> ()
    | Database.Rows _ | Database.Affected _ ->
      Errors.unsupported "Backend.command expects a DDL/tx statement"

  let clock = Database.clock
end

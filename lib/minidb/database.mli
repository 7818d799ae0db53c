(** Top-level database engine API.

    A database is a catalog plus a logical clock; [exec] parses and
    executes one SQL statement, advancing the clock. DML results expose
    the tuple versions written and the versions they derive from — the
    provenance hooks the Perm layer and the LDV auditor build on.

    Transactions: [BEGIN] opens an undo scope; [ROLLBACK] erases every
    version the transaction wrote and resurrects every version it
    retired; [COMMIT] discards the undo log. DDL is rejected inside a
    transaction. *)

type t

(** Provenance facts of a DML statement. *)
type dml_info = {
  count : int;  (** rows affected *)
  written : Tid.t list;  (** tuple versions created *)
  read : Tid.t list;  (** pre-state versions read *)
  deps : (Tid.t * Tid.t list) list;
      (** written version -> versions it derives from *)
}

type exec_result =
  | Rows of Executor.result
  | Affected of dml_info
  | Ddl_done

(** The durable record of a committed transaction: begin snapshot, commit
    clock, and per-statement (deps, reads) provenance in statement order —
    the inputs transaction reenactment needs. *)
type committed_tx = {
  ct_id : int;
  ct_begin : int;
  ct_commit : int;
  ct_stmts : ((Tid.t * Tid.t list) list * Tid.t list) list;  (** oldest first *)
}

val create : ?name:string -> unit -> t

val clock : t -> int
val catalog : t -> Catalog.t
val name : t -> string

(** Whether the ambient session (see [set_current_tx]) has an open
    transaction. *)
val in_transaction : t -> bool

(** Number of transactions open across all sessions of this database. *)
val open_tx_count : t -> int

(** The ambient session's open transaction id (0 = autocommit). *)
val current_tx : t -> int

(** Switch the ambient session to open transaction [id] (0 = autocommit);
    serialized drivers (WAL apply, recovery) use this to multiplex many
    sessions over one database.
    @raise Errors.Db_error [Tx_state] if [id] is not an open transaction. *)
val set_current_tx : t -> int -> unit

(** The begin-snapshot clock of the ambient open transaction, if any. *)
val current_snapshot : t -> int option

(** Roll back the ambient session's open transaction (exactly what
    executing [ROLLBACK] does).
    @raise Errors.Db_error [Tx_state] if none is open. *)
val rollback_tx : t -> unit

(** Committed transactions of this database, oldest first. *)
val committed_txs : t -> committed_tx list

(** Called once per undo-log entry while a rollback walks its undo log;
    fault campaigns point this at a crash site. *)
val on_undo_step : (unit -> unit) ref

(** Advance the clock by one; the new value timestamps the next write. *)
val tick : t -> int

(** Advance the clock to at least [at] (never rewinds); keeps the DB clock
    aligned with the simulated OS clock. *)
val sync_clock : t -> at:int -> unit

(** Run [f] with the clock pinned: ticks inside are undone on exit. Used
    by read replicas so that serving a read never perturbs the
    tuple-version stamps that must stay byte-identical with the leader. *)
val with_frozen_clock : t -> (unit -> 'a) -> 'a

(** The standard subquery evaluator (plan -> rows + summed annotation),
    wired into every [exec]/[query] call. *)
val subquery_eval : Planner.subquery_eval

(** Plan a SELECT with subquery support; subqueries read under the
    ambient MVCC context. *)
val plan : t -> Sql_ast.select -> Planner.node

(** Plan and run a SELECT under the ambient MVCC context, returning the
    plan with its result (the plan names the base tables read). *)
val run_select_plan : t -> Sql_ast.select -> Planner.node * Executor.result

val run_select : t -> Sql_ast.select -> Executor.result

(** Perm-style expansion: one output row per (result row, lineage tuple)
    with [prov_table]/[prov_rowid]/[prov_v] columns appended. *)
val run_provenance : t -> Sql_ast.select -> Executor.result

val run_insert :
  t ->
  table:string ->
  columns:string list option ->
  source:Sql_ast.insert_source ->
  dml_info

val run_update :
  t ->
  table:string ->
  sets:(string * Sql_ast.expr) list ->
  where:Sql_ast.expr option ->
  dml_info

val run_delete : t -> table:string -> where:Sql_ast.expr option -> dml_info

(** Execute one parsed statement.
    @raise Errors.Db_error on every engine error. *)
val exec_ast : t -> Sql_ast.statement -> exec_result

(** Parse one SQL statement inside the overhead ledger's Parse frame.
    @raise Errors.Db_error [Parse_error] when the text does not parse. *)
val parse : string -> Sql_ast.statement

(** Parse ({!parse}) and execute one SQL statement. *)
val exec : t -> string -> exec_result

(** Run a semicolon-separated script, returning the last result. *)
val exec_script : t -> string -> exec_result

(** Run a query; @raise Errors.Db_error if it is not a SELECT. *)
val query : t -> string -> Executor.result

(** Run a DML statement; @raise Errors.Db_error otherwise. *)
val dml : t -> string -> dml_info

(** Bulk-load rows directly into a table (one clock tick per batch), as
    TPC-H dbgen does. *)
val bulk_insert : t -> table:string -> Value.t array list -> Tid.t list

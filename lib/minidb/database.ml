(** Top-level database engine API.

    A [Database.t] is a catalog plus a logical clock; [exec] parses and
    executes one SQL statement, advancing the clock. DML results expose the
    tuple versions written and the versions they were derived from — the
    provenance hooks the Perm layer and the LDV auditor build on.

    Transactions: [BEGIN] opens an undo scope; [ROLLBACK] erases every
    version the transaction wrote (as if it never happened) and resurrects
    every version it retired; [COMMIT] discards the undo log. DDL is not
    transactional and is rejected inside a transaction. *)

type undo =
  | U_insert of Table.t * Table.tuple_version
  | U_update of Table.t * Table.tuple_version * Table.tuple_version
      (** old (retired) version, new version *)
  | U_delete of Table.t * Table.tuple_version

(** An open transaction. [tx_begin] is the clock at BEGIN — the snapshot
    this transaction's statements read; [tx_stmts] accumulates per-DML
    provenance (deps, reads) for reenactment at commit, newest first. *)
type tx = {
  tx_id : int;
  tx_begin : int;
  mutable tx_undo : undo list;  (** newest first *)
  mutable tx_stmts : ((Tid.t * Tid.t list) list * Tid.t list) list;
}

(** The durable record of a committed transaction: enough to reenact it
    (Niu et al.) — per-statement write/read dependencies between its begin
    snapshot and its commit clock. *)
type committed_tx = {
  ct_id : int;
  ct_begin : int;
  ct_commit : int;
  ct_stmts : ((Tid.t * Tid.t list) list * Tid.t list) list;  (** oldest first *)
}

type t = {
  catalog : Catalog.t;
  mutable clock : int;
  name : string;
  txs : (int, tx) Hashtbl.t;  (** all open transactions, by id *)
  mutable current : int;  (** tx of the session executing now; 0 = autocommit *)
  mutable committed : committed_tx list;  (** newest first *)
}

(* Transaction ids are allocated from one process-wide counter so a version
   stamped by one database can never alias an open transaction of another
   (control and recovery arms of a campaign coexist in one process). *)
let txid_counter = ref 0

(** Provenance facts of a DML statement: for every tuple version written,
    the pre-existing versions it was derived from (empty for plain
    inserts; the source rows' lineage for INSERT .. SELECT). *)
type dml_info = {
  count : int;  (** rows affected *)
  written : Tid.t list;  (** tuple versions created *)
  read : Tid.t list;  (** pre-state versions read (update/delete/select src) *)
  deps : (Tid.t * Tid.t list) list;  (** written tid -> versions it derives from *)
}

type exec_result =
  | Rows of Executor.result
  | Affected of dml_info
  | Ddl_done

let create ?(name = "main") () =
  { catalog = Catalog.create ();
    clock = 0;
    name;
    txs = Hashtbl.create 8;
    current = 0;
    committed = [] }

let clock t = t.clock
let catalog t = t.catalog
let name t = t.name
let in_transaction t = t.current <> 0
let open_tx_count t = Hashtbl.length t.txs
let current_tx t = t.current

let tx_state t id = if id = 0 then None else Hashtbl.find_opt t.txs id
let current_tx_state t = tx_state t t.current

(** Switch the ambient session: subsequent statements execute under open
    transaction [id] (0 = autocommit). Serialized drivers — the durable
    WAL layer, recovery — use this to multiplex many sessions over one
    database. *)
let set_current_tx t id =
  if id <> 0 && not (Hashtbl.mem t.txs id) then
    Errors.fail
      (Errors.Tx_state (Printf.sprintf "no open transaction with id %d" id));
  t.current <- id

(** The begin-snapshot of the ambient open transaction, if any. *)
let current_snapshot t =
  Option.map (fun tx -> tx.tx_begin) (current_tx_state t)

(** Committed transactions, oldest first. *)
let committed_txs t = List.rev t.committed

(* Publish this database's MVCC facts for the executor while running one
   statement; statements never yield mid-execution, so the dynamic scope
   is safe under the cooperative scheduler. *)
let with_tx_context t f =
  let saved_viewer = !Tx_context.viewer
  and saved_snapshot = !Tx_context.snapshot
  and saved_active = !Tx_context.active in
  Tx_context.viewer := t.current;
  Tx_context.snapshot :=
    (match current_tx_state t with Some tx -> tx.tx_begin | None -> max_int);
  Tx_context.active := Hashtbl.length t.txs > 0;
  Fun.protect
    ~finally:(fun () ->
      Tx_context.viewer := saved_viewer;
      Tx_context.snapshot := saved_snapshot;
      Tx_context.active := saved_active)
    f

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(** Advance the clock to at least [at]; used to keep the DB clock aligned
    with the simulated OS clock so that combined traces share one
    timeline. *)
let sync_clock t ~at = if at > t.clock then t.clock <- at

(** Run [f] with the clock pinned: any ticks inside are undone on exit.
    Read-only statements still tick internally, so a replica serving a
    snapshot-pinned read must stay clock-neutral or its tuple-version
    stamps would drift from the leader's. *)
let with_frozen_clock t f =
  let saved = t.clock in
  Fun.protect ~finally:(fun () -> t.clock <- saved) f

let log_undo t entry =
  match current_tx_state t with
  | Some tx -> tx.tx_undo <- entry :: tx.tx_undo
  | None -> ()

let record_tx_stmt t deps read =
  match current_tx_state t with
  | Some tx -> tx.tx_stmts <- (deps, read) :: tx.tx_stmts
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Subquery evaluation: close the planner/executor loop.               *)

let subquery_eval : Planner.subquery_eval =
 fun node ->
  let result = Executor.run node in
  let ann =
    Annotation.sum
      (List.map (fun (r : Executor.arow) -> r.Executor.ann) result.Executor.rows)
  in
  (* an empty subquery result still carries no lineage; use [one] so the
     multiplication is neutral *)
  let ann = if Annotation.is_zero ann then Annotation.one else ann in
  (Executor.result_values result, ann)

(* ------------------------------------------------------------------ *)
(* Statement execution.                                                *)

let plan t (s : Sql_ast.select) : Planner.node =
  Planner.plan_select t.catalog ~eval_subquery:subquery_eval s

let run_select_plan t (s : Sql_ast.select) : Planner.node * Executor.result =
  let node = plan t s in
  (node, Executor.run node)

let run_select t (s : Sql_ast.select) : Executor.result =
  snd (run_select_plan t s)

(* Expand a provenance query Perm-style: each result row is repeated once
   per lineage tuple, extended with the provenance columns identifying that
   tuple version. *)
let run_provenance t (s : Sql_ast.select) : Executor.result =
  let base = run_select t s in
  let prov_schema =
    Schema.append base.Executor.schema
      (Schema.of_list
         [ Schema.column "prov_table" Value.Tstr;
           Schema.column "prov_rowid" Value.Tint;
           Schema.column "prov_v" Value.Tint ])
  in
  let rows =
    List.concat_map
      (fun (row : Executor.arow) ->
        let lin = Annotation.lineage row.Executor.ann in
        if Lineage.is_empty lin then
          [ { Executor.values =
                Array.append row.Executor.values
                  [| Value.Null; Value.Null; Value.Null |];
              ann = row.Executor.ann } ]
        else
          Lineage.elements lin
          |> List.map (fun (tid : Tid.t) ->
                 { Executor.values =
                     Array.append row.Executor.values
                       [| Value.Str tid.Tid.table;
                          Value.Int tid.Tid.rid;
                          Value.Int tid.Tid.version |];
                   ann = row.Executor.ann }))
      base.Executor.rows
  in
  { Executor.schema = prov_schema; rows }

let full_row_for_insert (schema : Schema.t) columns (values : Value.t list) =
  match columns with
  | None ->
    if List.length values <> Array.length schema then
      Errors.fail
        (Errors.Arity_error
           (Printf.sprintf "INSERT expects %d values, got %d"
              (Array.length schema) (List.length values)));
    Array.of_list values
  | Some cols ->
    if List.length cols <> List.length values then
      Errors.fail
        (Errors.Arity_error "INSERT column list and VALUES arity differ");
    let row = Array.make (Array.length schema) Value.Null in
    List.iter2
      (fun col v -> row.(Schema.resolve schema col) <- v)
      cols values;
    row

let run_insert t ~table ~columns ~(source : Sql_ast.insert_source) : dml_info =
  let tbl = Catalog.find t.catalog table in
  let schema = Table.schema tbl in
  (* materialize the rows (and their lineage, for INSERT .. SELECT) before
     writing anything, so a self-referencing insert sees a consistent
     snapshot *)
  let rows_with_lineage =
    match source with
    | Sql_ast.Values rows ->
      List.map
        (fun exprs -> (List.map Eval_expr.eval_const exprs, []))
        rows
    | Sql_ast.Query q ->
      let result = run_select t q in
      List.map
        (fun (r : Executor.arow) ->
          ( Array.to_list r.Executor.values,
            Lineage.elements (Annotation.lineage r.Executor.ann) ))
        result.Executor.rows
  in
  let clock = tick t in
  let deps =
    List.map
      (fun (values, lineage) ->
        let row = full_row_for_insert schema columns values in
        let tv = Table.insert tbl ~tx:t.current ~clock row in
        log_undo t (U_insert (tbl, tv));
        (tv.Table.tid, lineage))
      rows_with_lineage
  in
  let info =
    { count = List.length deps;
      written = List.map fst deps;
      read = List.concat_map snd deps |> List.sort_uniq Tid.compare;
      deps }
  in
  record_tx_stmt t info.deps info.read;
  info

let resolve_where t where =
  match where with
  | None -> (None, Annotation.one)
  | Some w ->
    let w, ann = Planner.resolve_expr t.catalog ~eval_subquery:subquery_eval w in
    (Some w, ann)

(* The access path an UPDATE/DELETE reads its rows through: the
   planner's cost-based choice for the WHERE conjuncts over a one-table
   scan, exactly as a SELECT of the same table would read them. *)
let access_path (tbl : Table.t) (where : Sql_ast.expr option) : Planner.node =
  let scan =
    { Planner.schema = Table.schema tbl;
      op = Planner.Scan { table = tbl; binding = Table.name tbl; as_of = None } }
  in
  fst
    (Planner.apply_index scan
       (Option.fold ~none:[] ~some:Sql_ast.conjuncts where))

(* The pre-state an UPDATE/DELETE modifies: the access path's rows that
   satisfy the whole predicate, read by the executor's filtered scan leaf
   (the one a SELECT's filter runs in) under the ambient MVCC context (a
   transaction sees its begin snapshot plus its own writes, an autocommit
   statement the committed present). *)
let affected_rows tbl where bound_where : Table.tuple_version list =
  Array.to_list
    (Executor.scan_leaf ?pred:bound_where (access_path tbl where) Fun.id)

(* First-updater-wins, abort immediately (NOWAIT): a DML may write a row
   only if the version it read is still the row's live version. Anything
   else — an uncommitted foreign version or deletion occupying the slot, a
   commit newer than the snapshot — aborts the statement with a
   serialization failure BEFORE the clock ticks or any write happens, so
   an aborted statement is invisible to the deterministic replay. *)
let serialization_check t (tbl : Table.t) (affected : Table.tuple_version list)
    =
  if t.current <> 0 || Hashtbl.length t.txs > 0 then
    List.iter
      (fun (tv : Table.tuple_version) ->
        match Table.find_live tbl ~rid:tv.Table.tid.Tid.rid with
        | Some live when live == tv -> ()
        | _ ->
          Ldv_obs.counter "tx.conflict";
          Errors.fail
            (Errors.Serialization_failure
               (Printf.sprintf "concurrent write to %s rid %d"
                  (Table.name tbl) tv.Table.tid.Tid.rid)))
      affected

let run_update t ~table ~sets ~where : dml_info =
  let tbl = Catalog.find t.catalog table in
  let schema = Table.schema tbl in
  let where, where_ann = resolve_where t where in
  let bound_where = Option.map (Eval_expr.bind schema) where in
  let bound_sets =
    List.map
      (fun (col, e) ->
        let e, _ = Planner.resolve_expr t.catalog ~eval_subquery:subquery_eval e in
        (Schema.resolve schema col, Eval_expr.bind schema e))
      sets
  in
  (* The paper computes the provenance of an update *before* executing it
     (reenactment): collect the affected pre-state first. *)
  let affected = affected_rows tbl where bound_where in
  serialization_check t tbl affected;
  let clock = tick t in
  let extra = Lineage.elements (Annotation.lineage where_ann) in
  let deps =
    List.map
      (fun (tv : Table.tuple_version) ->
        let new_values = Array.copy tv.Table.values in
        List.iter
          (fun (idx, e) ->
            (* SET expressions see the pre-state of the row *)
            new_values.(idx) <- Eval_expr.eval tv.Table.values e)
          bound_sets;
        let old_tv, new_tv =
          Table.update tbl ~tx:t.current ~clock ~rid:tv.Table.tid.Tid.rid
            new_values
        in
        log_undo t (U_update (tbl, old_tv, new_tv));
        (new_tv.Table.tid, old_tv.Table.tid :: extra))
      affected
  in
  let info =
    { count = List.length deps;
      written = List.map fst deps;
      read = List.concat_map snd deps |> List.sort_uniq Tid.compare;
      deps }
  in
  record_tx_stmt t info.deps info.read;
  info

let run_delete t ~table ~where : dml_info =
  let tbl = Catalog.find t.catalog table in
  let schema = Table.schema tbl in
  let where, where_ann = resolve_where t where in
  let bound_where = Option.map (Eval_expr.bind schema) where in
  let affected = affected_rows tbl where bound_where in
  serialization_check t tbl affected;
  let clock = tick t in
  let read =
    List.map
      (fun (tv : Table.tuple_version) ->
        let victim =
          Table.delete tbl ~tx:t.current ~clock ~rid:tv.Table.tid.Tid.rid
        in
        log_undo t (U_delete (tbl, victim));
        victim.Table.tid)
      affected
  in
  let info =
    { count = List.length read;
      written = [];
      read = read @ Lineage.elements (Annotation.lineage where_ann);
      deps = [] }
  in
  record_tx_stmt t info.deps info.read;
  info

(* ------------------------------------------------------------------ *)
(* Transactions.                                                       *)

(* Observed once per undo-log entry during a rollback's undo walk; the
   durable layer points it at a seeded crash site so campaigns can kill
   the process mid-rollback. *)
let on_undo_step : (unit -> unit) ref = ref (fun () -> ())

let begin_tx t =
  if t.current <> 0 then
    Errors.fail (Errors.Tx_state "transaction already open");
  incr txid_counter;
  let tx =
    { tx_id = !txid_counter; tx_begin = t.clock; tx_undo = []; tx_stmts = [] }
  in
  Hashtbl.replace t.txs tx.tx_id tx;
  t.current <- tx.tx_id;
  if Hashtbl.length t.txs = 1 then Catalog.iter t.catalog Table.note_tx_open;
  Ldv_obs.counter "tx.begin";
  tx.tx_id

(* Closing the last open transaction lets every table forget its hot-rid
   set: live snapshot, indexes and committed visibility agree again. *)
let note_tx_done t =
  if Hashtbl.length t.txs = 0 then Catalog.iter t.catalog Table.note_tx_closed

(* Commit: stamp every version the transaction wrote or retired with the
   commit clock, atomically making the whole transaction visible (a
   version both written and retired inside the transaction ends up with
   [committed_at = retired_commit], i.e. never visible — the reenactment
   layer calls these intermediate versions). *)
let commit_tx t =
  match current_tx_state t with
  | None -> Errors.fail (Errors.Tx_state "no open transaction")
  | Some tx ->
    let commit_clock = t.clock in
    List.iter
      (function
        | U_insert (tbl, tv) -> Table.commit_insert_stamp tbl tv ~commit_clock
        | U_update (tbl, old_tv, new_tv) ->
          Table.commit_insert_stamp tbl new_tv ~commit_clock;
          Table.commit_retire_stamp tbl old_tv ~commit_clock
        | U_delete (tbl, tv) -> Table.commit_retire_stamp tbl tv ~commit_clock)
      tx.tx_undo;
    Hashtbl.remove t.txs tx.tx_id;
    t.current <- 0;
    note_tx_done t;
    t.committed <-
      { ct_id = tx.tx_id;
        ct_begin = tx.tx_begin;
        ct_commit = commit_clock;
        ct_stmts = List.rev tx.tx_stmts }
      :: t.committed;
    Ldv_obs.counter "tx.commit"

let rollback_tx t =
  match current_tx_state t with
  | None -> Errors.fail (Errors.Tx_state "no open transaction")
  | Some tx ->
    Hashtbl.remove t.txs tx.tx_id;
    t.current <- 0;
    (* the log is newest-first: undo in that order so that an update's new
       version is unlinked before its old version is relinked *)
    List.iter
      (fun entry ->
        !on_undo_step ();
        match entry with
        | U_insert (tbl, tv) -> Table.unlink_version tbl tv
        | U_update (tbl, old_tv, new_tv) ->
          Table.unlink_version tbl new_tv;
          Table.relink_version tbl old_tv
        | U_delete (tbl, tv) -> Table.relink_version tbl tv)
      tx.tx_undo;
    note_tx_done t;
    Ldv_obs.counter "tx.rollback"

let guard_ddl t what =
  if t.current <> 0 then
    Errors.unsupported "%s is not allowed inside a transaction" what

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                           *)

let rec exec_ast t (stmt : Sql_ast.statement) : exec_result =
  match stmt with
  | Sql_ast.Select s ->
    ignore (tick t);
    Rows (run_select t s)
  | Sql_ast.Provenance s ->
    ignore (tick t);
    Rows (run_provenance t s)
  | Sql_ast.Insert { table; columns; source } ->
    Affected (run_insert t ~table ~columns ~source)
  | Sql_ast.Update { table; sets; where } ->
    Affected (run_update t ~table ~sets ~where)
  | Sql_ast.Delete { table; where } -> Affected (run_delete t ~table ~where)
  | Sql_ast.Create_table { table; columns } ->
    guard_ddl t "CREATE TABLE";
    ignore (tick t);
    let schema =
      Schema.of_list (List.map (fun (n, ty) -> Schema.column n ty) columns)
    in
    let tbl = Catalog.create_table t.catalog ~name:table ~schema in
    (* a sibling session may hold an open transaction: the fresh table
       must track hot rids from its first write *)
    if Hashtbl.length t.txs > 0 then Table.note_tx_open tbl;
    Ddl_done
  | Sql_ast.Drop_table table ->
    guard_ddl t "DROP TABLE";
    ignore (tick t);
    Catalog.drop_table t.catalog table;
    Ddl_done
  | Sql_ast.Create_index { index; table; column; ordered } ->
    guard_ddl t "CREATE INDEX";
    ignore (tick t);
    Catalog.create_index ~ordered t.catalog ~index ~table ~column;
    Ddl_done
  | Sql_ast.Drop_index index ->
    guard_ddl t "DROP INDEX";
    ignore (tick t);
    Catalog.drop_index t.catalog index;
    Ddl_done
  | Sql_ast.Explain inner -> Rows (explain t inner)
  | Sql_ast.Begin_tx ->
    ignore (tick t);
    ignore (begin_tx t);
    Ddl_done
  | Sql_ast.Commit_tx ->
    ignore (tick t);
    commit_tx t;
    Ddl_done
  | Sql_ast.Rollback_tx ->
    ignore (tick t);
    rollback_tx t;
    Ddl_done

(** EXPLAIN: a one-row result describing the physical plan, with the cost
    model's estimates appended for SELECT bodies; UPDATE and DELETE show
    the access path they read their rows through. *)
and explain t (stmt : Sql_ast.statement) : Executor.result =
  let describe_select s =
    let node = plan t s in
    Printf.sprintf "%s cost=%.1f rows=%.1f" (Planner.describe node)
      (Planner.cost node) (Planner.est_rows node)
  in
  let describe_dml table where =
    Planner.describe
      (access_path (Catalog.find t.catalog table) (fst (resolve_where t where)))
  in
  let text =
    match stmt with
    | Sql_ast.Select s | Sql_ast.Provenance s -> describe_select s
    | Sql_ast.Insert { table; source = Sql_ast.Query q; _ } ->
      Printf.sprintf "insert(%s, %s)" table (describe_select q)
    | Sql_ast.Insert { table; _ } -> Printf.sprintf "insert(%s)" table
    | Sql_ast.Update { table; where; _ } ->
      Printf.sprintf "update(%s)" (describe_dml table where)
    | Sql_ast.Delete { table; where } ->
      Printf.sprintf "delete(%s)" (describe_dml table where)
    | _ -> "ddl"
  in
  { Executor.schema = Schema.of_list [ Schema.column "plan" Value.Tstr ];
    rows =
      [ { Executor.values = [| Value.Str text |]; ann = Annotation.one } ] }

(* Public execution entry points run under this database's ambient MVCC
   context (shadowing the raw definitions above): the executor learns the
   viewing transaction and whether any transaction is open at all. Planning
   reads too — it evaluates uncorrelated subqueries. *)
let plan t s = with_tx_context t (fun () -> plan t s)
let run_select_plan t s = with_tx_context t (fun () -> run_select_plan t s)
let run_select t s = with_tx_context t (fun () -> run_select t s)
let run_provenance t s = with_tx_context t (fun () -> run_provenance t s)

let run_insert t ~table ~columns ~source =
  with_tx_context t (fun () -> run_insert t ~table ~columns ~source)

let run_update t ~table ~sets ~where =
  with_tx_context t (fun () -> run_update t ~table ~sets ~where)

let run_delete t ~table ~where =
  with_tx_context t (fun () -> run_delete t ~table ~where)

(* The overhead ledger's Exec phase covers the whole statement body. The
   Plan/Exec frames nested inside it (a SELECT's planning and execution,
   any statement's subqueries) attribute exclusively, and UPDATE/DELETE
   read their rows through the executor's scan leaf, which opens no frame
   of its own, so nothing double-counts. *)
let exec_ast t stmt =
  Ldv_obs.Ledger.time Ldv_obs.Ledger.Exec (fun () ->
      with_tx_context t (fun () -> exec_ast t stmt))

let parse (sql : string) : Sql_ast.statement =
  Ldv_obs.Ledger.time Ldv_obs.Ledger.Parse (fun () -> Sql_parser.parse sql)

let exec t (sql : string) : exec_result = exec_ast t (parse sql)

(** Run a script of semicolon-separated statements, returning the last
    result. *)
let exec_script t (sql : string) : exec_result =
  match Sql_parser.parse_script sql with
  | [] -> Ddl_done
  | stmts -> List.fold_left (fun _ stmt -> exec_ast t stmt) Ddl_done stmts

(** Convenience: run a query and require rows back. *)
let query t (sql : string) : Executor.result =
  match exec t sql with
  | Rows r -> r
  | Affected _ | Ddl_done ->
    Errors.unsupported "query expected a SELECT statement"

(** Convenience: run a DML statement and require an affected-count back. *)
let dml t (sql : string) : dml_info =
  match exec t sql with
  | Affected info -> info
  | Rows _ | Ddl_done -> Errors.unsupported "dml expected a DML statement"

(** Bulk-load rows directly into a table (bypassing the parser), as TPC-H
    dbgen does. Advances the clock once for the whole batch. *)
let bulk_insert t ~table (rows : Value.t array list) : Tid.t list =
  let tbl = Catalog.find t.catalog table in
  let clock = tick t in
  List.map (fun row -> (Table.insert tbl ~clock row).Table.tid) rows

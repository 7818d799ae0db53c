(** The Perm-style provenance interface over MiniDB.

    Perm rewrites a query marked with the [PROVENANCE] keyword so that each
    result tuple comes back together with the input tuples it depends on
    (its Lineage). MiniDB's executor propagates annotations natively, so
    the "rewrite" here consists of running the query with annotation
    collection and exposing the per-row lineage — same observable
    behaviour, same extra cost proportional to provenance size. *)

open Minidb

type provenance_row = {
  values : Value.t array;
  lineage : Tid.Set.t;  (** Lin(Q, t) for this result row *)
  witnesses : Tid.Set.t list Lazy.t;
      (** why-provenance: one witness per derivation. Lazy: computing
          witness sets for a large aggregate is expensive and the audit
          path never needs them. *)
  derivations : int Lazy.t;  (** bag multiplicity under N[X] *)
}

type provenance_result = {
  schema : Schema.t;
  rows : provenance_row list;
  read_tables : string list;  (** base tables the query scanned *)
}

(** Execute [SELECT ...] and return rows with their lineage.

    This is the moral equivalent of prefixing the query with Perm's
    [PROVENANCE] keyword: it costs a provenance-computing execution, which
    is what the paper's server-included audit pays on every query. The
    query runs through {!Database}, so it reads under the ambient
    session's transaction context and its subqueries are evaluated, with
    their conservative provenance. *)
let query_lineage (db : Database.t) (sql : string) : provenance_result =
  match Sql_parser.parse sql with
  | Sql_ast.Select s | Sql_ast.Provenance s ->
    ignore (Database.tick db);
    let plan, result = Database.run_select_plan db s in
    { schema = result.Executor.schema;
      rows =
        List.map
          (fun (r : Executor.arow) ->
            { values = r.Executor.values;
              lineage = Annotation.lineage r.Executor.ann;
              witnesses = lazy (Annotation.why r.Executor.ann);
              derivations = lazy (Annotation.derivation_count r.Executor.ann) })
          result.Executor.rows;
      read_tables = Planner.base_tables plan }
  | _ -> Errors.unsupported "query_lineage expects a SELECT statement"

(** Union of all rows' lineage: every tuple version the query actually
    used. *)
let total_lineage (r : provenance_result) : Tid.Set.t =
  List.fold_left
    (fun acc row -> Tid.Set.union acc row.lineage)
    Tid.Set.empty r.rows

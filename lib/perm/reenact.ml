(** GProM-style reenactment of update operations (§VII-B).

    The provenance of a modification must be captured *before* it executes,
    because the pre-versions it reads disappear afterwards. GProM reenacts
    the update as a query; we build exactly that query — a SELECT of the
    rows the modification will touch — and run it with lineage collection
    under the statement's transaction context, so it reads the same
    pre-state the modification will; the caller (the interceptor) then
    applies the modification. The reenactment query's cost is the extra
    audit overhead the paper reports for the Update step of Figure 7a. *)

open Minidb

type reenactment = {
  reenact_sql : string;  (** the SELECT that simulates the modification *)
  pre_state : Provenance_sql.provenance_result;
      (** affected rows and their lineage before the modification ran *)
}

(** Build the reenactment SELECT for an UPDATE or DELETE statement. *)
let reenactment_query (stmt : Sql_ast.statement) : string =
  match stmt with
  | Sql_ast.Update { table; where; _ } | Sql_ast.Delete { table; where } ->
    let sel =
      Sql_ast.simple_select ?where
        ~from:[ Sql_ast.from_table table ]
        [ Sql_ast.Star ]
    in
    Pretty.statement_to_string (Sql_ast.Select sel)
  | Sql_ast.Insert _ ->
    Errors.unsupported "inserts read no pre-state; no reenactment needed"
  | _ -> Errors.unsupported "reenactment applies to UPDATE and DELETE only"

(** Capture the pre-state of a modification by reenacting it as a query. *)
let capture (db : Database.t) (stmt : Sql_ast.statement) : reenactment =
  let reenact_sql = reenactment_query stmt in
  { reenact_sql; pre_state = Provenance_sql.query_lineage db reenact_sql }

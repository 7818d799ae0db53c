(** GProM-style reenactment of update operations (§VII-B): the provenance
    of a modification is captured *before* it executes by reenacting it as
    a query over the pre-state. *)

open Minidb

type reenactment = {
  reenact_sql : string;  (** the SELECT simulating the modification *)
  pre_state : Provenance_sql.provenance_result;
      (** affected rows and their lineage before the modification ran *)
}

(** The reenactment SELECT for an UPDATE or DELETE.
    @raise Errors.Db_error for other statements. *)
val reenactment_query : Sql_ast.statement -> string

(** Capture the pre-state of a modification without executing it. *)
val capture : Database.t -> Sql_ast.statement -> reenactment

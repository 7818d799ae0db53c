(** The Perm-style provenance interface over MiniDB: run a query with
    lineage collection (the moral equivalent of the [PROVENANCE] keyword
    rewrite) and expose per-row provenance. *)

open Minidb

type provenance_row = {
  values : Value.t array;
  lineage : Tid.Set.t;  (** Lin(Q, t) for this result row *)
  witnesses : Tid.Set.t list Lazy.t;  (** why-provenance (lazy: expensive) *)
  derivations : int Lazy.t;  (** bag multiplicity under N[X] *)
}

type provenance_result = {
  schema : Schema.t;
  rows : provenance_row list;
  read_tables : string list;  (** base tables the query scanned *)
}

(** Execute a SELECT (or [PROVENANCE SELECT]) with lineage collection,
    through {!Database}: under the ambient session's transaction context,
    with subqueries evaluated.
    @raise Errors.Db_error on non-SELECT statements. *)
val query_lineage : Database.t -> string -> provenance_result

(** Union of all rows' lineage. *)
val total_lineage : provenance_result -> Tid.Set.t

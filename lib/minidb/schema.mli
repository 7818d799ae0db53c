(** Table schemas and column resolution.

    A schema is an ordered array of columns. Columns carry an optional
    qualifier (table name or alias) so SELECTs over joins can resolve
    qualified references such as [o.o_orderkey]. Names are normalized to
    lowercase. *)

type column = {
  qualifier : string option;
  name : string;
  ty : Value.ty;
}

type t = column array

val column : ?qualifier:string -> string -> Value.ty -> column

(** @raise Errors.Db_error [Duplicate_column] on duplicates. *)
val of_list : column list -> t

val arity : t -> int

(** Re-qualify every column with alias [q] (FROM-clause aliasing). *)
val with_qualifier : string -> t -> t

(** Concatenate schemas for a join result. *)
val append : t -> t -> t

(** Resolve a possibly-qualified column reference to its index.
    @raise Errors.Db_error [Unknown_column] or [Ambiguous_column]. *)
val resolve : t -> ?qualifier:string -> string -> int

val find_opt : t -> ?qualifier:string -> string -> int option

val pp_column : Format.formatter -> column -> unit
val pp : Format.formatter -> t -> unit

(** Validate a row against the schema, coercing where allowed (ints widen
    to float columns).
    @raise Errors.Db_error on arity or type mismatches. *)
val coerce_row : t -> Value.t array -> Value.t array

(** As {!coerce_row}, but widens in place and returns the row itself: for
    a row array that nothing else holds. *)
val coerce_row_in_place : t -> Value.t array -> Value.t array

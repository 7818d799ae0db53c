(** The catalog: a named collection of tables and their indexes. Names are
    case-insensitive (normalized to lowercase). *)

type t

val create : unit -> t

(** @raise Errors.Db_error [Duplicate_table]. *)
val create_table : t -> name:string -> schema:Schema.t -> Table.t

(** @raise Errors.Db_error [Unknown_table]. *)
val drop_table : t -> string -> unit

(** @raise Errors.Db_error [Unknown_table]. *)
val find : t -> string -> Table.t

val find_opt : t -> string -> Table.t option
val mem : t -> string -> bool

val table_names : t -> string list
val iter : t -> (Table.t -> unit) -> unit

(** Create a named index on [table].[column], registered for DROP INDEX;
    [ordered] selects the range-capable sorted index over the default
    hash index.
    @raise Errors.Db_error on duplicates or unknown tables/columns. *)
val create_index :
  ?ordered:bool -> t -> index:string -> table:string -> column:string -> unit

(** @raise Errors.Db_error when the index is unknown. *)
val drop_index : t -> string -> unit

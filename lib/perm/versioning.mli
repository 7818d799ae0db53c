(** Tuple-version bookkeeping: the paper's [prov_rowid]/[prov_v] schema
    extension, realized as metadata over MiniDB's native versioning. Its
    [prov_usedby]/[prov_p] columns are answered by the interceptor's
    statement log. *)

open Minidb

type t

val create : Database.t -> t

(** Mark a table as provenance-enabled (the paper's lazy first-access
    schema extension); returns [true] the first time. *)
val enable_table : t -> string -> bool

val enabled_tables : t -> string list

(** Stored values of a tuple version, if it exists in history. *)
val lookup_version : t -> Tid.t -> Value.t array option

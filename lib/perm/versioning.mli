(** Tuple-version bookkeeping: the paper's [prov_rowid]/[prov_v]/
    [prov_usedby]/[prov_p] schema extension, realized as metadata over
    MiniDB's native versioning. *)

open Minidb

type usage = { used_by_qid : int; used_by_pid : int; at : int }

type t

val create : Database.t -> t

(** Mark a table as provenance-enabled (the paper's lazy first-access
    schema extension); returns [true] the first time. *)
val enable_table : t -> string -> bool

val enabled_tables : t -> string list

(** Record that the versions a statement read were used by statement
    [qid] of process [pid]: one record per statement. *)
val record_usage : t -> Lineage.t -> qid:int -> pid:int -> at:int -> unit

(** The statements that used [tid], oldest first. *)

val usages_of : t -> Tid.t -> usage list
val used_tids : t -> Tid.t list

(** Stored values of a tuple version, if it exists in history. *)
val lookup_version : t -> Tid.t -> Value.t array option

(** Current live version of a row, if any. *)
val live_version : t -> table:string -> rid:int -> Tid.t option

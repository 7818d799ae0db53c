(** Tuple version identifiers.

    A stored tuple version is identified by [(table, rid, version)]:
    [rid] is the stable row identity (the paper's [prov_rowid]) and
    [version] is the logical timestamp of the write that produced this
    version (the paper's [prov_v]). These identifiers are the provenance
    variables of the annotation semiring and the DB entity ids of the
    combined execution trace. *)

type t = private { table : string; rid : int; version : int }

(** [make ~table ~rid ~version] normalizes [table] to lowercase. A name
    that is already lowercase is kept, not copied. *)
val make : table:string -> rid:int -> version:int -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** Renders as ["table:rid@version"]. *)
val to_string : t -> string

(** Parses the [to_string] rendering; [None] on malformed input. *)
val of_string : string -> t option

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

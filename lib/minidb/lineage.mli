(** Packed lineage: a set of stored tuple versions, held per table as a
    sorted, deduplicated [int array] of packed [(rid, version)] ids.

    A version packs into one native int as
    [((rid - 1) lsl 36) lor version]. Stored rids run over
    [1 .. Table.max_rid] = [1 .. 2^26], so [rid - 1] takes 26 bits and
    the version the low 36: every packed id of a stored version is a
    non-negative int, and packed ids sort exactly as [Tid.compare] orders
    the versions of one table. Tables are kept in name order, so iterating
    a lineage visits its versions in [Tid.Set.elements] order.

    This is the one lineage representation the audit path carries, from
    the circuit walk ({!Annotation.lineage}) through the statement log,
    the slice and the trace builder; [Tid.t] appears only where an
    identifier is rendered. *)

type t

(** {2 Packed ids} *)

(** The highest version a packed id holds: [2^36 - 1]. *)
val max_version : int

(** [pack ~rid ~version]: requires [0 <= version <= max_version] and
    [rid - 1 < 2^26]. *)
val pack : rid:int -> version:int -> int

val rid : int -> int
val version : int -> int

(** {2 Sets} *)

val empty : t
val is_empty : t -> bool
val cardinal : t -> int
val singleton : Tid.t -> t
val of_tids : Tid.t list -> t
val of_set : Tid.Set.t -> t

(** [of_packed tables]: one entry per table, its packed ids in any order
    and possibly repeated. Takes ownership of the arrays. *)
val of_packed : (string * int array) list -> t

val mem : Tid.t -> t -> bool

(** The tables holding at least one version, in name order. *)
val tables : t -> string list

(** [iter_tables f l] calls [f table ids] per table in name order, [ids]
    ascending. The array is shared with [l] and must not be modified. *)
val iter_tables : (string -> int array -> unit) -> t -> unit

(** Versions in [Tid.compare] order; makes one [Tid.t] per version. *)
val elements : t -> Tid.t list
val to_set : t -> Tid.Set.t

val union : t -> t -> t

(** Union of many: per table, one merge of two arrays, or one
    concatenation and one sort-and-dedup pass over more — never a fold
    of two-way merges. *)
val union_all : t list -> t

(** [diff a b]: the versions of [a] not in [b]. *)
val diff : t -> t -> t

(** {2 Building} *)

(** Per-table int buffers that a walk appends versions into, sorted and
    deduplicated once by [build]. Builders reuse one scratch area, so a
    walk allocates little besides its result; call [build] on every
    builder. *)
type builder

val builder : unit -> builder
val add : builder -> Tid.t -> unit
val build : builder -> t

(** Hash table keyed by packed id. *)
module Tbl : Hashtbl.S with type key = int

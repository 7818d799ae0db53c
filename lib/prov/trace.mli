(** Execution traces (Definition 2): directed graphs of model-typed
    activity/entity nodes whose edges carry time-interval annotations.
    Edge direction follows information flow ([file -> process] for reads,
    [process -> file] for writes, [tuple -> statement] for inputs,
    [statement -> tuple] for results).

    Traces also store direct data dependencies between entities of the
    same model (Definition 7's lineage facts are registered explicitly;
    Definition 8's blackbox dependencies are implied by process paths).

    Nodes are stored at dense integer indices, assigned in insertion
    order; string ids are resolved once, at the API boundary. Hot
    builders resolve each node with {!index_of} and then add edges and
    dependencies by index; the string-keyed functions are wrappers that
    run the same checks. *)

type node = {
  id : string;
  node_type : string;
  kind : Model.node_kind;
  label : string;
  attrs : (string * string) list;
}

type edge = { elabel : string; src : string; dst : string; time : Interval.t }

type t

val create : Model.t -> t
val model : t -> Model.t

val find_node : t -> string -> node option

(** @raise Invalid_argument on unknown node ids. *)
val node_exn : t -> string -> node

val mem_node : t -> string -> bool

(** Idempotent for an existing node of the same type.
    @raise Invalid_argument on types outside the model, or on re-adding an
    id with a different type. *)
val add_node :
  t ->
  ?label:string ->
  ?attrs:(string * string) list ->
  id:string ->
  node_type:string ->
  unit ->
  node

(** The index of a node.
    @raise Invalid_argument on unknown node ids. *)
val index_of : t -> string -> int

(** @raise Invalid_argument when the edge type is not admissible between
    the endpoint node types, or on unknown node ids. *)
val add_edge :
  t -> label:string -> src:string -> dst:string -> time:Interval.t -> edge

(** [add_edge] on node indices.
    @raise Invalid_argument as [add_edge], and on unknown indices. *)
val add_edge_ix :
  t -> label:string -> src:int -> dst:int -> time:Interval.t -> edge

(** Register that entity [later] directly depends on entity [earlier]
    (both must be entities). Idempotent per pair.
    @raise Invalid_argument on non-entity or unknown endpoints. *)
val add_dependency : t -> later:string -> earlier:string -> unit

(** [add_dependency] on node indices.
    @raise Invalid_argument as [add_dependency], and on unknown indices. *)
val add_dependency_ix : t -> later:int -> earlier:int -> unit

val direct_deps_of : t -> string -> string list
val has_direct_dep : t -> later:string -> earlier:string -> bool

val in_edges : t -> string -> edge list
val out_edges : t -> string -> edge list

val nodes : t -> node list
val edges : t -> edge list

val node_count : t -> int
val edge_count : t -> int

val entities : t -> node list
val activities : t -> node list

(** State of a node at time [at] (Definition 10): sources of all incoming
    interactions that began no later than [at]. *)
val state : t -> string -> at:int -> string list

(** Line-oriented serialization; embedded in packages. *)
val serialize : t -> string

(** @raise Invalid_argument on malformed input. *)
val deserialize : Model.t -> string -> t

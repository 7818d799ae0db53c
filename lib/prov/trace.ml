(** Execution traces (Definition 2).

    A trace is a directed graph whose nodes are instances of the model's
    activity/entity types and whose edges carry time-interval annotations.
    Edge direction follows information flow: [file -> process] for reads,
    [process -> file] for writes, [tuple -> statement] for statement inputs,
    [statement -> tuple] for results.

    Traces also store *direct data dependencies* between entities of the
    same model (Definitions 7 and 8 are instances): for the Lineage model
    these are registered explicitly from the DB's lineage facts; for the
    blackbox model they are implied by process paths and need not be
    stored. *)

type node = {
  id : string;
  node_type : string;  (** one of the model's activity/entity types *)
  kind : Model.node_kind;
  label : string;  (** human-readable display label *)
  attrs : (string * string) list;
}

type edge = { elabel : string; src : string; dst : string; time : Interval.t }

(* A dependency pair packed into one int: [later] in the high bits,
   [earlier] in the low 31. *)
let dep_key ~later ~earlier = (later lsl 31) lor earlier

module Pair_tbl = Hashtbl.Make (Int)

(* Nodes live at dense integer indices (in insertion order); string ids
   exist only at the API boundary, resolved once through [index]. *)
type t = {
  model : Model.t;
  index : (string, int) Hashtbl.t;
      (** id -> node index. Created with the same size and filled in the
          same order as an id-keyed node table, so iterating it yields the
          order [nodes] has always had. *)
  mutable node_at : node array;
  mutable out_adj : edge list array;  (** newest first *)
  mutable in_adj : edge list array;  (** newest first *)
  mutable deps_at : int list array;
      (** later entity -> earlier entities it directly depends on, newest
          first *)
  mutable dep_owners : int list;
      (** entities with dependencies, newest first by first dependency *)
  dep_seen : unit Pair_tbl.t;
  mutable n_nodes : int;
  mutable edges : edge list;  (** newest first *)
  mutable n_edges : int;
}

let initial_capacity = 256

let dummy_node =
  { id = ""; node_type = ""; kind = Model.Entity; label = ""; attrs = [] }

let create model =
  { model;
    index = Hashtbl.create initial_capacity;
    node_at = Array.make initial_capacity dummy_node;
    out_adj = Array.make initial_capacity [];
    in_adj = Array.make initial_capacity [];
    deps_at = Array.make initial_capacity [];
    dep_owners = [];
    dep_seen = Pair_tbl.create 64;
    n_nodes = 0;
    edges = [];
    n_edges = 0 }

let model t = t.model

let find_node t id =
  match Hashtbl.find_opt t.index id with
  | Some ix -> Some t.node_at.(ix)
  | None -> None

let index_of t id =
  match Hashtbl.find_opt t.index id with
  | Some ix -> ix
  | None -> invalid_arg (Printf.sprintf "Trace: unknown node %S" id)

let node_exn t id = t.node_at.(index_of t id)
let mem_node t id = Hashtbl.mem t.index id

let check_index t fn ix =
  if ix < 0 || ix >= t.n_nodes then
    invalid_arg (Printf.sprintf "Trace.%s: unknown node index %d" fn ix)

let grow t =
  let cap = 2 * Array.length t.node_at in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n_nodes;
    b
  in
  t.node_at <- extend t.node_at dummy_node;
  t.out_adj <- extend t.out_adj [];
  t.in_adj <- extend t.in_adj [];
  t.deps_at <- extend t.deps_at []

let add_node t ?(label = "") ?(attrs = []) ~id ~node_type () =
  match Model.kind_of t.model node_type with
  | None ->
    invalid_arg
      (Printf.sprintf "Trace.add_node: type %S not in model %s" node_type
         t.model.Model.name)
  | Some kind ->
    (match Hashtbl.find_opt t.index id with
    | Some ix ->
      let existing = t.node_at.(ix) in
      if not (String.equal existing.node_type node_type) then
        invalid_arg
          (Printf.sprintf "Trace.add_node: node %S re-added with type %S" id
             node_type);
      existing
    | None ->
      let label = if label = "" then id else label in
      let n = { id; node_type; kind; label; attrs } in
      if t.n_nodes = Array.length t.node_at then grow t;
      let ix = t.n_nodes in
      t.node_at.(ix) <- n;
      t.n_nodes <- ix + 1;
      Hashtbl.replace t.index id ix;
      n)

let add_edge_ix t ~label ~src ~dst ~time =
  check_index t "add_edge_ix" src;
  check_index t "add_edge_ix" dst;
  let s = t.node_at.(src) and d = t.node_at.(dst) in
  if not (Model.edge_allowed t.model ~label ~src:s.node_type ~dst:d.node_type)
  then
    invalid_arg
      (Printf.sprintf
         "Trace.add_edge: edge %S from type %S to type %S not allowed" label
         s.node_type d.node_type);
  let e = { elabel = label; src = s.id; dst = d.id; time } in
  t.edges <- e :: t.edges;
  t.n_edges <- t.n_edges + 1;
  t.out_adj.(src) <- e :: t.out_adj.(src);
  t.in_adj.(dst) <- e :: t.in_adj.(dst);
  e

let add_edge t ~label ~src ~dst ~time =
  add_edge_ix t ~label ~src:(index_of t src) ~dst:(index_of t dst) ~time

let add_dependency_ix t ~later ~earlier =
  check_index t "add_dependency_ix" later;
  check_index t "add_dependency_ix" earlier;
  if
    t.node_at.(later).kind <> Model.Entity
    || t.node_at.(earlier).kind <> Model.Entity
  then invalid_arg "Trace.add_dependency: both nodes must be entities";
  let key = dep_key ~later ~earlier in
  if not (Pair_tbl.mem t.dep_seen key) then begin
    Pair_tbl.replace t.dep_seen key ();
    (match t.deps_at.(later) with
    | [] -> t.dep_owners <- later :: t.dep_owners
    | _ :: _ -> ());
    t.deps_at.(later) <- earlier :: t.deps_at.(later)
  end

(** Register a direct data dependency: entity [later] depends on entity
    [earlier] (both must be entities of the same sub-model). *)
let add_dependency t ~later ~earlier =
  match (Hashtbl.find_opt t.index later, Hashtbl.find_opt t.index earlier) with
  | Some later, Some earlier -> add_dependency_ix t ~later ~earlier
  | _ -> invalid_arg "Trace.add_dependency: unknown node"

let direct_deps_of t id =
  match Hashtbl.find_opt t.index id with
  | Some ix -> List.map (fun e -> t.node_at.(e).id) t.deps_at.(ix)
  | None -> []

let has_direct_dep t ~later ~earlier =
  match (Hashtbl.find_opt t.index later, Hashtbl.find_opt t.index earlier) with
  | Some later, Some earlier -> Pair_tbl.mem t.dep_seen (dep_key ~later ~earlier)
  | _ -> false

let in_edges t id =
  match Hashtbl.find_opt t.index id with Some ix -> t.in_adj.(ix) | None -> []

let out_edges t id =
  match Hashtbl.find_opt t.index id with Some ix -> t.out_adj.(ix) | None -> []

let nodes t = Hashtbl.fold (fun _ ix acc -> t.node_at.(ix) :: acc) t.index []
let edges t = List.rev t.edges
let node_count t = t.n_nodes
let edge_count t = t.n_edges

let entities t = List.filter (fun n -> n.kind = Model.Entity) (nodes t)
let activities t = List.filter (fun n -> n.kind = Model.Activity) (nodes t)

(** State of a node at time [at] (Definition 10): sources of all incoming
    interactions that began no later than [at]. *)
let state t id ~at =
  List.filter_map
    (fun e -> if Interval.b e.time <= at then Some e.src else None)
    (in_edges t id)

(* ------------------------------------------------------------------ *)
(* Serialization: a line-oriented format with one node/edge/dep per
   line. Sufficient for embedding traces in packages.                  *)

let escape s =
  String.concat "\\t" (String.split_on_char '\t' s)
  |> String.split_on_char '\n'
  |> String.concat "\\n"

let unescape s =
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    if s.[!i] = '\\' && !i + 1 < n then begin
      (match s.[!i + 1] with
      | 't' -> Buffer.add_char buf '\t'
      | 'n' -> Buffer.add_char buf '\n'
      | c ->
        Buffer.add_char buf '\\';
        Buffer.add_char buf c);
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let serialize t : string =
  let buf = Buffer.create 4096 in
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "N\t%s\t%s\t%s" (escape n.id) (escape n.node_type)
           (escape n.label));
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf (Printf.sprintf "\t%s=%s" (escape k) (escape v)))
        n.attrs;
      Buffer.add_char buf '\n')
    (nodes t |> List.sort (fun a b -> String.compare a.id b.id));
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "E\t%s\t%s\t%s\t%d\t%d\n" (escape e.elabel)
           (escape e.src) (escape e.dst) (Interval.b e.time)
           (Interval.e e.time)))
    (edges t);
  (* dependency groups in the iteration order of an id-keyed table of the
     same size filled in first-dependency order: the format's historical
     order, kept so serialized traces stay byte-identical *)
  let owners = Hashtbl.create 64 in
  List.iter
    (fun ix -> Hashtbl.replace owners t.node_at.(ix).id ix)
    (List.rev t.dep_owners);
  Hashtbl.iter
    (fun later ix ->
      List.iter
        (fun earlier ->
          Buffer.add_string buf
            (Printf.sprintf "D\t%s\t%s\n" (escape later)
               (escape t.node_at.(earlier).id)))
        t.deps_at.(ix))
    owners;
  Buffer.contents buf

let deserialize (model : Model.t) (data : string) : t =
  let t = create model in
  String.split_on_char '\n' data
  |> List.iter (fun line ->
         if String.length line = 0 then ()
         else
           match String.split_on_char '\t' line with
           | "N" :: id :: node_type :: label :: attrs ->
             let attrs =
               List.filter_map
                 (fun kv ->
                   match String.index_opt kv '=' with
                   | None -> None
                   | Some i ->
                     Some
                       ( unescape (String.sub kv 0 i),
                         unescape
                           (String.sub kv (i + 1) (String.length kv - i - 1))
                       ))
                 attrs
             in
             ignore
               (add_node t ~label:(unescape label) ~attrs ~id:(unescape id)
                  ~node_type:(unescape node_type) ())
           | [ "E"; label; src; dst; b; e ] ->
             ignore
               (add_edge t ~label:(unescape label) ~src:(unescape src)
                  ~dst:(unescape dst)
                  ~time:(Interval.make (int_of_string b) (int_of_string e)))
           | [ "D"; later; earlier ] ->
             add_dependency t ~later:(unescape later)
               ~earlier:(unescape earlier)
           | _ ->
             invalid_arg
               (Printf.sprintf "Trace.deserialize: malformed line %S" line));
  t

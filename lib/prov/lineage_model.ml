(** The Lineage DB provenance model P_Lin (Definition 4).

    Activities are SQL statements (query, insert, update, delete); entities
    are tuple versions. Edge types: [hasRead : tuple -> statement] and
    [hasReturned : statement -> tuple]. Data dependencies between tuples
    (Definition 7) are registered as direct dependencies on the trace from
    the DB's lineage facts. *)

type stmt_kind = Query | Insert | Update | Delete

let stmt_type = function
  | Query -> "query"
  | Insert -> "insert"
  | Update -> "update"
  | Delete -> "delete"

let tuple_type = "tuple"

let model : Model.t =
  let stmts = [ "query"; "insert"; "update"; "delete" ] in
  Model.make ~name:"lineage" ~activities:stmts ~entities:[ tuple_type ]
    ~edge_types:
      (List.concat_map
         (fun s ->
           [ Model.edge_type "hasRead" ~src:tuple_type ~dst:s;
             Model.edge_type "hasReturned" ~src:s ~dst:tuple_type ])
         stmts)

let stmt_id qid = "stmt:" ^ string_of_int qid
let tuple_id (tid : Minidb.Tid.t) = "tuple:" ^ Minidb.Tid.to_string tid

(** Recover the DB tuple identifier from a trace node id. *)
let tid_of_node_id (id : string) : Minidb.Tid.t option =
  if String.length id > 6 && String.sub id 0 6 = "tuple:" then
    Minidb.Tid.of_string (String.sub id 6 (String.length id - 6))
  else None

(* The node [id] if it already exists with [node_type]; otherwise [add ()]
   creates it (or raises on a type clash), so labels and attributes are
   built only for new nodes. *)
let existing_or trace ~id ~node_type add =
  match Trace.find_node trace id with
  | Some n when String.equal n.Trace.node_type node_type -> n
  | _ -> add ()

let add_statement trace ~qid ~kind ~sql =
  let id = stmt_id qid and node_type = stmt_type kind in
  existing_or trace ~id ~node_type @@ fun () ->
  Trace.add_node trace ~id ~node_type
    ~label:("q" ^ string_of_int qid)
    ~attrs:[ ("qid", string_of_int qid); ("sql", sql) ]
    ()

let add_tuple trace (tid : Minidb.Tid.t) =
  let name = Minidb.Tid.to_string tid in
  let id = "tuple:" ^ name in
  existing_or trace ~id ~node_type:tuple_type @@ fun () ->
  Trace.add_node trace ~id ~node_type:tuple_type ~label:name
    ~attrs:
      [ ("table", tid.Minidb.Tid.table);
        ("rid", string_of_int tid.Minidb.Tid.rid);
        ("version", string_of_int tid.Minidb.Tid.version) ]
    ()

let has_read trace ~qid ~tid ~time =
  Trace.add_edge trace ~label:"hasRead" ~src:(tuple_id tid) ~dst:(stmt_id qid)
    ~time

let has_returned trace ~qid ~tid ~time =
  Trace.add_edge trace ~label:"hasReturned" ~src:(stmt_id qid)
    ~dst:(tuple_id tid) ~time

(** Register that result tuple [result] has input tuple [source] in its
    lineage (Definition 7's dependency edges). *)
let depends_on trace ~result ~source =
  Trace.add_dependency trace ~later:(tuple_id result) ~earlier:(tuple_id source)

(** Partial re-execution support (§II items (ii)/(iii), §VIII).

    Given a combined execution trace and a target output, [requirements]
    computes the backward slice: the processes, statements, files, and
    tuple versions that contributed to the target. [slim] then strips a
    server-included package down to exactly that slice — the package Bob
    needs when he only cares about one of Alice's outputs.

    The slice is conservative (trace reachability): everything the target
    could possibly depend on stays in. Replaying a slimmed package
    requires a program that performs only the sliced part of the work
    (the original closure cannot be cut mechanically in this simulation,
    just as a stripped-down binary cannot be synthesized from a full one
    in the paper's). *)

open Minidb

type requirement = {
  req_files : string list;  (** file paths in the backward slice *)
  req_tuples : Tid.Set.t;  (** stored tuple versions in the slice *)
  req_statements : int list;  (** qids of contributing statements *)
  req_processes : int list;  (** pids of contributing processes *)
}

let parse_prefixed ~prefix id =
  let n = String.length prefix in
  if String.length id > n && String.sub id 0 n = prefix then
    Some (String.sub id n (String.length id - n))
  else None

(** Backward slice from [target] (a trace node id, e.g.
    ["file:/app/out/results.csv"]), using the temporally-restricted
    inference of Definition 11: an input read *after* the target was
    produced is correctly excluded even when the same process read it. *)
let requirements (trace : Prov.Trace.t) ~(target : string) : requirement =
  let slice = Prov.Dependency.dependencies_of trace target in
  let in_slice = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_slice id ()) (target :: slice);
  (* contributing activities: producers of any slice entity, the processes
     running contributing statements, and their executed-chain ancestors *)
  let activities = Hashtbl.create 32 in
  let rec add_with_runners id =
    if not (Hashtbl.mem activities id) then begin
      Hashtbl.replace activities id ();
      List.iter
        (fun (e : Prov.Trace.edge) ->
          match e.Prov.Trace.elabel with
          | "run" | "executed" -> add_with_runners e.Prov.Trace.src
          | _ -> ())
        (Prov.Trace.in_edges trace id)
    end
  in
  Hashtbl.iter
    (fun entity () ->
      List.iter
        (fun (e : Prov.Trace.edge) ->
          let src = Prov.Trace.node_exn trace e.Prov.Trace.src in
          if src.Prov.Trace.kind = Prov.Model.Activity then
            add_with_runners src.Prov.Trace.id)
        (Prov.Trace.in_edges trace entity))
    in_slice;
  let files = ref [] and tuples = ref Tid.Set.empty in
  Hashtbl.iter
    (fun id () ->
      match parse_prefixed ~prefix:"file:" id with
      | Some path -> files := path :: !files
      | None -> (
        match Prov.Lineage_model.tid_of_node_id id with
        | Some tid ->
          if not (Dbclient.Interceptor.is_result_tid tid) then
            tuples := Tid.Set.add tid !tuples
        | None -> ()))
    in_slice;
  let statements = ref [] and processes = ref [] in
  Hashtbl.iter
    (fun id () ->
      match parse_prefixed ~prefix:"stmt:" id with
      | Some qid -> statements := int_of_string qid :: !statements
      | None -> (
        match parse_prefixed ~prefix:"proc:" id with
        | Some pid -> processes := int_of_string pid :: !processes
        | None -> ()))
    activities;
  { req_files = List.sort String.compare !files;
    req_tuples = !tuples;
    req_statements = List.sort compare !statements;
    req_processes = List.sort compare !processes }

(** Requirements computed against the package's own embedded trace. *)
let requirements_of_package (pkg : Package.t) ~target : requirement =
  requirements (Package.trace pkg) ~target

(** Strip a server-included package to the slice needed for the targets:
    file entries outside every target's backward slice are dropped, and
    the tuple subset is cut down to the union of required versions. The
    embedded trace is kept (it documents what was cut against what
    remains). *)
let slim (pkg : Package.t) (reqs : requirement list) : Package.t =
  if pkg.Package.kind <> Package.Server_included then
    invalid_arg "Partial.slim: only server-included packages can be slimmed";
  let keep_file path =
    List.exists (fun r -> List.mem path r.req_files) reqs
  in
  let keep_tuple tid =
    List.exists (fun r -> Tid.Set.mem tid r.req_tuples) reqs
  in
  let entries =
    List.filter (fun (e : Package.entry) -> keep_file e.Package.e_path)
      pkg.Package.entries
  in
  let db_subset =
    List.filter_map
      (fun (table, csv) ->
        let rows =
          List.filter
            (fun (rid, version, _) ->
              keep_tuple (Tid.make ~table ~rid ~version))
            (Csv.decode_versions csv)
        in
        if rows = [] then None
        else
          (* re-encode with the original header line *)
          match String.index_opt csv '\n' with
          | None -> None
          | Some i ->
            let buf = Buffer.create (String.length csv) in
            Buffer.add_substring buf csv 0 (i + 1);
            List.iter
              (fun (rid, version, values) ->
                Csv.add_row buf ~rid ~version values)
              rows;
            Some (table, Buffer.contents buf))
      pkg.Package.db_subset
  in
  { pkg with
    Package.entries;
    db_subset;
    metadata = pkg.Package.metadata @ [ ("slimmed", "true") ] }

let pp_requirement ppf (r : requirement) =
  Format.fprintf ppf "files=%d tuples=%d statements=%d processes=%d"
    (List.length r.req_files)
    (Tid.Set.cardinal r.req_tuples)
    (List.length r.req_statements)
    (List.length r.req_processes)

(** ldv-exec: re-executing packages (§VIII).

    [prepare] rebuilds the chroot-like environment from the package and
    initializes the DB side (this is Figure 7b's "Initialization" bar):

    - server-included: create the accessed tables, restore the relevant
      tuple subset from the packaged CSVs, tuple by tuple, then create
      the audit's indexes over it;
    - PTU: load the server's native data files (cheap bulk load);
    - server-excluded: nothing to restore — queue the recorded responses.

    [run] then re-executes the application with file syscalls resolving
    inside the package environment and DB calls redirected to the packaged
    server or to the recorded-response replayer. [verify] checks
    repeatability against the original audit: byte-identical output files
    and per-query result fingerprints. *)

open Minidb
module I = Dbclient.Interceptor

type prepared = {
  pkg : Package.t;
  kernel : Minios.Kernel.t;
  server : Dbclient.Server.t;
  session : I.t;
}

(* Run one packaged index line through the catalog: one backfill, and no
   clock tick, so the restored versions' stamps stay the audit's. A line
   that is not a CREATE INDEX, or names a table or column the package
   lacks (its schema section was lost, say), is skipped and counted. *)
let create_packaged_index (db : Database.t) (sql : string) =
  match Sql_parser.parse sql with
  | Sql_ast.Create_index { index; table; column; ordered } -> (
    try
      Catalog.create_index ~ordered (Database.catalog db) ~index ~table
        ~column
    with Errors.Db_error _ -> Ldv_obs.counter "replay.skipped_indexes")
  | _ | (exception Errors.Db_error _) ->
    Ldv_obs.counter "replay.skipped_indexes"

(* Run one packaged schema payload through the engine, but only when it is
   a CREATE TABLE of its own section's table: a checksum-valid package
   may still carry any statement there. Anything else — another
   statement, another table's name, a line that does not parse, a table
   created twice — is skipped and counted, as bad index lines are. *)
let create_packaged_table (db : Database.t) ~table (sql : string) =
  match Sql_parser.parse sql with
  | Sql_ast.Create_table { table = name; _ } as ddl
    when String.equal (String.lowercase_ascii name)
           (String.lowercase_ascii table) -> (
    try ignore (Database.exec_ast db ddl)
    with Errors.Db_error _ -> Ldv_obs.counter "replay.skipped_schemas")
  | _ | (exception Errors.Db_error _) ->
    Ldv_obs.counter "replay.skipped_schemas"

(** Rebuild the package environment and initialize its DB state. *)
let prepare (pkg : Package.t) : prepared =
  Ldv_obs.with_span
    ~attrs:[ ("kind", Package.kind_name pkg.Package.kind) ]
    "replay.prepare"
  @@ fun () ->
  let kernel = Minios.Kernel.create () in
  let vfs = Minios.Kernel.vfs kernel in
  Ldv_obs.with_span "replay.restore_files" (fun () ->
      List.iter
        (fun (e : Package.entry) ->
          match e.Package.e_content with
          | Some content -> Minios.Vfs.write vfs ~path:e.Package.e_path content
          | None -> ())
        pkg.Package.entries);
  let db = Database.create ~name:"package" () in
  let server = Dbclient.Server.attach db in
  Ldv_obs.with_span "replay.restore_db" (fun () ->
      match pkg.Package.kind with
      | Package.Server_included ->
        (* create accessed tables, then restore the relevant subset from CSV,
           tuple by tuple (the expensive initialization of Fig. 7b) *)
        List.iter
          (fun (table, ddl) -> create_packaged_table db ~table ddl)
          pkg.Package.db_schemas;
        List.iter
          (fun (table, csv) ->
            (* a table can be absent when its schema section was dropped
               during a partial restore; skip it rather than crash *)
            match Catalog.find_opt (Database.catalog db) table with
            | None -> Ldv_obs.counter "replay.skipped_tables"
            | Some tbl ->
              let rows = Csv.decode_versions csv in
              Database.sync_clock db ~at:(Table.restore_versions tbl rows);
              Ldv_obs.counter ~by:(List.length rows) "replay.restored_tuples")
          pkg.Package.db_subset;
        (* pin the cost model to the audit-time row counts: the restored
           database holds only the sliced subset, and replay re-plans, so
           order-sensitive plan decisions must see the recorded statistics *)
        List.iter
          (fun (table, rows) ->
            match Catalog.find_opt (Database.catalog db) table with
            | Some tbl -> Table.pin_row_stats tbl ~rows
            | None -> ())
          (Package.table_rows pkg);
        (* the audit's access paths, built once over the restored rows;
           every replica inherits them from the base backup *)
        List.iter
          (fun (_, lines) ->
            List.iter
              (fun sql -> if sql <> "" then create_packaged_index db sql)
              (String.split_on_char '\n' lines))
          pkg.Package.db_indexes
      | Package.Ptu_full ->
        (* bulk-load the server's own data files from the package *)
        List.iter
          (fun path ->
            match Minios.Vfs.content_bytes (Minios.Vfs.content vfs path) with
            | Some image ->
              Dbclient.Server.load_data_file server image;
              Ldv_obs.counter "replay.loaded_data_files"
            | None -> ())
          (Minios.Vfs.paths_under vfs (Dbclient.Server.data_dir server))
      | Package.Server_excluded -> ());
  let session =
    match pkg.Package.kind with
    | Package.Server_excluded ->
      I.create_replay ~kernel server pkg.Package.recording
    | Package.Server_included | Package.Ptu_full ->
      (* concurrent packages replay with the same snapshot-isolation rule
         the audit ran under, so each query sees the same versions *)
      let snapshot_reads = Package.schedule pkg <> None in
      I.create ~mode:I.Passthrough ~snapshot_reads ~kernel server
  in
  (* a package recorded against a replication cluster replays against an
     equally-shaped cluster, bootstrapped from the restored DB state, so
     every read routes to — and is answered by — the same node *)
  (match (pkg.Package.kind, Package.replication pkg) with
  | Package.Server_included, Some (replicas, staleness) ->
    Ldv_obs.with_span "replay.restore_cluster" @@ fun () ->
    let proc = Minios.Kernel.start_process kernel ~name:"minidb-leader" () in
    let leader =
      Dbclient.Durable.start kernel server ~pid:proc.Minios.Kernel.pid
    in
    I.attach_cluster session
      (Dbclient.Replication.create kernel ~leader ~replicas ~staleness ())
  | _ -> ());
  { pkg; kernel; server; session }

type run_result = {
  root_pid : int;
  session : I.t;  (** the primary session *)
  sessions : I.t list;  (** all sessions, primary first *)
  kernel : Minios.Kernel.t;
  out_files : (string * string) list;
  query_fingerprints : (int * string) list;
}

(** Re-execute the packaged application. The program is looked up in the
    registry under the package's app name unless overridden (partial
    re-execution / modified inputs use the override). A concurrent
    package (unless overridden) re-creates one session per recorded
    client and re-runs them all under the recorded scheduler seed, so the
    schedule, and with it every interleaving-dependent observation, is
    reproduced exactly: statement order, snapshot pins relative to
    concurrent commits, and the merged fingerprint stream. *)
let run ?(program : Minios.Program.program option) (p : prepared) : run_result =
  Ldv_obs.with_span
    ~attrs:[ ("kind", Package.kind_name p.pkg.Package.kind) ]
    "replay.run"
  @@ fun () ->
  let launch () =
    match (Package.schedule p.pkg, program) with
    | Some (seed, clients), None ->
      (* the recorded schedule names each client's program and binary,
         not its libraries *)
      Audit.launch_clients p.kernel p.session ~seed
        (List.map
           (fun (name, binary) ->
             { Audit.cl_name = name;
               cl_binary = binary;
               cl_libs = [];
               cl_program = Minios.Program.lookup name })
           clients)
    | _ ->
      Audit.launch_program p.kernel p.session
        ~binary:p.pkg.Package.app_binary ~name:p.pkg.Package.app_name
        (match program with
        | Some prog -> prog
        | None -> Minios.Program.lookup p.pkg.Package.app_name)
  in
  let tracer = Minios.Tracer.create () in
  Minios.Tracer.attach tracer p.kernel;
  let sessions, root_pid =
    Fun.protect
      ~finally:(fun () -> Minios.Tracer.detach p.kernel)
      (fun () -> Ldv_obs.with_span "replay.app" launch)
  in
  let out_files =
    Audit.written_files tracer ~exclude_pids:[] (Minios.Kernel.vfs p.kernel)
  in
  if Ldv_obs.enabled () then begin
    Ldv_obs.add_attr "prov.proc" (Printf.sprintf "proc:%d" root_pid);
    List.iter
      (fun (path, _) -> Ldv_obs.add_attr "prov.file" ("file:" ^ path))
      out_files
  end;
  { root_pid;
    session = p.session;
    sessions;
    kernel = p.kernel;
    out_files;
    query_fingerprints = Audit.fingerprints (Audit.merge_logs sessions) }

(** Prepare and run in one call. *)
let execute ?program (pkg : Package.t) : run_result =
  run ?program (prepare pkg)

(** Verify repeatability of a replay against the original audited run:
    every output file byte-identical, every query's result fingerprint
    equal. Returns the list of divergences (empty = repeatable), in a
    stable order: file problems sorted by path, then query problems
    sorted by qid. *)
let verify ~(audit : Audit.t) (r : run_result) : string list =
  Ldv_obs.with_span "replay.verify" @@ fun () ->
  let problems = ref [] in
  let push fmt = Format.kasprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun (path, original) ->
      match List.assoc_opt path r.out_files with
      | None -> push "output file %s was not produced by the replay" path
      | Some replayed ->
        if not (String.equal original replayed) then
          push "output file %s differs (%d vs %d bytes)" path
            (String.length original) (String.length replayed))
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       audit.Audit.out_files);
  let by_qid = List.sort (fun (a, _) (b, _) -> compare (a : int) b) in
  let original_fps = by_qid audit.Audit.query_fingerprints in
  let replayed_fps = by_qid r.query_fingerprints in
  if List.length original_fps <> List.length replayed_fps then
    push "query count differs: %d audited vs %d replayed"
      (List.length original_fps)
      (List.length replayed_fps)
  else
    List.iter2
      (fun (qid_a, fp_a) (qid_r, fp_r) ->
        if not (String.equal fp_a fp_r) then
          push "query %d/%d returned different results" qid_a qid_r)
      original_fps replayed_fps;
  (* cluster-served runs: every read must have been answered by the same
     node at replay as at audit time *)
  let routes stmts =
    List.filter_map
      (fun (s : I.stmt_event) ->
        if s.I.replica >= 0 then Some (s.I.qid, s.I.replica) else None)
      stmts
    |> List.sort compare
  in
  let audited_routes = routes (Audit.stmts audit) in
  let replayed_routes = routes (Audit.merge_logs r.sessions) in
  if List.length audited_routes <> List.length replayed_routes then
    push "replica-served read count differs: %d audited vs %d replayed"
      (List.length audited_routes)
      (List.length replayed_routes)
  else
    List.iter2
      (fun (qid_a, rep_a) (qid_r, rep_r) ->
        if qid_a <> qid_r || rep_a <> rep_r then
          push "query %d routed to replica %d at audit, %d/%d at replay"
            qid_a rep_a qid_r rep_r)
      audited_routes replayed_routes;
  (* interactive transactions: the replay must reproduce every
     commit/abort decision — same sessions, same per-session transaction
     ordinals, same outcomes (committed / rolled back / conflict-aborted /
     retried) *)
  let audited_txs = Audit.tx_outcomes (Audit.stmts audit) in
  let replayed_txs = Audit.tx_outcomes (Audit.merge_logs r.sessions) in
  if List.length audited_txs <> List.length replayed_txs then
    push "transaction count differs: %d audited vs %d replayed"
      (List.length audited_txs)
      (List.length replayed_txs)
  else
    List.iter2
      (fun (sid_a, n_a, o_a) (sid_r, n_r, o_r) ->
        if sid_a <> sid_r || n_a <> n_r || o_a <> o_r then
          push "transaction %d.%d %s at audit, but %d.%d %s at replay" sid_a
            n_a
            (Audit.tx_outcome_name o_a)
            sid_r n_r
            (Audit.tx_outcome_name o_r))
      audited_txs replayed_txs;
  List.rev !problems

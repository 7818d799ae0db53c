(** ldv-audit: run an application under combined OS+DB monitoring
    (§VII).

    The auditor wires together the ptrace-style tracer (OS side), the
    instrumented DB client session (DB side), and — for the server-included
    option — a traced DB server process. After the run it assembles the
    combined execution trace of Definition 6: the P_BB portion from the
    syscall stream, the P_Lin portion plus [run]/[readFromDb] cross edges
    from the statement log, and tuple-level direct dependencies from the
    recorded lineage. *)

open Minidb
module I = Dbclient.Interceptor

type packaging =
  | Included  (** LDV server-included: traced server + DB provenance *)
  | Excluded  (** LDV server-excluded: external server, recorded responses *)
  | Ptu_baseline
      (** the paper's PostgreSQL+PTU baseline: traced server, plain libpq —
          OS provenance only, full DB lands in the package *)

let packaging_name = function
  | Included -> "included"
  | Excluded -> "excluded"
  | Ptu_baseline -> "ptu"

(** One client of a concurrent audit: a program plus the identity the
    scheduler and the package need. *)
type client = {
  cl_name : string;  (** program-registry name *)
  cl_binary : string;
  cl_libs : string list;
  cl_program : Minios.Program.program;
}

(** The recorded schedule of a concurrent run — enough to re-create the
    identical interleaving at replay time. *)
type sched_info = {
  sched_seed : int;
  sched_clients : (string * string) list;  (** (registry name, binary) *)
}

type t = {
  packaging : packaging;
  kernel : Minios.Kernel.t;
  server : Dbclient.Server.t;
  tracer : Minios.Tracer.t;
  session : I.t;  (** the primary session (the only one, single-client) *)
  sessions : I.t list;  (** all sessions, primary first *)
  sched : sched_info option;  (** [Some] iff this was a concurrent run *)
  repl : (int * int) option;
      (** (replica count, staleness bound) when the run served reads from
          a replication cluster; the package records it, with the node
          that answered each read, so replay re-runs the cluster *)
  trace : Prov.Trace.t;
  app_name : string;  (** program-registry name *)
  app_binary : string;
  root_pid : int;
  server_pid : int option;
  out_files : (string * string) list;
      (** files the app wrote, with final contents (ground truth for
          replay verification) *)
  query_fingerprints : (int * string) list;
      (** qid -> digest of result rows, ground truth for verification *)
  start_rows : (string * int) list;
      (** per-table row counts captured before the run: packaged so replay
          can pin the cost model's statistics to the audit-time values *)
}

(* Per-table row counts of the audited database, captured before the
   program runs (the planner's replay-stable cardinality baseline). *)
let table_start_rows (server : Dbclient.Server.t) : (string * int) list =
  let catalog = Minidb.Database.catalog (Dbclient.Server.db server) in
  List.map
    (fun name ->
      (name, Minidb.Table.row_count (Minidb.Catalog.find catalog name)))
    (Minidb.Catalog.table_names catalog)

let kind_of_stmt = function
  | I.Squery -> Some Prov.Lineage_model.Query
  | I.Sinsert -> Some Prov.Lineage_model.Insert
  | I.Supdate -> Some Prov.Lineage_model.Update
  | I.Sdelete -> Some Prov.Lineage_model.Delete
  | I.Sddl -> None

(** Merge per-session statement logs into the run's global statement
    stream, ordered by send time (ties broken by qid — which cannot
    actually tie, since qids are drawn from the shared counter in the
    same atomic section that ticks the send clock). *)
let merge_logs (sessions : I.t list) : I.stmt_event list =
  List.concat_map I.log sessions
  |> List.sort (fun (a : I.stmt_event) (b : I.stmt_event) ->
         match
           Prov.Interval.compare_start
             (Prov.Interval.make a.I.t_start a.I.t_end)
             (Prov.Interval.make b.I.t_start b.I.t_end)
         with
         | 0 -> Int.compare a.I.qid b.I.qid
         | c -> c)

(** The run's statement stream across every session, in global order.
    Single-session audits see exactly the session log. *)
let stmts (t : t) : I.stmt_event list = merge_logs t.sessions

let fingerprints (stmts : I.stmt_event list) : (int * string) list =
  List.filter_map
    (fun (s : I.stmt_event) ->
      if s.I.kind = I.Squery then Some (s.I.qid, Fingerprint.rows s.I.rows)
      else None)
    stmts

(** Outcome of one interactive transaction, as observable from the
    recorded statement stream. *)
type tx_outcome =
  | Tx_committed  (** closed by an explicit COMMIT *)
  | Tx_rolled_back  (** closed by an explicit ROLLBACK *)
  | Tx_aborted
      (** terminated without a closing statement: a write-write conflict
          (or injected abort) killed it mid-flight, or the run ended with
          the transaction still open *)
  | Tx_retried
      (** aborted, and the same session opened another transaction
          afterwards — the bounded-retry loop re-ran the block *)

let tx_outcome_name = function
  | Tx_committed -> "committed"
  | Tx_rolled_back -> "rolled-back"
  | Tx_aborted -> "aborted"
  | Tx_retried -> "retried"

let tx_outcome_of_name = function
  | "committed" -> Some Tx_committed
  | "rolled-back" -> Some Tx_rolled_back
  | "aborted" -> Some Tx_aborted
  | "retried" -> Some Tx_retried
  | _ -> None

(** Derive per-transaction outcomes from a statement stream: for each
    session, BEGIN opens transaction [n] (a BEGIN while one is already
    open means the previous one was conflict-aborted without a closing
    statement), COMMIT/ROLLBACK close it, and a transaction still open
    at the end of the stream was aborted by the run ending. Returns
    [(sid, per-session ordinal from 1, outcome)] in (sid, ordinal)
    order. The derivation is a pure function of the normalized SQL
    stream, so replaying the recorded schedule must reproduce it
    exactly — [Replay.verify] compares both sides. *)
let tx_outcomes (stmts : I.stmt_event list) : (int * int * tx_outcome) list
    =
  let sids =
    List.sort_uniq compare (List.map (fun (s : I.stmt_event) -> s.I.sid) stmts)
  in
  List.concat_map
    (fun sid ->
      let closed = ref [] in
      let ordinal = ref 0 in
      let open_tx = ref false in
      let close outcome =
        if !open_tx then begin
          closed := (sid, !ordinal, outcome) :: !closed;
          open_tx := false
        end
      in
      List.iter
        (fun (s : I.stmt_event) ->
          if s.I.sid = sid then
            match s.I.sql_norm with
            | "BEGIN" ->
              close Tx_aborted;
              incr ordinal;
              open_tx := true
            | "COMMIT" -> close Tx_committed
            | "ROLLBACK" -> close Tx_rolled_back
            | _ -> ())
        stmts;
      close Tx_aborted;
      (* an aborted transaction followed by another on the same session
         is a retried one (Client.transaction re-runs the whole block) *)
      let rec mark = function
        | [] -> []
        | (s, n, Tx_aborted) :: (_ :: _ as rest) ->
          (s, n, Tx_retried) :: mark rest
        | e :: rest -> e :: mark rest
      in
      mark (List.rev !closed))
    sids

(* Fill a combined trace from the tracer's syscall stream and a statement
   log. Every statement gets its node and [run] edge; [keep_tuples s] says
   whether its tuple-version reads, results and lineage enter the trace
   too. Tuple versions are interned by packed id, one table of node
   indices per DB table: a tuple edge or dependency costs one int probe,
   and a [Tid.t] is made only for a version that gets a new node. Reads
   and lineage are visited in [Tid.compare] order, which fixes the order
   nodes are created in. *)
let fill_trace ~(keep_tuples : I.stmt_event -> bool)
    (tracer : Minios.Tracer.t) (stmts : I.stmt_event list) : Prov.Trace.t =
  let module T = Prov.Trace in
  let trace = Prov.Combined.create () in
  Minios.Tracer.build_bb_into tracer trace;
  let by_table : (string, int Lineage.Tbl.t) Hashtbl.t = Hashtbl.create 16 in
  let nodes_of table =
    match Hashtbl.find_opt by_table table with
    | Some ids -> ids
    | None ->
      let ids = Lineage.Tbl.create 16 in
      Hashtbl.replace by_table table ids;
      ids
  in
  let tid_of table p =
    Tid.make ~table ~rid:(Lineage.rid p) ~version:(Lineage.version p)
  in
  let tuple_in table ids p =
    match Lineage.Tbl.find_opt ids p with
    | Some ix -> ix
    | None ->
      let n = Prov.Lineage_model.add_tuple trace (tid_of table p) in
      let ix = T.index_of trace n.T.id in
      Lineage.Tbl.add ids p ix;
      ix
  in
  let tuple (tid : Tid.t) =
    tuple_in tid.Tid.table (nodes_of tid.Tid.table)
      (Lineage.pack ~rid:tid.Tid.rid ~version:tid.Tid.version)
  in
  (* lineage sources must already be in the trace, as inputs *)
  let source table ids p =
    match Lineage.Tbl.find_opt ids p with
    | Some ix -> ix
    | None -> T.index_of trace (Prov.Lineage_model.tuple_id (tid_of table p))
  in
  List.iter
    (fun (s : I.stmt_event) ->
      match kind_of_stmt s.I.kind with
      | None -> ()
      | Some kind ->
        let time = Prov.Interval.make s.I.t_start s.I.t_end in
        let stmt =
          T.index_of trace
            (Prov.Lineage_model.add_statement trace ~qid:s.I.qid ~kind
               ~sql:s.I.sql_norm)
              .T.id
        in
        (* the issuing process may be unknown to the tracer if tracing
           started late; create it defensively *)
        let proc_id = Prov.Bb_model.process_id s.I.pid in
        if not (T.mem_node trace proc_id) then
          ignore (Prov.Bb_model.add_process trace ~pid:s.I.pid ~name:"proc");
        let proc = T.index_of trace proc_id in
        ignore (T.add_edge_ix trace ~label:"run" ~src:proc ~dst:stmt ~time);
        if keep_tuples s then begin
          (* input tuple versions *)
          Lineage.iter_tables
            (fun table packed ->
              let ids = nodes_of table in
              Array.iter
                (fun p ->
                  ignore
                    (T.add_edge_ix trace ~label:"hasRead"
                       ~src:(tuple_in table ids p) ~dst:stmt ~time))
                packed)
            s.I.reads;
          (* produced tuple versions and their registered dependencies *)
          List.iter
            (fun (rtid, lineage) ->
              let result = tuple rtid in
              ignore
                (T.add_edge_ix trace ~label:"hasReturned" ~src:stmt
                   ~dst:result ~time);
              (match s.I.kind with
              | I.Squery ->
                (* the client consumed the result rows *)
                ignore
                  (T.add_edge_ix trace ~label:"readFromDb" ~src:result
                     ~dst:proc ~time)
              | _ -> ());
              Lineage.iter_tables
                (fun table packed ->
                  let ids = nodes_of table in
                  Array.iter
                    (fun p ->
                      T.add_dependency_ix trace ~later:result
                        ~earlier:(source table ids p))
                    packed)
                lineage)
            s.I.results
        end)
    stmts;
  trace

(** Build the combined execution trace from the tracer's syscall stream and
    the interceptor's statement log. *)
let build_trace (tracer : Minios.Tracer.t) (stmts : I.stmt_event list) :
    Prov.Trace.t =
  Ldv_obs.with_span "audit.build_trace" @@ fun () ->
  fill_trace ~keep_tuples:(fun _ -> true) tracer stmts

(** The compact trace embedded in packages. The in-memory trace carries
    per-result-row lineage (needed for provenance queries); persisting that
    for every query repetition would dwarf the tuple subset itself. As in
    the paper, the packaged provenance materializes query lineage as the
    relevant-tuple CSVs, so the packaged trace keeps only the OS portion,
    the statement log with [run] edges, and DML provenance (written
    versions and the pre-versions they derive from). *)
let compact_trace (t : t) : Prov.Trace.t =
  Ldv_obs.with_span "audit.compact_trace" @@ fun () ->
  fill_trace
    ~keep_tuples:(fun (s : I.stmt_event) -> s.I.kind <> I.Squery)
    t.tracer (stmts t)

(** Files written by the traced application (excluding the DB server's own
    checkpoint writes). *)
let written_files (tracer : Minios.Tracer.t) ~(exclude_pids : int list)
    (vfs : Minios.Vfs.t) : (string * string) list =
  Minios.Tracer.file_accesses tracer
  |> List.filter_map (fun (fa : Minios.Tracer.file_access) ->
         if
           fa.Minios.Tracer.fa_mode = Minios.Syscall.Write
           && not (List.mem fa.Minios.Tracer.fa_pid exclude_pids)
         then
           match Minios.Vfs.content vfs fa.Minios.Tracer.fa_path with
           | content ->
             Option.map
               (fun s -> (fa.Minios.Tracer.fa_path, s))
               (Minios.Vfs.content_bytes content)
           | exception Not_found -> None
         else None)
  |> List.sort_uniq compare

(** Run [program] under full LDV monitoring.

    The kernel must already contain the application's files; the server
    must be installed around the database the app will use. For
    [Included] packaging the server is started and stopped as a traced
    process (its binary and data files become part of the OS trace); for
    [Excluded] the server is treated as external and only the client-side
    interposition records its responses. *)
let run ~(packaging : packaging) (kernel : Minios.Kernel.t)
    (server : Dbclient.Server.t) ~app_name ~app_binary ?(app_libs = [])
    (program : Minios.Program.program) : t =
  Ldv_obs.with_span
    ~attrs:[ ("packaging", packaging_name packaging); ("app", app_name) ]
    "audit.run"
  @@ fun () ->
  let start_rows = table_start_rows server in
  let tracer = Minios.Tracer.create () in
  Minios.Tracer.attach tracer kernel;
  let server_pid =
    match packaging with
    | Included | Ptu_baseline ->
      Some (Dbclient.Server.start_traced kernel server)
    | Excluded -> None
  in
  let mode =
    match packaging with
    | Included -> I.Audit_included
    | Excluded -> I.Audit_excluded
    | Ptu_baseline -> I.Passthrough
  in
  let session = I.create ~mode ~kernel server in
  I.bind kernel session;
  let root_pid =
    Fun.protect
      ~finally:(fun () -> I.unbind kernel)
      (fun () ->
        Ldv_obs.with_span "audit.app" (fun () ->
            let pid =
              Minios.Program.run kernel ~binary:app_binary ~libs:app_libs
                ~name:app_name program
            in
            Ldv_obs.add_attr "prov.proc" (Printf.sprintf "proc:%d" pid);
            pid))
  in
  (match packaging with
  | Included | Ptu_baseline -> Dbclient.Server.stop_traced kernel server
  | Excluded -> ());
  Minios.Tracer.detach kernel;
  let stmts = I.log session in
  let trace =
    match packaging with
    | Ptu_baseline ->
      (* plain libpq: PTU sees only the OS side *)
      build_trace tracer []
    | Included | Excluded -> build_trace tracer stmts
  in
  let exclude_pids = Option.to_list server_pid in
  let out_files, query_fingerprints =
    Ldv_obs.with_span "audit.collect_outputs" @@ fun () ->
    ( written_files tracer ~exclude_pids (Minios.Kernel.vfs kernel),
      fingerprints stmts )
  in
  if Ldv_obs.enabled () then begin
    Ldv_obs.counter ~by:(List.length stmts) "audit.statements";
    Ldv_obs.counter ~by:(Minios.Tracer.event_count tracer) "audit.os_events";
    (* the root process and its output files, by their trace node ids *)
    Ldv_obs.add_attr "prov.proc" (Printf.sprintf "proc:%d" root_pid);
    List.iter
      (fun (path, _) -> Ldv_obs.add_attr "prov.file" ("file:" ^ path))
      out_files
  end;
  { packaging;
    kernel;
    server;
    tracer;
    session;
    sessions = [ session ];
    sched = None;
    repl = None;
    trace;
    app_name;
    app_binary;
    root_pid;
    server_pid;
    out_files;
    query_fingerprints;
    start_rows }

(** Run N client programs concurrently under full LDV monitoring, each
    with its own interceptor session, interleaved by the seeded
    round-robin scheduler ({!Minios.Sched}). Supported for [Included]
    packaging only: the sessions share one slice table and one qid
    counter, reads are snapshot-isolated (each query pinned to the DB
    clock at send time), and WAL group commit — if armed on the server's
    durable handle — batches the quantum's commits into one barrier.
    The recorded seed and client list land in [sched] so the package can
    replay the identical interleaving.

    With [cluster], the primary session (and through the shared ref every
    sibling) routes snapshot-pinned reads to the cluster's read replicas
    and ships every write; the replication machinery's own file writes
    (ship log, replica WALs, checkpoints) are excluded from the recorded
    application outputs. *)
let run_concurrent ~(packaging : packaging) ?(sched_seed = 0)
    ?(cluster : Dbclient.Replication.t option) (kernel : Minios.Kernel.t)
    (server : Dbclient.Server.t) (clients : client list) : t =
  (match packaging with
  | Included -> ()
  | Excluded | Ptu_baseline ->
    invalid_arg
      "Audit.run_concurrent: concurrent sessions require server-included \
       packaging");
  (match clients with
  | [] -> invalid_arg "Audit.run_concurrent: no clients"
  | _ :: _ -> ());
  Ldv_obs.with_span
    ~attrs:
      [ ("packaging", packaging_name packaging);
        ("sessions", string_of_int (List.length clients)) ]
    "audit.run_concurrent"
  @@ fun () ->
  let start_rows = table_start_rows server in
  let tracer = Minios.Tracer.create () in
  Minios.Tracer.attach tracer kernel;
  let server_pid = Some (Dbclient.Server.start_traced kernel server) in
  let primary =
    I.create ~mode:I.Audit_included ~snapshot_reads:true ~kernel server
  in
  (match cluster with
  | Some cl -> I.attach_cluster primary cl
  | None -> ());
  let sessions =
    primary
    :: List.mapi
         (fun i _ -> I.create_sibling primary ~session_id:(i + 1))
         (List.tl clients)
  in
  let sched_clients =
    List.map2
      (fun cl sess ->
        Minios.Sched.client ~binary:cl.cl_binary ~libs:cl.cl_libs
          ~name:cl.cl_name (fun env ->
            let pid = Minios.Program.pid env in
            (* this program runs on its own scheduler job; stamp the job's
               trace context so even quanta before the first statement are
               attributed to the right session *)
            if Ldv_obs.enabled () then
              Ldv_obs.Trace.set_session (I.session_id sess);
            I.bind_for kernel ~pid sess;
            Fun.protect
              ~finally:(fun () -> I.unbind_for kernel ~pid)
              (fun () -> cl.cl_program env)))
      clients sessions
  in
  let pids = Minios.Sched.run kernel ~seed:sched_seed sched_clients in
  Dbclient.Server.stop_traced kernel server;
  Minios.Tracer.detach kernel;
  let stmts = merge_logs sessions in
  let trace = build_trace tracer stmts in
  let exclude_pids =
    Option.to_list server_pid
    @ (match cluster with
      | Some cl -> Dbclient.Replication.pids cl
      | None -> [])
  in
  let out_files, query_fingerprints =
    Ldv_obs.with_span "audit.collect_outputs" @@ fun () ->
    ( written_files tracer ~exclude_pids (Minios.Kernel.vfs kernel),
      fingerprints stmts )
  in
  if Ldv_obs.enabled () then begin
    Ldv_obs.counter ~by:(List.length stmts) "audit.statements";
    Ldv_obs.counter ~by:(Minios.Tracer.event_count tracer) "audit.os_events"
  end;
  let first = List.hd clients in
  { packaging;
    kernel;
    server;
    tracer;
    session = primary;
    sessions;
    sched =
      Some
        { sched_seed;
          sched_clients =
            List.map (fun cl -> (cl.cl_name, cl.cl_binary)) clients };
    repl =
      Option.map
        (fun cl ->
          ( Dbclient.Replication.replica_count cl,
            Dbclient.Replication.staleness cl ))
        cluster;
    trace;
    app_name = first.cl_name;
    app_binary = first.cl_binary;
    root_pid = (match pids with pid :: _ -> pid | [] -> 0);
    server_pid;
    out_files;
    query_fingerprints;
    start_rows }

(** Convenience: pids belonging to the application (everything traced minus
    the server process). *)
let app_pids (t : t) : int list =
  Minios.Tracer.spawns t.tracer
  |> List.filter_map (fun (sp : Minios.Tracer.spawn_info) ->
         if Some sp.Minios.Tracer.sp_pid = t.server_pid then None
         else Some sp.Minios.Tracer.sp_pid)

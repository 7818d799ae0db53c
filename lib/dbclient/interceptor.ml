(** The instrumented client library (the paper's modified libpq, §VII-C).

    Every statement a monitored process sends to the DB flows through a
    session in one of four modes:

    - [Passthrough] — plain execution (the baseline, and server-included
      replay once the package DB has been restored);
    - [Audit_included] — execute *with provenance*: queries run through the
      Perm-style lineage executor, modifications are reenacted first; the
      relevant tuple versions are deduplicated into the slice table that
      ends up in the package (Table I's DB column);
    - [Audit_excluded] — execute normally but record every response for
      later replay;
    - [Replay_excluded] — do not touch any DB: answer each request from the
      recorded log, in order, raising [Replay_divergence] if the incoming
      statement does not match the recording (§VIII). *)

open Minidb

exception Replay_divergence of string

type mode =
  | Passthrough
  | Audit_included
  | Audit_excluded
  | Replay_excluded

type stmt_kind = Squery | Sinsert | Supdate | Sdelete | Sddl

let stmt_kind_name = function
  | Squery -> "query"
  | Sinsert -> "insert"
  | Supdate -> "update"
  | Sdelete -> "delete"
  | Sddl -> "ddl"

let mode_name = function
  | Passthrough -> "passthrough"
  | Audit_included -> "audit-included"
  | Audit_excluded -> "audit-excluded"
  | Replay_excluded -> "replay-excluded"

let stmt_kind_of_ast = function
  | Sql_ast.Select _ | Sql_ast.Provenance _ | Sql_ast.Explain _ -> Squery
  | Sql_ast.Insert _ -> Sinsert
  | Sql_ast.Update _ -> Supdate
  | Sql_ast.Delete _ -> Sdelete
  | Sql_ast.Create_table _ | Sql_ast.Drop_table _ | Sql_ast.Create_index _
  | Sql_ast.Drop_index _ | Sql_ast.Begin_tx | Sql_ast.Commit_tx
  | Sql_ast.Rollback_tx ->
    Sddl

(** One audited statement: everything the trace builder needs to create the
    P_Lin activity node, its edges, and the cross-model edges. *)
type stmt_event = {
  qid : int;
  sid : int;  (** issuing session (0 for the primary/only session) *)
  pid : int;  (** issuing OS process *)
  sql : string;
  sql_norm : string;
  kind : stmt_kind;
  t_start : int;  (** request sent *)
  t_end : int;  (** response received *)
  snapshot : int;
      (** DB clock pinned when the request was sent; under snapshot-
          isolated reads, queries see exactly the versions committed at or
          before this clock *)
  replica : int;
      (** which node answered: a replica id when a read was served by a
          read replica, -1 for the leader. Recorded in the package so
          replay re-runs the whole cluster deterministically. *)
  results : (Tid.t * Lineage.t) list;
      (** produced tuple version -> versions in its lineage *)
  reads : Lineage.t;  (** tuple versions the statement read *)
  schema : Schema.t option;
  rows : Value.t array list;
  affected : int;
  response_bytes : int;
}

(** The shared write-path latch: statement execution on the server is
    session-serialized. [holder] is the session currently executing a
    statement, -1 when free. Under a scheduler a contending session
    parks (spin-yield) until the holder releases — recording how long it
    waited and on whom; without a scheduler a held latch is a bug. *)
type latch = { mutable holder : int }

(* One table's share of the slice. §VII-D: the prototype "immediately
   computes the provenance for every operation ... and writes these
   tuples to files on disk". Here each version that enters the slice has
   its package CSV row written on first sight (cold first query, warm
   repeats), and those rows are the package's: [slice_csv] copies them
   out, nothing encodes them again. *)
type slice_table = {
  members : int Lineage.Tbl.t;
      (** packed id -> the member's row, an index into [starts], or -1
          when the database held no such version *)
  rows : Buffer.t;  (** the members' CSV rows, in first-sight order *)
  mutable starts : int array;  (** row -> its offset in [rows] *)
  mutable n_rows : int;
}

type t = {
  mode : mode;
  server : Server.t;
  kernel : Minios.Kernel.t;
  session_id : int;
  trace_id : int;
      (** run-level trace id ([Ldv_obs.Trace]), shared by siblings *)
  snapshot_reads : bool;
      (** pin every query to the DB clock observed when its request was
          sent (snapshot isolation across interleaved sessions) *)
  versioning : Perm.Versioning.t;
  next_qid : int ref;  (** shared across sibling sessions: qids are the
                           global statement order of the run *)
  latch : latch;  (** shared across sibling sessions *)
  inflight : (int, int) Hashtbl.t;
      (** qid -> pinned snapshot of statements currently in flight, shared
          across siblings; feeds the [db.snapshot_age] per-quantum gauge *)
  cluster : Replication.t option ref;
      (** shared across siblings: when a replication cluster is attached,
          snapshot-pinned reads are routed to read replicas and every
          executed write is shipped to them *)
  mutable tx : int;
      (** this session's open transaction id, 0 = autocommit; the
          interceptor re-binds the shared database's ambient session to it
          before every statement *)
  mutable tx_snapshot : int;
      (** the open transaction's begin-snapshot clock (queries pin to it,
          not to the per-statement snapshot) *)
  mutable tx_ship : (int * string) list;
      (** writes executed inside the open transaction, newest first, held
          back from the ship channel until COMMIT makes them durable *)
  mutable log : stmt_event list;  (** newest first *)
  mutable recorded : Recorder.recorded list;  (** audit-excluded, newest first *)
  mutable replay_queue : Recorder.recorded list;  (** replay-excluded, in order *)
  slice : (string, slice_table) Hashtbl.t;
      (** deduplicated tuple versions relevant to the run (the paper's
          in-memory hash table, §VII-D), per table, each with the CSV row
          written for it; shared across sibling sessions so the run's
          slice stays one deduplicated set *)
}

let create ?(mode = Passthrough) ?(session_id = 0) ?(snapshot_reads = false)
    ~kernel (server : Server.t) : t =
  let inflight = Hashtbl.create 16 in
  (* How far behind the current DB clock the oldest in-flight statement's
     pinned snapshot is, sampled once per scheduler round. *)
  let db = Server.db server in
  Ldv_obs.register_quantum_gauge "db.snapshot_age" (fun () ->
      let clock = Database.clock db in
      Hashtbl.fold
        (fun _ snap acc -> Float.max acc (float_of_int (clock - snap)))
        inflight 0.0);
  { mode;
    server;
    kernel;
    session_id;
    trace_id = Ldv_obs.Trace.mint ();
    snapshot_reads;
    versioning = Perm.Versioning.create (Server.db server);
    next_qid = ref 0;
    latch = { holder = -1 };
    inflight;
    cluster = ref None;
    tx = 0;
    tx_snapshot = 0;
    tx_ship = [];
    log = [];
    recorded = [];
    replay_queue = [];
    slice = Hashtbl.create 16 }

let create_replay ~kernel (server : Server.t)
    (recording : Recorder.recorded list) : t =
  let t = create ~mode:Replay_excluded ~kernel server in
  { t with replay_queue = recording }

(** A sibling session for another client of the same run: it shares the
    mode, server, versioning, qid counter, write latch, in-flight table,
    trace id and slice (with its CSV rows) (one run, one slice, one
    global statement order) but keeps its own statement log and
    recording, so each session's stream stays attributable. *)
let create_sibling (t : t) ~session_id : t =
  { t with
    session_id;
    tx = 0;
    tx_snapshot = 0;
    tx_ship = [];
    log = [];
    recorded = [];
    replay_queue = [] }

(** Attach a replication cluster to this session (and, through the shared
    ref, to every sibling): reads route to replicas, writes ship. *)
let attach_cluster t (c : Replication.t) = t.cluster := Some c

let cluster t = !(t.cluster)
let log t = List.rev t.log
let kernel_of t = t.kernel
let recorded t = List.rev t.recorded
let mode t = t.mode
let session_id t = t.session_id
let in_tx t = t.tx <> 0
let versioning t = t.versioning

(** Tuple versions accumulated for packaging (before removing
    application-created versions). *)
let slice_lineage t =
  Hashtbl.fold
    (fun table st acc ->
      let ids = Array.make (Lineage.Tbl.length st.members) 0 in
      let i = ref 0 in
      Lineage.Tbl.iter
        (fun p _ ->
          ids.(!i) <- p;
          incr i)
        st.members;
      (table, ids) :: acc)
    t.slice []
  |> Lineage.of_packed

(* Append one member's CSV row and return its index. *)
let add_row st ~rid ~version values =
  let row = st.n_rows in
  if row = Array.length st.starts then begin
    let grown = Array.make (2 * row) 0 in
    Array.blit st.starts 0 grown 0 row;
    st.starts <- grown
  end;
  st.starts.(row) <- Buffer.length st.rows;
  st.n_rows <- row + 1;
  Csv.add_row st.rows ~rid ~version values;
  row

(* The length of row [row]: up to the next row's start, or the end. *)
let row_length st row =
  let stop =
    if row + 1 < st.n_rows then st.starts.(row + 1) else Buffer.length st.rows
  in
  stop - st.starts.(row)

(* A statement's reads enter the slice one int probe per version; only a
   version not seen before is looked up, once per table in the catalog
   and once in its row's chain, and written as its CSV row. *)
let add_to_slice t (reads : Lineage.t) =
  let catalog = Database.catalog (Server.db t.server) in
  Lineage.iter_tables
    (fun table ids ->
      let st =
        match Hashtbl.find_opt t.slice table with
        | Some st -> st
        | None ->
          let st =
            { members = Lineage.Tbl.create 1024;
              rows = Buffer.create 4096;
              starts = Array.make 64 0;
              n_rows = 0 }
          in
          Hashtbl.replace t.slice table st;
          st
      in
      let stored = Catalog.find_opt catalog table in
      Array.iter
        (fun p ->
          if not (Lineage.Tbl.mem st.members p) then begin
            Ldv_obs.Ledger.time Ldv_obs.Ledger.Audit_record @@ fun () ->
            (* write the newly relevant tuple out immediately (§VII-D) *)
            let rid = Lineage.rid p and version = Lineage.version p in
            let found =
              match stored with
              | Some tbl -> Table.find_version_at tbl ~rid ~version
              | None -> None
            in
            let row =
              match found with
              | Some tv -> add_row st ~rid ~version tv.Table.values
              | None -> -1
            in
            Lineage.Tbl.replace st.members p row
          end)
        ids)
    reads

(** The package CSV of [table]'s slice members among [ids], ascending
    packed ids, where [tbl] is [table] as the database holds it now: the
    header, then the row written for each member whose version [tbl]
    still holds, in [ids] order, copied into one string sized once.
    [None] when no row remains. *)
let slice_csv t ~table (tbl : Table.t) (ids : int array) : string option =
  match Hashtbl.find_opt t.slice table with
  | None -> None
  | Some st ->
    let kept = Array.make (Array.length ids) 0 in
    let n = ref 0 and bytes = ref 0 in
    Array.iter
      (fun p ->
        let row =
          match Lineage.Tbl.find st.members p with
          | row -> row
          | exception Not_found -> -1
        in
        (* a version a rollback erased is no longer found *)
        if
          row >= 0
          && Option.is_some
               (Table.find_version_at tbl ~rid:(Lineage.rid p)
                  ~version:(Lineage.version p))
        then begin
          kept.(!n) <- row;
          incr n;
          bytes := !bytes + row_length st row
        end)
      ids;
    if !n = 0 then None
    else begin
      let header = Buffer.create 256 in
      Csv.add_header header (Table.schema tbl);
      let out = Bytes.create (Buffer.length header + !bytes) in
      Buffer.blit header 0 out 0 (Buffer.length header);
      let pos = ref (Buffer.length header) in
      for i = 0 to !n - 1 do
        let row = kept.(i) in
        let len = row_length st row in
        Buffer.blit st.rows st.starts.(row) out !pos len;
        pos := !pos + len
      done;
      Some (Bytes.unsafe_to_string out)
    end

(* ------------------------------------------------------------------ *)
(* Statement execution per mode.                                       *)

(* The table name of statement [qid]'s transient result tuples, whose
   rid is the row's position. *)
let result_table qid = Printf.sprintf "#q%d" qid

(** Whether a tid denotes a transient query-result tuple rather than a
    stored tuple version. *)
let is_result_tid (tid : Tid.t) =
  String.length tid.Tid.table > 0 && tid.Tid.table.[0] = '#'

(** Execute one audited statement. [serve] routes a query to a read
    replica's server: the lineage query then runs on the replica's
    database, clock-frozen, so serving the read never perturbs the
    replica's version stamps. Writes always execute on the leader; the
    returned [at_write] is the leader clock observed immediately before a
    mutating statement ran (-1 for queries) — the clock the shipped WAL
    record carries so replicas stamp identically. *)
let exec_audit_included t ~qid ?serve (ast : Sql_ast.statement)
    (sql : string) :
    Protocol.response * (Tid.t * Lineage.t) list * Lineage.t * Schema.t option
    * Value.t array list * int * int =
  let db = Server.db t.server in
  match ast with
  | Sql_ast.Explain _ ->
    (* plan description only; nothing to audit *)
    let resp = Server.handle t.server sql in
    (resp, [], Lineage.empty, None, Protocol.response_rows resp, 0, -1)
  | Sql_ast.Select _ | Sql_ast.Provenance _ ->
    let serve_db = match serve with Some srv -> Server.db srv | None -> db in
    let prov =
      Ldv_obs.Ledger.time Ldv_obs.Ledger.Provenance @@ fun () ->
      match serve with
      | Some _ ->
        Database.with_frozen_clock serve_db (fun () ->
            Perm.Provenance_sql.query_lineage serve_db sql)
      | None -> Perm.Provenance_sql.query_lineage db sql
    in
    List.iter
      (fun table -> ignore (Perm.Versioning.enable_table t.versioning table))
      prov.Perm.Provenance_sql.read_tables;
    let at = Database.clock serve_db in
    let results, reads =
      Ldv_obs.Ledger.time Ldv_obs.Ledger.Provenance @@ fun () ->
      let table = result_table qid in
      let results =
        List.mapi
          (fun i (row : Perm.Provenance_sql.provenance_row) ->
            ( Tid.make ~table ~rid:i ~version:at,
              row.Perm.Provenance_sql.lineage ))
          prov.Perm.Provenance_sql.rows
      in
      let reads = Perm.Provenance_sql.union_lineage prov in
      add_to_slice t reads;
      (results, reads)
    in
    let rows =
      List.map
        (fun (r : Perm.Provenance_sql.provenance_row) ->
          r.Perm.Provenance_sql.values)
        prov.Perm.Provenance_sql.rows
    in
    ( Protocol.Result_set { schema = prov.Perm.Provenance_sql.schema; rows },
      results,
      reads,
      Some prov.Perm.Provenance_sql.schema,
      rows,
      List.length rows,
      -1 )
  | Sql_ast.Insert _ | Sql_ast.Update _ | Sql_ast.Delete _ ->
    (match ast with
    | Sql_ast.Insert { table; _ }
    | Sql_ast.Update { table; _ }
    | Sql_ast.Delete { table; _ } ->
      ignore (Perm.Versioning.enable_table t.versioning table)
    | _ -> ());
    (* reenact first (provenance of the pre-state), then execute; the ship
       clock is captured between the two so it excludes the reenactment
       query's ticks — replicas apply only the write itself *)
    let _reenactment =
      Ldv_obs.Ledger.time Ldv_obs.Ledger.Provenance @@ fun () ->
      match ast with
      | Sql_ast.Update _ | Sql_ast.Delete _ -> Some (Perm.Reenact.capture db ast)
      | _ -> None
    in
    let at_write = Database.clock db in
    let info =
      match ast with
      | Sql_ast.Insert { table; columns; source } ->
        Database.run_insert db ~table ~columns ~source
      | Sql_ast.Update { table; sets; where } ->
        Database.run_update db ~table ~sets ~where
      | Sql_ast.Delete { table; where } -> Database.run_delete db ~table ~where
      | _ -> assert false
    in
    let reads = Lineage.of_tids info.Database.read in
    Ldv_obs.Ledger.time Ldv_obs.Ledger.Audit_record (fun () ->
        add_to_slice t reads);
    ( Protocol.Command_ok { affected = info.Database.count },
      List.map
        (fun (written, srcs) -> (written, Lineage.of_tids srcs))
        info.Database.deps,
      reads,
      None,
      [],
      info.Database.count,
      at_write )
  | Sql_ast.Create_table _ | Sql_ast.Drop_table _ | Sql_ast.Create_index _
  | Sql_ast.Drop_index _ | Sql_ast.Begin_tx | Sql_ast.Commit_tx
  | Sql_ast.Rollback_tx ->
    let at_write = Database.clock db in
    let resp = Server.handle t.server sql in
    (resp, [], Lineage.empty, None, [], 0, at_write)

let exec_passthrough t (sql : string) = Server.handle t.server sql

let exec_replay_excluded t ~(kind : stmt_kind) (sql_norm : string) :
    Protocol.response =
  match t.replay_queue with
  | [] ->
    Ldv_obs.counter "recorder.miss";
    raise
      (Replay_divergence
         (Printf.sprintf "no recorded response left for %s" sql_norm))
  | r :: rest ->
    if not (String.equal r.Recorder.rec_sql_norm sql_norm) then begin
      Ldv_obs.counter "recorder.miss";
      raise
        (Replay_divergence
           (Printf.sprintf "expected %s, got %s" r.Recorder.rec_sql_norm
              sql_norm))
    end;
    Ldv_obs.counter "recorder.hit";
    t.replay_queue <- rest;
    (match (kind, r.Recorder.rec_kind) with
    | Squery, Recorder.Rquery ->
      Protocol.Result_set
        { schema = Option.value r.Recorder.rec_schema ~default:[||];
          rows = r.Recorder.rec_rows }
    | (Sinsert | Supdate | Sdelete), Recorder.Rdml ->
      (* writes are acknowledged from the recording and discarded *)
      Protocol.Command_ok { affected = r.Recorder.rec_affected }
    | Sddl, Recorder.Rddl -> Protocol.Ddl_ok
    | _, Recorder.Rerror ->
      (* the original statement failed: reproduce the failure *)
      Protocol.Error_response
        (match r.Recorder.rec_rows with
        | [ [| Value.Str msg |] ] -> msg
        | _ -> "server error")
    | _ ->
      raise
        (Replay_divergence
           (Printf.sprintf "statement kind mismatch for %s" sql_norm)))

(* Snapshot pinning lives in {!Snapshot_pin}, shared with the replication
   router (replicas serve every read pinned at their applied version). *)
let pin_statement = Snapshot_pin.pin_statement

(** Execute one statement on behalf of process [pid]. *)
let execute (t : t) ~pid (sql : string) : Protocol.response =
  if Ldv_obs.enabled () then begin
    (* (re)assert this session's identity on the ambient trace context —
       the scheduler's quantum/wait spans and every child span inherit it *)
    Ldv_obs.Trace.set_trace t.trace_id;
    Ldv_obs.Trace.set_session t.session_id;
    Ldv_obs.Trace.set_stmt (-1)
  end;
  Ldv_obs.with_span "db.stmt" @@ fun () ->
  (* open this statement's overhead account; every ledger frame below
     (parse/plan/exec/wal/fsync/audit/provenance) attributes into it *)
  Ldv_obs.Ledger.stmt_begin ();
  Fun.protect ~finally:Ldv_obs.Ledger.stmt_end @@ fun () ->
  let db = Server.db t.server in
  let ast = Database.parse sql in
  let sql_norm = Pretty.statement_to_string ast in
  let kind = stmt_kind_of_ast ast in
  if Ldv_obs.enabled () then begin
    Ldv_obs.add_attr "kind" (stmt_kind_name kind);
    Ldv_obs.add_attr "mode" (mode_name t.mode);
    (* provenance-node correlation: the same identifiers this statement
       gets in the execution trace ([Prov.Lineage_model.stmt_id],
       [Prov.Bb_model.process_id]) *)
    Ldv_obs.add_attr "prov.stmt" (Printf.sprintf "stmt:%d" !(t.next_qid));
    Ldv_obs.add_attr "prov.proc" (Printf.sprintf "proc:%d" pid);
    Ldv_obs.add_attr Ldv_obs.Trace.stmt_attr (string_of_int !(t.next_qid));
    Ldv_obs.counter ("db.stmt." ^ stmt_kind_name kind)
  end;
  let qid = !(t.next_qid) in
  t.next_qid := qid + 1;
  if Ldv_obs.enabled () then Ldv_obs.Trace.set_stmt qid;
  (* request leaves the client *)
  let t_start = Minios.Kernel.tick t.kernel in
  Database.sync_clock db ~at:(Minios.Kernel.now t.kernel);
  (* the statement's snapshot is fixed the moment the request is sent... *)
  let snapshot = Database.clock db in
  if Ldv_obs.enabled () then Hashtbl.replace t.inflight qid snapshot;
  Fun.protect ~finally:(fun () -> Hashtbl.remove t.inflight qid)
  @@ fun () ->
  (* ...and the request is now in flight: under a scheduler, other
     sessions may run (and commit) before the server dequeues it *)
  Minios.Kernel.yield_point t.kernel;
  Database.sync_clock db ~at:(Minios.Kernel.now t.kernel);
  let exec_ast, exec_sql =
    if t.snapshot_reads && kind = Squery then
      (* inside a transaction the pin is the *begin* snapshot, not the
         per-statement one: every read of the transaction sees one
         consistent state (plus its own writes) *)
      let pin_at = if t.tx <> 0 then t.tx_snapshot else snapshot in
      let pinned = pin_statement pin_at ast in
      (pinned, Pretty.statement_to_string pinned)
    else (ast, sql)
  in
  (* acquire the shared write latch *)
  if t.latch.holder >= 0 then begin
    if not (Minios.Kernel.preemptive t.kernel) then
      (* no scheduler, so nobody can ever release it: a reentrancy bug *)
      invalid_arg
        "Interceptor.execute: statement execution is session-serialized, but \
         a statement is already executing";
    let holder = t.latch.holder in
    let wait_start = if Ldv_obs.enabled () then Ldv_obs.now () else 0.0 in
    let spins = ref 0 in
    while t.latch.holder >= 0 do
      incr spins;
      Minios.Kernel.yield_point t.kernel
    done;
    if Ldv_obs.enabled () then begin
      let dur = Ldv_obs.now () -. wait_start in
      Ldv_obs.counter "latch.waits";
      Ldv_obs.counter ~by:!spins "latch.wait_rounds";
      Ldv_obs.observe "latch.wait" dur;
      (* who held the latch when the wait began: cross-session causality *)
      Ldv_obs.emit_span
        ~attrs:[ ("latch.holder", string_of_int holder) ]
        ~start:wait_start ~dur "wait.latch"
    end
  end;
  t.latch.holder <- t.session_id;
  (* the server now owns the statement; executing it is a scheduling step
     of its own, so the latch stays held across a quantum boundary and
     cross-session contention is real (and observable) *)
  Minios.Kernel.yield_point t.kernel;
  Database.sync_clock db ~at:(Minios.Kernel.now t.kernel);
  (* with a cluster attached, a pinned read routes to a replica that can
     serve its snapshot exactly; [None] falls back to the leader *)
  let routed =
    match !(t.cluster) with
    | Some cl when kind = Squery && t.snapshot_reads && t.tx = 0 ->
      (* transactional reads stay on the leader: a replica cannot see the
         transaction's own uncommitted writes *)
      Replication.route_read cl ~snapshot
    | Some _ | None -> None
  in
  let response, results, reads, schema, rows, affected, replica =
    Fun.protect
      ~finally:(fun () -> t.latch.holder <- -1)
    @@ fun () ->
    let at_dispatch = Database.clock db in
    (* bind the shared database's ambient session to this session's
       transaction — the previous statement (from any sibling) may have
       left a different one current *)
    if t.mode <> Replay_excluded then begin
      try Database.set_current_tx db t.tx
      with Errors.Db_error (Errors.Tx_state _) ->
        (* the transaction no longer exists (e.g. torn down by a campaign
           between statements): demote the session to autocommit *)
        t.tx <- 0;
        t.tx_snapshot <- 0;
        t.tx_ship <- [];
        Database.set_current_tx db 0
    end;
    let tx_before = t.tx in
    (* first-updater-wins: the losing transaction aborts immediately; its
       writes are rolled back before the typed conflict surfaces, so the
       client can retry the whole transaction from a clean slate *)
    let abort_tx ~detail =
      if t.tx <> 0 then begin
        if Database.current_tx db <> 0 then Database.rollback_tx db;
        t.tx <- 0;
        t.tx_snapshot <- 0;
        t.tx_ship <- [];
        Ldv_obs.counter "tx.abort"
      end;
      Ldv_errors.fail (Ldv_errors.Tx_conflict { op = "db.stmt"; detail })
    in
    if
      t.tx <> 0
      && (match kind with Sinsert | Supdate | Sdelete -> true | _ -> false)
      && Ldv_faults.abort_fault ()
    then abort_tx ~detail:"injected write-write conflict";
    let response, results, reads, schema, rows, affected, at_write, replica =
      try
      match t.mode with
      | Passthrough -> (
        match routed with
        | Some (srv, rid) ->
          let rdb = Server.db srv in
          let resp =
            Database.with_frozen_clock rdb (fun () ->
                Server.handle srv exec_sql)
          in
          (resp, [], Lineage.empty, None, Protocol.response_rows resp, 0, -1, rid)
        | None ->
          let resp = exec_passthrough t exec_sql in
          ( resp, [], Lineage.empty, None, Protocol.response_rows resp, 0,
            at_dispatch, -1 ))
      | Audit_included ->
        let serve, rid =
          match routed with Some (srv, rid) -> (Some srv, rid) | None -> (None, -1)
        in
        let resp, results, reads, schema, rows, affected, at_write =
          exec_audit_included t ~qid ?serve exec_ast exec_sql
        in
        (resp, results, reads, schema, rows, affected, at_write, rid)
      | Audit_excluded ->
        let resp = exec_passthrough t exec_sql in
        let rec_schema, rec_rows, rec_affected =
          Ldv_obs.Ledger.time Ldv_obs.Ledger.Audit_record @@ fun () ->
          let rec_kind, rec_schema, rec_rows, rec_affected =
            match resp with
            | Protocol.Result_set { schema; rows } ->
              (Recorder.Rquery, Some schema, rows, List.length rows)
            | Protocol.Command_ok { affected } ->
              (Recorder.Rdml, None, [], affected)
            | Protocol.Error_response msg ->
              (* the original run failed here; replay must fail identically *)
              (Recorder.Rerror, None, [ [| Value.Str msg |] ], 0)
            | Protocol.Ddl_ok -> (Recorder.Rddl, None, [], 0)
          in
          let record =
            { Recorder.rec_index = qid;
              rec_sql_norm = sql_norm;
              rec_kind;
              rec_schema;
              rec_rows;
              rec_affected }
          in
          t.recorded <- record :: t.recorded;
          (rec_schema, rec_rows, rec_affected)
        in
        ( resp, [], Lineage.empty, rec_schema, rec_rows, rec_affected,
          at_dispatch, -1 )
      | Replay_excluded ->
        let resp = exec_replay_excluded t ~kind sql_norm in
        (resp, [], Lineage.empty, None, Protocol.response_rows resp, 0, -1, -1)
      with Errors.Db_error (Errors.Serialization_failure detail) ->
        abort_tx ~detail
    in
    (* pick up the BEGIN/COMMIT/ROLLBACK transition this statement made *)
    if t.mode <> Replay_excluded then begin
      t.tx <- Database.current_tx db;
      t.tx_snapshot <-
        (if t.tx = 0 then 0
         else Option.value ~default:0 (Database.current_snapshot db))
    end;
    (* ship every successfully executed write to the replicas before the
       latch releases, so the ship order is the execution order;
       transactional writes are held back until their COMMIT executes —
       a replica must never apply writes the leader may yet roll back.
       Transaction control itself never ships, so every shipped record
       is an ordinary statement *)
    (match !(t.cluster) with
    | Some cl
      when kind <> Squery && at_write >= 0 && t.mode <> Replay_excluded -> (
      match response with
      | Protocol.Error_response _ -> ()
      | _ -> (
        match ast with
        | Sql_ast.Begin_tx -> ()
        | Sql_ast.Commit_tx ->
          List.iter
            (fun (at, sql) -> Replication.note_write cl ~at ~kind:Wal.Stmt sql)
            (List.rev t.tx_ship);
          t.tx_ship <- []
        | Sql_ast.Rollback_tx -> t.tx_ship <- []
        | _ ->
          if tx_before <> 0 then
            t.tx_ship <- (at_write, sql_norm) :: t.tx_ship
          else
            Replication.note_write cl ~at:at_write ~kind:Wal.Stmt sql_norm))
    | Some _ | None -> ());
    (response, results, reads, schema, rows, affected, replica)
  in
  (* response returns to the client *)
  Minios.Kernel.advance_to t.kernel ~at:(Database.clock db);
  let t_end = Minios.Kernel.tick t.kernel in
  if Ldv_obs.enabled () then begin
    Ldv_obs.counter ~by:(Protocol.response_bytes response)
      "db.stmt.response_bytes";
    Ldv_obs.observe "db.stmt.roundtrip_ticks" (float_of_int (t_end - t_start))
  end;
  t.log <-
    { qid;
      sid = t.session_id;
      pid;
      sql;
      sql_norm;
      kind;
      t_start;
      t_end;
      snapshot;
      replica;
      results;
      reads;
      schema;
      rows;
      affected;
      response_bytes = Protocol.response_bytes response }
    :: t.log;
  (* statement over: quanta spent between statements must not carry its id *)
  if Ldv_obs.enabled () then Ldv_obs.Trace.set_stmt (-1);
  response

(* ------------------------------------------------------------------ *)
(* Session registry: programs discover their session through the kernel
   they run on, so application code is mode-agnostic. Concurrent runs
   additionally bind a session per (kernel, pid), so each scheduled
   client process connects to its own session; [find_for] falls back to
   the kernel-wide binding for single-session runs.                    *)

let sessions : (Minios.Kernel.t * t) list ref = ref []
let pid_sessions : ((Minios.Kernel.t * int) * t) list ref = ref []

let bind kernel session =
  sessions := (kernel, session) :: List.filter (fun (k, _) -> k != kernel) !sessions

let unbind kernel = sessions := List.filter (fun (k, _) -> k != kernel) !sessions

let bind_for kernel ~pid session =
  pid_sessions :=
    ((kernel, pid), session)
    :: List.filter (fun ((k, p), _) -> not (k == kernel && p = pid)) !pid_sessions

let unbind_for kernel ~pid =
  pid_sessions :=
    List.filter (fun ((k, p), _) -> not (k == kernel && p = pid)) !pid_sessions

let find kernel =
  match List.find_opt (fun (k, _) -> k == kernel) !sessions with
  | Some (_, s) -> s
  | None -> invalid_arg "Interceptor.find: no DB session bound to this kernel"

let find_for kernel ~pid =
  match
    List.find_opt (fun ((k, p), _) -> k == kernel && p = pid) !pid_sessions
  with
  | Some (_, s) -> s
  | None -> find kernel

(** Crash-consistent execution for the minidb server: WAL-before-execute,
    explicit fsync barriers, checkpoints, and redo recovery.

    Layered on {!Server}: every DML/DDL statement is first appended to
    [<data_dir>/wal.log] through the kernel's buffered write path, the
    fsync barrier is raised according to the commit policy below, and only
    then does the statement execute. A {!checkpoint} folds the WAL into a
    single atomic image ([<data_dir>/checkpoint.img]) and empties the log;
    {!recover} rebuilds the database after a crash from the image plus the
    durable WAL suffix.

    Fsync policy: autocommit statements and transaction terminators
    (COMMIT / ROLLBACK) sync the log before executing; BEGIN and
    statements inside an open transaction do not. A crash between a
    transaction's writes and its COMMIT fsync therefore loses the whole
    transaction atomically — its records are either all durable (the
    COMMIT fsync covered them) or dropped as a trailing open transaction
    by {!Wal.durable_cut}.

    Commit policy: [Per_statement] raises the barrier inline, as above.
    [Grouped] (group commit) only marks a sync as pending; the barrier is
    raised by the next {!flush} — under the scheduler, a quantum hook
    flushes once per scheduling round, so all commits within the quantum
    share one fsync. Durability is correspondingly relaxed to the quantum
    boundary: a crash mid-quantum loses the unflushed statements, exactly
    as a crash before a per-statement fsync would lose that statement —
    recovery semantics are unchanged, only the barrier count drops.

    Crash points (see [Ldv_faults.crash_point]) mark the interesting
    windows: [wal.append] (record buffered, nothing synced — tail may
    tear), [wal.pre_fsync] (record complete but not durable),
    [stmt.post_exec] (durable but memory state ahead of the last
    checkpoint), [ckpt.image] (new image buffered only), [ckpt.pre_rename]
    (image durable under its temporary name), [ckpt.pre_gc] (image
    published, WAL not yet emptied — recovery must not double-apply), and
    [tx.undo] (mid-way through a rollback's undo walk). *)

open Minidb

type commit_policy = Per_statement | Grouped

type t = {
  server : Server.t;
  kernel : Minios.Kernel.t;
  pid : int;  (** the server process performing WAL/checkpoint I/O *)
  mutable next_seq : int;  (** sequence number of the next WAL record *)
  sids : (int, int) Hashtbl.t;
      (** session id -> its open transaction id; the handle multiplexes
          many sessions over one database by switching the ambient
          transaction around each statement *)
  mutable policy : commit_policy;
  mutable pending_sync : bool;  (** a grouped commit awaits the next flush *)
  mutable fsync_barriers : int;  (** barriers raised over this handle *)
  (* group-commit stall accounting (collected only while a sink is
     enabled): when the batch's first sync was deferred and in which
     scheduler round, so [flush] can report the stall and rounds-deferred *)
  mutable pending_count : int;
  mutable pending_first : float;
  mutable pending_round : int;
}

let server t = t.server
let next_seq t = t.next_seq
let policy t = t.policy
let set_policy t p = t.policy <- p
let fsync_barriers t = t.fsync_barriers

let wal_path (server : Server.t) = Server.data_dir server ^ "/wal.log"
let checkpoint_path (server : Server.t) = Server.data_dir server ^ "/checkpoint.img"
let checkpoint_tmp_path (server : Server.t) = checkpoint_path server ^ ".new"

(* The published checkpoint's bytes, if there is one. *)
let checkpoint_bytes vfs server =
  Option.bind
    (Minios.Vfs.find_opt vfs (checkpoint_path server))
    (fun f -> Minios.Vfs.content_bytes f.Minios.Vfs.content)

let kind_of_sql (sql : string) : Wal.kind =
  match Sql_parser.parse sql with
  | Sql_ast.Begin_tx -> Wal.Begin
  | Sql_ast.Commit_tx -> Wal.Commit
  | Sql_ast.Rollback_tx -> Wal.Rollback
  | _ -> Wal.Stmt

(** Wrap a freshly installed (or recovered) server whose process [pid]
    performs the durability I/O. [next_seq] continues from whatever the
    checkpoint and log already contain. A caller that wrote the
    checkpoint itself passes the sequence number it covers as
    [checkpoint_seq], so the checkpoint need not be read. *)
let start ?checkpoint_seq (kernel : Minios.Kernel.t) (server : Server.t) ~pid
    : t =
  let vfs = Minios.Kernel.vfs kernel in
  let ck_seq =
    match checkpoint_seq with
    | Some seq -> seq
    | None -> (
      match checkpoint_bytes vfs server with
      | Some payload -> Server.checkpoint_seq payload
      | None -> 0)
  in
  let wal_seq =
    List.fold_left
      (fun acc (r : Wal.record) -> max acc r.Wal.seq)
      0
      (Wal.load vfs (wal_path server)).Wal.records
  in
  let t =
    { server;
      kernel;
      pid;
      next_seq = max ck_seq wal_seq + 1;
      sids = Hashtbl.create 8;
      policy = Per_statement;
      pending_sync = false;
      fsync_barriers = 0;
      pending_count = 0;
      pending_first = 0.0;
      pending_round = 0 }
  in
  (* let crash campaigns kill the process mid-rollback *)
  Database.on_undo_step := (fun () -> Ldv_faults.crash_point ~site:"tx.undo");
  Ldv_obs.register_quantum_gauge "wal.fsync_barriers" (fun () ->
      float_of_int t.fsync_barriers);
  t

(** Boot a fresh durable server, with an empty database under the default
    data directory, on a fresh simulated machine. *)
let boot () : Minios.Kernel.t * t =
  let kernel = Minios.Kernel.create () in
  let server = Server.attach (Database.create ()) in
  let proc = Minios.Kernel.start_process kernel ~name:"minidb-server" () in
  (kernel, start kernel server ~pid:proc.Minios.Kernel.pid)

(** Raise one fsync barrier over the WAL. *)
let barrier (t : t) : unit =
  Ldv_obs.Ledger.time Ldv_obs.Ledger.Fsync @@ fun () ->
  Ldv_faults.crash_point ~site:"wal.pre_fsync";
  Minios.Kernel.fsync_path t.kernel ~pid:t.pid ~path:(wal_path t.server);
  t.fsync_barriers <- t.fsync_barriers + 1;
  Ldv_obs.counter "wal.fsync"

(** Make every pending grouped commit durable with a single barrier; a
    no-op when nothing is pending. Under the scheduler this runs as a
    quantum hook, once per scheduling round. *)
let flush (t : t) : unit =
  if t.pending_sync then begin
    t.pending_sync <- false;
    barrier t;
    Ldv_obs.counter "wal.group_commit";
    if Ldv_obs.enabled () && t.pending_count > 0 then begin
      (* the batch stalled from its first deferred sync until this barrier *)
      let stall = Ldv_obs.now () -. t.pending_first in
      Ldv_obs.observe "wal.group_commit.stall" stall;
      Ldv_obs.counter
        ~by:(max 0 (Minios.Kernel.rounds t.kernel - t.pending_round))
        "wal.group_commit.rounds_deferred";
      Ldv_obs.counter ~by:t.pending_count "wal.group_commit.batched";
      Ldv_obs.emit_span
        ~attrs:[ ("wal.batch", string_of_int t.pending_count) ]
        ~start:t.pending_first ~dur:stall "wait.group-commit"
    end;
    t.pending_count <- 0
  end

(* Point the database's ambient session at [sid]'s open transaction (none
   = autocommit). Defensive about a transaction that vanished underneath
   the map (e.g. rolled back behind our back): falls back to autocommit. *)
let switch_session (t : t) (db : Database.t) ~sid =
  let tx = Option.value ~default:0 (Hashtbl.find_opt t.sids sid) in
  try Database.set_current_tx db tx
  with Minidb.Errors.Db_error _ ->
    Hashtbl.remove t.sids sid;
    Database.set_current_tx db 0

(* After a statement, remember where [sid]'s session ended up (BEGIN
   opened a transaction, COMMIT/ROLLBACK closed one, errors left it). *)
let note_session (t : t) (db : Database.t) ~sid =
  match Database.current_tx db with
  | 0 -> Hashtbl.remove t.sids sid
  | id -> Hashtbl.replace t.sids sid id

(** Execute one SQL statement durably for session [sid]: log, sync if the
    policy demands it, then run it. Returns the server's response. *)
let exec ?(sid = 0) (t : t) (sql : string) : Protocol.response =
  let kind = kind_of_sql sql in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let path = wal_path t.server in
  Ldv_obs.Ledger.time Ldv_obs.Ledger.Wal_append (fun () ->
      Wal.append t.kernel ~pid:t.pid ~path { Wal.seq; kind; sid; sql });
  Ldv_faults.crash_point ~site:"wal.append";
  let db = Server.db t.server in
  let sync_needed =
    match kind with
    | Wal.Commit | Wal.Rollback -> true
    | Wal.Begin -> false
    | Wal.Stmt -> not (Hashtbl.mem t.sids sid)
  in
  if sync_needed then begin
    match t.policy with
    | Per_statement -> barrier t
    | Grouped ->
      t.pending_sync <- true;
      Ldv_obs.counter "wal.deferred_sync";
      if Ldv_obs.enabled () then begin
        if t.pending_count = 0 then begin
          t.pending_first <- Ldv_obs.now ();
          t.pending_round <- Minios.Kernel.rounds t.kernel
        end;
        t.pending_count <- t.pending_count + 1
      end
  end;
  switch_session t db ~sid;
  let resp = Server.handle t.server (Protocol.Statement { sql }) in
  note_session t db ~sid;
  Ldv_faults.crash_point ~site:"stmt.post_exec";
  resp

(** Arm group commit on this handle: switch the policy and register the
    flush as a quantum hook so each scheduling round ends with at most
    one barrier covering every commit of the quantum. *)
let enable_group_commit (t : t) : unit =
  t.policy <- Grouped;
  Minios.Kernel.register_quantum_hook t.kernel ~name:"wal.group-commit"
    (fun () -> flush t)

(** Fold the current database state into a fresh checkpoint image and
    empty the WAL. The image is written to a temporary name, fsynced,
    and atomically renamed into place before the log is truncated, so a
    crash in any window leaves either the old image + full log or the new
    image (+ a log whose covered prefix recovery skips by sequence
    number). The image is captured here and encoded only when something
    reads it ({!Server.checkpoint_content}). Must not run inside an open
    transaction. *)
let checkpoint (t : t) : unit =
  Ldv_obs.with_span "server.checkpoint" @@ fun () ->
  let db = Server.db t.server in
  if Database.open_tx_count db > 0 then
    invalid_arg "Durable.checkpoint: open transaction";
  (* the image must not get ahead of the log's durable prefix *)
  flush t;
  let image = Server.checkpoint_content db ~last_seq:(t.next_seq - 1) in
  let tmp = checkpoint_tmp_path t.server in
  Minios.Kernel.overwrite_path_content t.kernel ~pid:t.pid ~path:tmp image;
  Ldv_faults.crash_point ~site:"ckpt.image";
  Minios.Kernel.fsync_path t.kernel ~pid:t.pid ~path:tmp;
  Ldv_faults.crash_point ~site:"ckpt.pre_rename";
  Minios.Kernel.rename_path t.kernel ~pid:t.pid ~src:tmp
    ~dst:(checkpoint_path t.server);
  Ldv_faults.crash_point ~site:"ckpt.pre_gc";
  let wal = wal_path t.server in
  Minios.Kernel.overwrite_path t.kernel ~pid:t.pid ~path:wal "";
  Minios.Kernel.fsync_path t.kernel ~pid:t.pid ~path:wal;
  Ldv_obs.counter "server.checkpoint"

type recovery = {
  checkpoint_seq : int;  (** WAL records at or below this were skipped *)
  redone : int;  (** durable records re-executed *)
  dropped : int;  (** open-transaction records discarded *)
  dropped_records : Wal.record list;
      (** the discarded records themselves (original order): campaigns map
          them back to the transactions that were rolled back *)
  torn_bytes : int;  (** trailing log bytes discarded as torn/corrupt *)
  redo_upto : int;  (** highest sequence number folded into the DB *)
}

(** Rebuild the database after a crash: load the checkpoint image if one
    is published, discard any stray temporary image, then redo the
    durable WAL suffix past the checkpoint — stopping before a trailing
    open transaction, whose records are dropped. Records replay
    *literally* (BEGIN / COMMIT / ROLLBACK included), so a durably
    rolled-back transaction re-executes and re-undoes itself, keeping the
    logical clock aligned with an uncrashed run. Ends with a fresh
    checkpoint so the log is empty for the resumed workload.

    [apply:false] ([ldv check crash --no-recover]) parses but skips the
    redo and final checkpoint: the debug mode that demonstrates the
    verifier catches lost work. *)
let recover ?(apply = true) (kernel : Minios.Kernel.t) ~data_dir () :
    t * recovery =
  Ldv_obs.with_span "server.recover" @@ fun () ->
  let db = Database.create () in
  let server = Server.attach ~data_dir db in
  let proc = Minios.Kernel.start_process kernel ~name:"minidb-server" () in
  let pid = proc.Minios.Kernel.pid in
  let vfs = Minios.Kernel.vfs kernel in
  (* a stray temporary image is a checkpoint that never published *)
  Minios.Vfs.remove vfs (checkpoint_tmp_path server);
  let ck_seq =
    match checkpoint_bytes vfs server with
    | Some payload -> Server.restore_checkpoint db payload
    | None -> 0
  in
  let loaded = Wal.load vfs (wal_path server) in
  let suffix =
    List.filter (fun (r : Wal.record) -> r.Wal.seq > ck_seq) loaded.Wal.records
  in
  let replay, dropped, redo_upto = Wal.durable_cut ~fallback:ck_seq suffix in
  if apply then begin
    (* records replay literally, but under the session (and so the open
       transaction) that logged them: a durably committed transaction
       re-executes BEGIN..COMMIT with foreign statements interleaved
       exactly as at run time, reproducing the original version stamps *)
    let sids = Hashtbl.create 8 in
    List.iter
      (fun (r : Wal.record) ->
        let tx =
          Option.value ~default:0 (Hashtbl.find_opt sids r.Wal.sid)
        in
        (try Database.set_current_tx db tx
         with Minidb.Errors.Db_error _ -> Database.set_current_tx db 0);
        ignore (Server.handle server (Protocol.Statement { sql = r.Wal.sql }));
        match Database.current_tx db with
        | 0 -> Hashtbl.remove sids r.Wal.sid
        | id -> Hashtbl.replace sids r.Wal.sid id)
      replay;
    (* every replayed transaction is durably terminated, so nothing can be
       left open here; reset the ambient session all the same *)
    Database.set_current_tx db 0
  end;
  if Ldv_obs.enabled () then begin
    Ldv_obs.counter ~by:(List.length replay) "server.recover.redone";
    Ldv_obs.counter ~by:(List.length dropped) "server.recover.dropped";
    Ldv_obs.counter ~by:loaded.Wal.torn_bytes "server.recover.torn_bytes"
  end;
  let t =
    { server;
      kernel;
      pid;
      next_seq = redo_upto + 1;
      sids = Hashtbl.create 8;
      policy = Per_statement;
      pending_sync = false;
      fsync_barriers = 0;
      pending_count = 0;
      pending_first = 0.0;
      pending_round = 0 }
  in
  Database.on_undo_step := (fun () -> Ldv_faults.crash_point ~site:"tx.undo");
  Ldv_obs.register_quantum_gauge "wal.fsync_barriers" (fun () ->
      float_of_int t.fsync_barriers);
  if apply then checkpoint t;
  ( t,
    { checkpoint_seq = ck_seq;
      redone = List.length replay;
      dropped = List.length dropped;
      dropped_records = dropped;
      torn_bytes = loaded.Wal.torn_bytes;
      redo_upto } )

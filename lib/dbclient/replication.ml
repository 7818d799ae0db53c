(** WAL-shipping replication: one leader, N read replicas.

    Every leader write becomes one CRC-framed WAL record in a retained
    ship log, pushed to each live replica over the (simulated) network.
    {!exec} runs the write through the leader's {!Durable} handle, so it
    also reaches the leader's own WAL; a session write runs through
    {!Server.handle} on the leader and is then shipped by {!note_write},
    so it reaches only the ship log, never the leader's WAL. A replica
    applies records strictly in sequence — out-of-order arrivals are
    stashed until the gap closes — and serves snapshot-pinned reads at its
    applied version with a frozen clock, so serving a read never perturbs
    the tuple-version stamps that must stay byte-identical with the
    leader's.

    A replica checkpoints once it has applied as many records since its
    last checkpoint (or base backup) as that checkpoint held live rows,
    and never fewer than [ckpt_every]: a checkpoint costs O(rows), so
    each applied record costs O(1) amortized, and a crash never redoes
    more records than the restored image holds rows.

    Every ship frame carries the leader's logical clock as observed
    immediately before the shipped statement executed; the replica syncs
    to that clock before applying, so both nodes stamp the statement's
    tuple versions identically. That clock parity is what makes
    "byte-identical convergence" a checkable property rather than a hope.

    Failure model (all injection via {!Ldv_faults}):
    - the ship channel can drop, garble, or reorder frames
      ([ship_fault]); drops and garbles are retried under
      {!Ldv_faults.with_retries} (a garbled frame fails the replica-side
      CRC check and is resent), reorders are absorbed by the replica's
      sequence stash;
    - a replica can crash mid-apply (crash point [repl.apply]): its
      process loses unsynced state ({!Minios.Vfs.crash_under} restricted
      to its data directory, with a torn WAL tail), and recovery is the
      ordinary checkpoint + durable-WAL-redo path ({!Durable.recover})
      followed by catch-up resync from the leader's retained ship log —
      {!Wal.load}'s torn-tail handling plus {!Wal.durable_cut} find the
      resync start;
    - a push that exhausts its retries marks the replica [Lagging]: it
      stops receiving pushes (preserving apply order) and is repaired
      opportunistically by catch-up on a later write.

    Reads route round-robin across replicas. The replica campaigns' reads
    ({!read}) skip a replica that is down, mid transaction, or lagging
    beyond the staleness bound, and when no replica qualifies the read
    falls back to the leader ([repl.fallbacks]). A read served by a
    replica that lags within the bound is stale but never wrong: it is
    pinned at the replica's applied version, which the control verifier
    re-checks [AS OF] that version. Session reads ({!route_read}) ignore
    the bound: a replica serves one only if it can answer the pinned
    snapshot exactly. *)

open Minidb

type state = Up | Lagging | Down

let state_name = function Up -> "up" | Lagging -> "lagging" | Down -> "down"

(* One shipped record: the WAL frame plus the leader clock observed right
   before the statement executed and the originating statement's trace id
   (0 = none), so replica-side apply spans join the statement's causal
   tree in the cluster timeline. *)
type ship_msg = { rec_ : Wal.record; at : int; tr : int }

type replica = {
  rep_id : int;
  rep_data_dir : string;
  mutable rep_durable : Durable.t;
  mutable rep_state : state;
  mutable rep_applied : int;  (** highest sequence folded into the DB *)
  mutable rep_delayed : ship_msg option;  (** held back by a reorder fault *)
  mutable rep_stash : ship_msg list;  (** out-of-order arrivals, by seq *)
  mutable rep_ckpt_due : int;  (** applies until the next local checkpoint *)
}

(* Applies until the next checkpoint of a replica whose database [db]
   was just captured whole (base backup, checkpoint, recovery): the live
   rows the capture held, and at least [ckpt_every]. *)
let ckpt_due ~ckpt_every (db : Database.t) =
  let rows = ref 0 in
  Catalog.iter (Database.catalog db) (fun table ->
      rows := !rows + Table.row_count table);
  max ckpt_every !rows

type t = {
  kernel : Minios.Kernel.t;
  leader : Durable.t;
  ship_log : string;
      (** retained copy of every shipped record — never truncated, so it
          is always a valid catch-up source *)
  clocks : (int, int) Hashtbl.t;  (** seq -> leader clock before execute *)
  traces : (int, int) Hashtbl.t;
      (** seq -> originating trace id, so catch-up re-ships frames with
          their original causal identity *)
  staleness : int;
      (** max records of lag a replica may serve {!read}s at *)
  torn : int -> int;  (** unsynced bytes -> surviving torn tail, per crash *)
  ckpt_every : int;
      (** fewest applies between two replica checkpoints; a replica
          whose last checkpoint held more live rows waits that many *)
  replicas : replica array;
  mutable ship_seq : int;  (** last sequence appended to the ship log *)
  mutable rr : int;  (** round-robin read cursor *)
}

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

let leader_db t = Server.db (Durable.server t.leader)
let replica_db t i = Server.db (Durable.server t.replicas.(i).rep_durable)
let replica_count t = Array.length t.replicas
let staleness t = t.staleness
let ship_seq t = t.ship_seq
let leader t = t.leader
let replica_applied t i = t.replicas.(i).rep_applied
let replica_state t i = t.replicas.(i).rep_state
let lag t (rep : replica) = t.ship_seq - rep.rep_applied

let data_dir_of i = Printf.sprintf "/var/minidb/replica%d" i

(** Build a cluster of [replicas] read replicas behind [leader]. Each
    replica bootstraps from a base backup — one capture of the leader's
    current state, restored into the replica as it is and persisted as
    the replica's own initial checkpoint so node-local crash recovery can
    rebuild from it — and then follows the ship stream. The checkpoint
    files are deferred content over the capture: only a recovery that
    reads one encodes it, once for all replicas.
    [staleness] bounds how many records behind a replica may be while
    still serving reads through {!read} (the replica campaigns); reads
    routed by {!route_read}, as every interceptor session's are, are
    always exact and ignore it. [torn] maps a crashed replica's
    unsynced WAL byte count to the surviving torn-tail length (campaigns
    pass a seeded draw; the default loses everything unsynced).
    A replica checkpoints after [max ckpt_every R] applies, where R is
    the live row count of its base backup or last checkpoint: over a
    10k-row table it checkpoints once per 10k applies, over a table
    smaller than [ckpt_every] rows every [ckpt_every] applies. *)
let create (kernel : Minios.Kernel.t) ~(leader : Durable.t) ~replicas
    ?(staleness = 4) ?(torn = fun _ -> 0) ?(ckpt_every = 8) () : t =
  if replicas < 0 then invalid_arg "Replication.create: replicas < 0";
  let vfs = Minios.Kernel.vfs kernel in
  let ship_seq0 = Durable.next_seq leader - 1 in
  (* one capture of the leader: the replicas' checkpoint files share its
     deferred encoding, and each replica restores it as it is *)
  let capture = Server.capture_checkpoint (Server.db (Durable.server leader)) in
  let base = Server.capture_content capture ~last_seq:ship_seq0 in
  let reps =
    Array.init replicas (fun i ->
        let data_dir = data_dir_of i in
        (* persist the base backup as the replica's initial checkpoint:
           a crash before its first own checkpoint must not lose it *)
        Minios.Vfs.write vfs ~path:(data_dir ^ "/checkpoint.img") base;
        let db = Database.create () in
        Server.restore_capture db capture;
        let server = Server.attach ~data_dir db in
        let proc =
          Minios.Kernel.start_process kernel
            ~name:(Printf.sprintf "minidb-replica%d" i)
            ()
        in
        let d =
          Durable.start ~checkpoint_seq:ship_seq0 kernel server
            ~pid:proc.Minios.Kernel.pid
        in
        { rep_id = i;
          rep_data_dir = data_dir;
          rep_durable = d;
          rep_state = Up;
          rep_applied = ship_seq0;
          rep_delayed = None;
          rep_stash = [];
          rep_ckpt_due = ckpt_due ~ckpt_every db })
  in
  let t =
    { kernel;
      leader;
      ship_log = "/var/minidb/ship.log";
      clocks = Hashtbl.create 256;
      traces = Hashtbl.create 256;
      staleness;
      torn;
      ckpt_every;
      replicas = reps;
      ship_seq = ship_seq0;
      rr = 0 }
  in
  Ldv_obs.register_quantum_gauge "repl.lag" (fun () ->
      Array.fold_left
        (fun acc rep -> Float.max acc (float_of_int (lag t rep)))
        0.0 t.replicas);
  t

(* ------------------------------------------------------------------ *)
(* Ship frames: the WAL frame prefixed with the leader clock and the
   originating trace id.                                               *)

let encode_ship (msg : ship_msg) : string =
  Printf.sprintf "!%d %d\n%s" msg.at msg.tr (Wal.encode msg.rec_)

let decode_ship (frame : string) : ship_msg option =
  if String.length frame = 0 || frame.[0] <> '!' then None
  else
    match String.index_opt frame '\n' with
    | None -> None
    | Some nl -> (
      match
        String.split_on_char ' ' (String.sub frame 1 (nl - 1))
      with
      | [ at_s; tr_s ] -> (
        match (int_of_string_opt at_s, int_of_string_opt tr_s) with
        | Some at, Some tr -> (
          let rest =
            String.sub frame (nl + 1) (String.length frame - nl - 1)
          in
          match Wal.decode_frame rest with
          | Some rec_ -> Some { rec_; at; tr }
          | None -> None)
        | _ -> None)
      | _ -> None)

(* Deterministic single-byte corruption of a ship frame. *)
let garble (frame : string) ~seq : string =
  let b = Bytes.of_string frame in
  let off = seq * 131 mod Bytes.length b in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x20));
  Bytes.to_string b

(* ------------------------------------------------------------------ *)
(* Replica-side apply.                                                 *)

let maybe_checkpoint (rep : replica) ~ckpt_every =
  rep.rep_ckpt_due <- rep.rep_ckpt_due - 1;
  let db = Server.db (Durable.server rep.rep_durable) in
  if rep.rep_ckpt_due <= 0 && not (Database.in_transaction db) then begin
    Durable.checkpoint rep.rep_durable;
    rep.rep_ckpt_due <- ckpt_due ~ckpt_every db
  end

(** Apply one shipped record at [rep], strictly in sequence: duplicates
    are dropped, gaps are stashed until the missing record arrives. The
    replica syncs its clock to the shipped leader clock first, so both
    nodes stamp this statement's tuple versions identically.
    @raise Ldv_faults.Crash when the [repl.apply] crash point detonates. *)
let rec apply t (rep : replica) (msg : ship_msg) : unit =
  Ldv_faults.crash_point ~site:"repl.apply";
  let seq = msg.rec_.Wal.seq in
  if seq <= rep.rep_applied then Ldv_obs.counter "repl.apply.dup"
  else if seq = rep.rep_applied + 1 then begin
    (* The apply span runs under the *originating* statement's trace id
       (carried by the frame), stamped with the answering node, so live
       pushes and asynchronous catch-up applies parent identically into
       the cluster-wide causal tree. *)
    let apply_body () =
      Ldv_obs.with_span
        ~attrs:[ ("repl.node", string_of_int rep.rep_id) ]
        "repl.apply"
        (fun () ->
          let db = Server.db (Durable.server rep.rep_durable) in
          Database.sync_clock db ~at:msg.at;
          ignore (Durable.exec rep.rep_durable msg.rec_.Wal.sql))
    in
    (if msg.tr > 0 && Ldv_obs.enabled () then begin
       let origin = Ldv_obs.Trace.make () in
       let prev = Ldv_obs.Trace.use origin in
       Ldv_obs.Trace.set_trace msg.tr;
       Fun.protect
         ~finally:(fun () ->
           ignore (Ldv_obs.Trace.use prev : Ldv_obs.Trace.ctx))
         apply_body
     end
     else apply_body ());
    rep.rep_applied <- seq;
    if Ldv_obs.enabled () then Ldv_obs.counter "repl.applied";
    maybe_checkpoint rep ~ckpt_every:t.ckpt_every;
    match rep.rep_stash with
    | m :: rest when m.rec_.Wal.seq <= rep.rep_applied + 1 ->
      rep.rep_stash <- rest;
      apply t rep m
    | _ -> ()
  end
  else begin
    (* gap: hold until the missing records arrive (reordered frames) *)
    rep.rep_stash <-
      List.sort_uniq
        (fun a b -> compare a.rec_.Wal.seq b.rec_.Wal.seq)
        (msg :: rep.rep_stash);
    Ldv_obs.counter "repl.apply.out_of_order"
  end

exception Reordered

(* One frame over the wire, through the fault gate, with retries: a
   dropped frame never arrives (transient — resent), a garbled frame
   fails the replica's CRC check (transient — resent), a reordered frame
   escapes as [Reordered] for the caller to delay. [op] labels the retry
   telemetry site: "repl.ship" for live pushes, "repl.catchup" for
   resync. *)
let deliver t (rep : replica) ~allow_reorder ~op (msg : ship_msg) : unit =
  Ldv_faults.with_retries ~attempts:6 ~cap_ms:64.0 ~op (fun () ->
      let fault = Ldv_faults.ship_fault () in
      match fault with
      | Some `Drop ->
        Ldv_errors.fail (Ldv_errors.Connection_lost { context = op })
      | Some `Reorder when allow_reorder -> raise Reordered
      | (Some `Garble | Some `Reorder | None) as fault -> (
        let frame = encode_ship msg in
        let wire =
          match fault with
          | Some `Garble -> garble frame ~seq:msg.rec_.Wal.seq
          | _ -> frame
        in
        match decode_ship wire with
        | None ->
          Ldv_errors.fail (Ldv_errors.Protocol_garbled { context = op })
        | Some msg' ->
          Ldv_obs.with_span
            ~attrs:[ ("repl.node", string_of_int rep.rep_id) ]
            "repl.ship"
            (fun () -> apply t rep msg')))

(* ------------------------------------------------------------------ *)
(* Crash / recover / catch-up.                                         *)

(** Node-local power failure of one replica: its unsynced state is lost
    (a seeded torn tail of its WAL may survive), its in-memory stash and
    delayed frames vanish, and it stops serving until recovered. *)
let crash_replica t (rep : replica) : unit =
  Ldv_obs.counter "repl.crash";
  rep.rep_state <- Down;
  rep.rep_delayed <- None;
  rep.rep_stash <- [];
  let vfs = Minios.Kernel.vfs t.kernel in
  let wal = Durable.wal_path (Durable.server rep.rep_durable) in
  let unsynced = Minios.Vfs.unsynced_bytes vfs wal in
  let keep = if unsynced > 0 then [ (wal, t.torn unsynced) ] else [] in
  Minios.Vfs.crash_under vfs ~keep rep.rep_data_dir

(** Resync [rep] from the leader's retained ship log: load it (tolerating
    a torn tail), cut at the last record outside an open transaction, and
    re-deliver everything past the replica's applied sequence. Skipped
    while the leader holds a transaction open — the cut would exclude its
    suffix anyway — and a fully caught-up replica returns to [Up].
    @raise Ldv_faults.Crash when the replica crashes mid-apply. *)
let catch_up t (rep : replica) : unit =
  if rep.rep_state <> Down && not (Database.in_transaction (leader_db t))
  then
    Ldv_obs.with_span "repl.catchup" @@ fun () ->
    let vfs = Minios.Kernel.vfs t.kernel in
    let loaded = Wal.load vfs t.ship_log in
    let replayable, _dropped, _redo = Wal.durable_cut loaded.Wal.records in
    let missing =
      List.filter
        (fun (r : Wal.record) -> r.Wal.seq > rep.rep_applied)
        replayable
    in
    Ldv_obs.observe "repl.catchup.records"
      (float_of_int (List.length missing));
    List.iter
      (fun (r : Wal.record) ->
        let at =
          match Hashtbl.find_opt t.clocks r.Wal.seq with
          | Some c -> c
          | None -> 0 (* unknown origin clock: apply without syncing *)
        in
        let tr =
          match Hashtbl.find_opt t.traces r.Wal.seq with
          | Some id -> id
          | None -> 0
        in
        deliver t rep ~allow_reorder:false ~op:"repl.catchup"
          { rec_ = r; at; tr })
      missing;
    rep.rep_stash <- [];
    rep.rep_delayed <- None;
    if rep.rep_applied >= t.ship_seq then rep.rep_state <- Up

(** Recover a crashed replica: ordinary checkpoint + durable-WAL redo on
    its own data directory, then catch-up resync from the leader's ship
    log. A recovery whose catch-up fails (or crashes again) leaves the
    replica [Lagging] (or [Down]); later writes retry the repair. *)
let recover_replica t (rep : replica) : unit =
  if rep.rep_state = Down then begin
    Ldv_obs.with_span "repl.recover" @@ fun () ->
    let d, stats = Durable.recover t.kernel ~data_dir:rep.rep_data_dir () in
    rep.rep_durable <- d;
    rep.rep_applied <- stats.Durable.redo_upto;
    rep.rep_state <- Lagging;
    rep.rep_ckpt_due <-
      ckpt_due ~ckpt_every:t.ckpt_every (Server.db (Durable.server d));
    Ldv_obs.counter "repl.recover";
    match catch_up t rep with
    | () -> ()
    | exception Ldv_faults.Crash _ -> crash_replica t rep
    | exception Ldv_errors.Error _ -> () (* still lagging; retried later *)
  end

(** {!recover_replica} by replica id, for workload drivers that track
    replicas by index. *)
let recover t i = recover_replica t t.replicas.(i)

(** Pids of the replication machinery (the leader's durable writer and
    every replica's server process): audits exclude their file writes —
    ship log, replica WALs and checkpoints — from the application's
    recorded outputs. *)
let pids t =
  t.leader.Durable.pid
  :: Array.to_list
       (Array.map (fun rep -> rep.rep_durable.Durable.pid) t.replicas)

(* ------------------------------------------------------------------ *)
(* Leader-side shipping.                                               *)

(* Push one frame to one replica, absorbing its failure modes: a crash
   takes the replica down, exhausted retries (or any other typed error)
   leave it lagging for catch-up to repair. *)
let push t (rep : replica) (msg : ship_msg) : unit =
  let deliver_quiet m =
    match deliver t rep ~allow_reorder:false ~op:"repl.ship" m with
    | () -> ()
    | exception Reordered -> assert false
  in
  match rep.rep_state with
  | Down | Lagging -> ()
  | Up -> (
    try
      match rep.rep_delayed with
      | Some held ->
        (* the held frame travels behind the newer one: out of order on
           the wire, reassembled by the replica's stash *)
        rep.rep_delayed <- None;
        deliver_quiet msg;
        deliver_quiet held
      | None -> (
        try deliver t rep ~allow_reorder:true ~op:"repl.ship" msg
        with Reordered ->
          rep.rep_delayed <- Some msg;
          Ldv_obs.counter "repl.ship.held")
    with
    | Ldv_faults.Crash _ -> crash_replica t rep
    | Ldv_errors.Error _ ->
      rep.rep_state <- Lagging;
      Ldv_obs.counter "repl.ship.gave_up")

(* Opportunistic repair: any lagging replica is caught up from the ship
   log as soon as the leader is between transactions. *)
let repair_lagging t =
  Array.iter
    (fun rep ->
      if rep.rep_state = Lagging then
        match catch_up t rep with
        | () -> ()
        | exception Ldv_faults.Crash _ -> crash_replica t rep
        | exception Ldv_errors.Error _ -> ())
    t.replicas

(** Record one executed leader write into the ship stream: append the
    frame, a record of [kind], to the retained ship log (durably),
    remember the leader clock [at] observed before the write executed,
    and push to every live replica. Used by the interceptor after the
    session path has already executed the statement on the leader. *)
let note_write t ~at ~(kind : Wal.kind) (sql : string) : unit =
  let seq = t.ship_seq + 1 in
  t.ship_seq <- seq;
  let rec_ = { Wal.seq; kind; sid = 0; sql } in
  let pid = t.leader.Durable.pid in
  Ldv_obs.Ledger.time Ldv_obs.Ledger.Wal_append (fun () ->
      Wal.append t.kernel ~pid ~path:t.ship_log rec_);
  Ldv_obs.Ledger.time Ldv_obs.Ledger.Fsync (fun () ->
      Minios.Kernel.fsync_path t.kernel ~pid ~path:t.ship_log);
  Hashtbl.replace t.clocks seq at;
  (* the ambient trace id is the originating statement's: note_write runs
     inside the interceptor's statement (or COMMIT) execution *)
  let tr = Ldv_obs.Trace.id () in
  Hashtbl.replace t.traces seq tr;
  if Ldv_obs.enabled () then Ldv_obs.counter "repl.shipped";
  let msg = { rec_; at; tr } in
  Array.iter (fun rep -> push t rep msg) t.replicas;
  repair_lagging t

(** Execute one write on the leader and ship it. Statements the leader
    rejects are not shipped (they changed nothing).
    @raise Minidb.Errors.Db_error [Parse_error] when [sql] does not
    parse; nothing is logged or shipped then. *)
let exec t (sql : string) : Protocol.response =
  let stmt = Database.parse sql in
  let at = Database.clock (leader_db t) in
  let resp = Durable.exec_ast t.leader ~sql stmt in
  (match resp with
  | Protocol.Error_response _ -> ()
  | _ -> note_write t ~at ~kind:(Wal.kind_of_statement stmt) sql);
  resp

(* ------------------------------------------------------------------ *)
(* Read routing.                                                       *)

(** Can [rep] serve a read pinned at [snapshot] *exactly*? Yes when it is
    up, outside any transaction, and every leader write whose version
    stamps could be visible at [snapshot] has been applied — either the
    replica is fully caught up, or its next missing record's origin clock
    already lies at/after the snapshot. *)
let can_serve_exact t (rep : replica) ~snapshot =
  rep.rep_state = Up
  && (not
        (Database.in_transaction (Server.db (Durable.server rep.rep_durable))))
  && (rep.rep_applied >= t.ship_seq
     ||
     match Hashtbl.find_opt t.clocks (rep.rep_applied + 1) with
     | Some c -> c >= snapshot
     | None -> false)

(** Route a snapshot-pinned read: the next replica (round-robin) that can
    serve [snapshot] exactly, or [None] — counted as a fallback — when
    none can. Returns the replica's server and id; the caller executes
    the pinned query there under {!Database.with_frozen_clock}. *)
let route_read t ~snapshot : (Server.t * int) option =
  let n = Array.length t.replicas in
  let rec go i =
    if i >= n then None
    else
      let rep = t.replicas.((t.rr + i) mod n) in
      if can_serve_exact t rep ~snapshot then Some rep else go (i + 1)
  in
  let picked = if n = 0 then None else go 0 in
  t.rr <- t.rr + 1;
  match picked with
  | Some rep ->
    if Ldv_obs.enabled () then Ldv_obs.counter "repl.reads.replica";
    Some (Durable.server rep.rep_durable, rep.rep_id)
  | None ->
    if n > 0 && Ldv_obs.enabled () then Ldv_obs.counter "repl.fallbacks";
    None

(** A read served by the degraded-mode router. [sv_node] is the replica
    that answered (-1 = leader), [sv_version] the version the answer is
    pinned at. *)
type served = {
  sv_resp : Protocol.response;
  sv_node : int;
  sv_version : int;
}

(* Serve [ast] on [server]'s database pinned AS OF its current clock,
   clock-frozen, and outside the ambient transaction, restored
   afterwards: replicas (and the leader, in degraded fallback) answer
   reads without perturbing their version stamps, and never with the
   uncommitted writes of a transaction {!exec} holds open. *)
let serve_pinned (server : Server.t) (ast : Sql_ast.statement) : served * int
    =
  let db = Server.db server in
  let snap = Database.clock db in
  let pinned = Snapshot_pin.pin_statement snap ast in
  let tx = Database.current_tx db in
  Database.set_current_tx db 0;
  let resp =
    Fun.protect
      ~finally:(fun () -> Database.set_current_tx db tx)
      (fun () ->
        Database.with_frozen_clock db (fun () -> Server.exec_ast server pinned))
  in
  ({ sv_resp = resp; sv_node = -1; sv_version = snap }, snap)

(** Session-level read for the replica campaigns' workload loop:
    round-robin across replicas, skipping any that is down,
    mid-transaction, or lagging beyond the staleness bound; a replica
    lagging *within* the bound serves (counted as [repl.stale_reads]);
    with no eligible replica the leader answers ([repl.fallbacks]),
    outside any transaction open on it. All service is clock-frozen and
    pinned at the serving node's applied version. *)
let read t (sql : string) : served =
  let ast = Database.parse sql in
  let n = Array.length t.replicas in
  let rec go i =
    if i >= n then None
    else
      let rep = t.replicas.((t.rr + i) mod n) in
      if
        rep.rep_state <> Down
        && lag t rep <= t.staleness
        && not
             (Database.in_transaction
                (Server.db (Durable.server rep.rep_durable)))
      then Some rep
      else go (i + 1)
  in
  let picked = if n = 0 then None else go 0 in
  t.rr <- t.rr + 1;
  match picked with
  | None ->
    if n > 0 && Ldv_obs.enabled () then Ldv_obs.counter "repl.fallbacks";
    let s, _ = serve_pinned (Durable.server t.leader) ast in
    s
  | Some rep ->
    if Ldv_obs.enabled () then begin
      Ldv_obs.counter "repl.reads.replica";
      if lag t rep > 0 then Ldv_obs.counter "repl.stale_reads"
    end;
    let s, snap = serve_pinned (Durable.server rep.rep_durable) ast in
    { s with sv_node = rep.rep_id; sv_version = snap }

(* ------------------------------------------------------------------ *)
(* End-of-run convergence.                                             *)

(** Bring every replica fully up to date: recover the crashed ones, catch
    the rest up from the ship log. Callers wanting deterministic
    convergence clear the fault plan first. *)
let quiesce t : unit =
  Array.iter
    (fun rep ->
      if rep.rep_state = Down then recover_replica t rep
      else
        match catch_up t rep with
        | () -> ()
        | exception Ldv_faults.Crash _ -> crash_replica t rep
        | exception Ldv_errors.Error _ -> ())
    t.replicas;
  (* a catch-up that crashed mid-way needs one more recovery round *)
  Array.iter
    (fun rep -> if rep.rep_state = Down then recover_replica t rep)
    t.replicas

(** First replica whose state is not byte-identical with the leader's:
    [(replica id, first differing line)], or [None] when the whole
    cluster has converged. *)
let converged t : (int * string) option =
  let want = Fingerprint.state (leader_db t) in
  let n = Array.length t.replicas in
  let rec go i =
    if i >= n then None
    else
      let got = Fingerprint.state (replica_db t i) in
      if String.equal want got then go (i + 1)
      else
        Some
          (i, Fingerprint.first_diff ~left:"leader" ~right:"replica" want got)
  in
  go 0

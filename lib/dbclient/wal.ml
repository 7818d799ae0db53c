(** The minidb write-ahead log.

    One record per DML/DDL statement, appended through the kernel's
    buffered write path *before* the statement executes, framed as

    {v @<seq> <kind> <sid> <len> <crc32-hex>\n<payload>\n v}

    where [kind] is one of [B]/[C]/[R]/[S] (BEGIN / COMMIT / ROLLBACK /
    ordinary statement), [sid] identifies the session that issued the
    statement (0 for a single-session log), and the payload is the
    newline-escaped SQL text. The CRC32 covers the payload, so a torn
    tail — a record whose bytes only partially reached the platter before
    a crash — is detected and discarded at recovery rather than misparsed.

    Recovery policy lives in {!durable_cut}: records inside an *open*
    (never durably terminated) transaction are dropped, per session. A
    transaction whose COMMIT record is durable replays in full; one whose
    COMMIT never reached the platter is dropped atomically; a durable
    ROLLBACK replays literally (executing the ROLLBACK undoes its own
    writes) so the recovered database's logical clock stays aligned with
    an uncrashed run. *)

type kind = Begin | Commit | Rollback | Stmt

type record = { seq : int; kind : kind; sid : int; sql : string }

(** A statement's record kind: the transaction-control statements have
    their own, everything else is an ordinary [Stmt]. *)
let kind_of_statement : Minidb.Sql_ast.statement -> kind = function
  | Minidb.Sql_ast.Begin_tx -> Begin
  | Minidb.Sql_ast.Commit_tx -> Commit
  | Minidb.Sql_ast.Rollback_tx -> Rollback
  | _ -> Stmt

let kind_char = function
  | Begin -> 'B'
  | Commit -> 'C'
  | Rollback -> 'R'
  | Stmt -> 'S'

let kind_of_char = function
  | 'B' -> Some Begin
  | 'C' -> Some Commit
  | 'R' -> Some Rollback
  | 'S' -> Some Stmt
  | _ -> None

(* Newline-escape the SQL so each payload is framing-safe. *)
let escape (s : string) : string =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape (s : string) : string =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | 'n' -> Buffer.add_char buf '\n'
       | c -> Buffer.add_char buf c);
       incr i
     end
     else Buffer.add_char buf s.[!i]);
    incr i
  done;
  Buffer.contents buf

let encode (r : record) : string =
  let payload = escape r.sql in
  Printf.sprintf "@%d %c %d %d %08lx\n%s\n" r.seq (kind_char r.kind) r.sid
    (String.length payload)
    (Ldv_faults.Crc32.digest payload)
    payload

(** Append one record to the log at [path] (buffered: the caller decides
    when to raise the fsync barrier). *)
let append (kernel : Minios.Kernel.t) ~pid ~path (r : record) : unit =
  let bytes = encode r in
  Minios.Kernel.append_path kernel ~pid ~path bytes;
  if Ldv_obs.enabled () then begin
    Ldv_obs.counter "wal.append";
    Ldv_obs.counter ~by:(String.length bytes) "wal.bytes"
  end

type loaded = {
  records : record list;  (** cleanly framed, CRC-verified records, in order *)
  torn_bytes : int;
      (** trailing bytes discarded because a record was torn or corrupt *)
}

(* Parse one frame of [data] starting at [pos]; [Some (record, next)] only
   when the frame is whole and its payload CRC verifies. *)
let parse_frame (data : string) (pos : int) : (record * int) option =
  let n = String.length data in
  if pos >= n || data.[pos] <> '@' then None
  else
    match String.index_from_opt data pos '\n' with
    | None -> None
    | Some nl -> (
      let header = String.sub data (pos + 1) (nl - pos - 1) in
      match String.split_on_char ' ' header with
      | [ seq_s; kind_s; sid_s; len_s; crc_s ] -> (
        match
          ( int_of_string_opt seq_s,
            (if String.length kind_s = 1 then kind_of_char kind_s.[0]
             else None),
            int_of_string_opt sid_s,
            int_of_string_opt len_s,
            (try Some (Int32.of_string ("0x" ^ crc_s)) with Failure _ -> None)
          )
        with
        | Some seq, Some kind, Some sid, Some len, Some crc
          when len >= 0 && nl + 1 + len < n && data.[nl + 1 + len] = '\n' ->
          let payload = String.sub data (nl + 1) len in
          if Ldv_faults.Crc32.digest payload = crc then
            Some ({ seq; kind; sid; sql = unescape payload }, nl + 1 + len + 1)
          else None
        | _ -> None)
      | _ -> None)

(** Decode exactly one framed record (the WAL-ship channel's unit of
    transfer). [None] on truncation, trailing garbage, or CRC mismatch —
    a garbled ship frame is detected here, at the receiving replica. *)
let decode_frame (frame : string) : record option =
  match parse_frame frame 0 with
  | Some (r, next) when next = String.length frame -> Some r
  | Some _ | None -> None

(** Parse the log, stopping at the first torn or corrupt record: anything
    after a bad frame is untrustworthy tail. A missing file is an empty
    log. Discarded tails are surfaced: a [wal.torn_bytes] counter and a
    typed {!Ldv_errors.Wal_torn} warning, so a torn tail outside a crash
    campaign is visible instead of silently dropped. *)
let load (vfs : Minios.Vfs.t) (path : string) : loaded =
  let data =
    Option.bind (Minios.Vfs.find_opt vfs path) (fun f ->
        Minios.Vfs.content_bytes f.Minios.Vfs.content)
    |> Option.value ~default:""
  in
  let n = String.length data in
  let records = ref [] in
  let pos = ref 0 in
  let torn = ref false in
  while (not !torn) && !pos < n do
    match parse_frame data !pos with
    | Some (r, next) ->
      records := r :: !records;
      pos := next
    | None -> torn := true
  done;
  let torn_bytes = n - !pos in
  if torn_bytes > 0 then begin
    if Ldv_obs.enabled () then
      Ldv_obs.counter ~by:torn_bytes "wal.torn_bytes";
    Ldv_errors.warn (Ldv_errors.Wal_torn { path; bytes = torn_bytes })
  end;
  { records = List.rev !records; torn_bytes }

(** Split durable records into the replayable part and the dropped open
    transactions. Open-transaction accounting is per session ([sid]):
    interleaved frames from concurrent sessions must not corrupt each
    other's depth, so a session that crashed mid-transaction loses exactly
    its own records from its unterminated BEGIN onward, while every other
    session's records — including those logged after that BEGIN — replay.
    Returns [(replay, dropped, redo_upto)], both lists in original log
    order; [redo_upto] is the highest replayable sequence number (or
    [fallback] when none is).

    Per-session state is a boolean open-flag, not a depth counter:
    WAL-before-execute also logs frames for statements that then fail (a
    second BEGIN inside a transaction, a stray COMMIT outside one), and
    literal re-execution makes those no-ops — the accounting here must
    agree with what replaying the log actually does. *)
let durable_cut ?(fallback = 0) (records : record list) :
    record list * record list * int =
  (* pass 1: per session, the index of the BEGIN left open at log end *)
  let open_at : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun i r ->
      match r.kind with
      | Begin ->
        if not (Hashtbl.mem open_at r.sid) then Hashtbl.replace open_at r.sid i
      | Commit | Rollback -> Hashtbl.remove open_at r.sid
      | Stmt -> ())
    records;
  (* pass 2: drop each crashed session's records from its open BEGIN on *)
  let replay = ref [] and dropped = ref [] in
  List.iteri
    (fun i r ->
      match Hashtbl.find_opt open_at r.sid with
      | Some j when i >= j -> dropped := r :: !dropped
      | _ -> replay := r :: !replay)
    records;
  let replay = List.rev !replay and dropped = List.rev !dropped in
  let redo_upto = List.fold_left (fun acc r -> max acc r.seq) fallback replay in
  (replay, dropped, redo_upto)

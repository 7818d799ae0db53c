(** The application-facing DB client API (the libpq surface).

    Programs call [connect]/[query]/[exec]/[close]; the session bound to
    the kernel they run on decides whether statements are executed,
    audited, or replayed. Application code is therefore identical across
    the original run, the audited run, and every replay mode — the
    property LDV's interposition design depends on. *)

open Minidb

type conn = {
  session : Interceptor.t;
  pid : int;
  db_name : string;
  mutable open_ : bool;
}

(** Connect to the database server from the current process. *)
let connect (env : Minios.Program.env) ~db:db_name : conn =
  let kernel = Minios.Program.kernel env in
  let pid = Minios.Program.pid env in
  Ldv_obs.with_span
    ~attrs:[ ("prov.proc", Printf.sprintf "proc:%d" pid); ("db", db_name) ]
    "client.connect"
  @@ fun () ->
  let session = Interceptor.find_for kernel ~pid in
  (* connection handshake costs a round trip but is not audited (§VIII:
     connection handling calls are ignored) *)
  ignore (Minios.Kernel.tick kernel);
  { session; pid; db_name; open_ = true }

let check conn =
  if not conn.open_ then
    Ldv_errors.fail
      (Ldv_errors.Connection_closed { context = "Client: connection is closed" })

(** Run a statement, returning the raw protocol response.

    Transport failures (injected by an installed fault plan) surface
    *before* the statement executes, so the bounded retry loop can safely
    resend it; a failure that outlives every retry is reported as
    [Retries_exhausted]. *)
(* A conflict abort escaping [Interceptor.execute] must not be retried at
   statement granularity — the transaction it belonged to is gone, and
   resending the lone statement would run it autocommit. This private
   wrapper smuggles the conflict past [with_retries]; [send] unwraps it
   back into the typed error so [transaction] can retry the whole block. *)
exception Tx_abort of Ldv_errors.t

let send (conn : conn) (sql : string) : Protocol.response =
  check conn;
  try
    Ldv_faults.with_retries ~op:"client.send" @@ fun () ->
    Ldv_obs.counter "client.send.attempts";
    (match Ldv_faults.connection_fault () with
    | Some `Drop ->
      Ldv_errors.fail
        (Ldv_errors.Connection_lost { context = "send: server closed the connection" })
    | Some `Garble ->
      Ldv_errors.fail
        (Ldv_errors.Protocol_garbled { context = "send: truncated response frame" })
    | None -> ());
    (try Interceptor.execute conn.session ~pid:conn.pid sql
     with Ldv_errors.Error (Ldv_errors.Tx_conflict _ as e) -> raise (Tx_abort e))
  with
  | Tx_abort e -> raise (Ldv_errors.Error e)
  | Ldv_errors.Error (Ldv_errors.Retries_exhausted _) as e ->
    Ldv_obs.counter "client.send.exhausted";
    raise e

(** Run a SELECT and return its schema and rows.

    Raises [Db_error] on SQL errors. *)
let query_result (conn : conn) (sql : string) : Schema.t * Value.t array list =
  match send conn sql with
  | Protocol.Result_set { schema; rows } -> (schema, rows)
  | Protocol.Error_response msg ->
    Errors.unsupported "server error: %s" msg
  | Protocol.Command_ok _ | Protocol.Ddl_ok ->
    Errors.unsupported "expected a result set from %s" sql

(** Run a SELECT and return just the rows. *)
let query (conn : conn) (sql : string) : Value.t array list =
  snd (query_result conn sql)

(** Run a DML statement and return the affected-row count. *)
let exec (conn : conn) (sql : string) : int =
  match send conn sql with
  | Protocol.Command_ok { affected } -> affected
  | Protocol.Ddl_ok -> 0
  | Protocol.Error_response msg -> Errors.unsupported "server error: %s" msg
  | Protocol.Result_set _ ->
    Errors.unsupported "expected a command acknowledgement from %s" sql

(** Run [stmts] as one BEGIN..COMMIT block, retrying the *whole*
    transaction (bounded, with logical backoff) when a first-updater-wins
    conflict aborts it. The interceptor has already rolled the aborted
    attempt back, so every retry starts from a clean slate; yields between
    attempts let the conflicting session finish its own transaction.
    Returns the total affected-row count of the committed attempt.

    Tracing: each attempt runs inside a ["tx.attempt"] span carrying the
    1-based attempt number ([tx.try]) and, on retries, the span id of the
    attempt it replaces ([retry_of]) — so the attempts of one transaction
    form a linked chain in the trace instead of unrelated fragments. *)
let transaction ?attempts (conn : conn) (stmts : string list) : int =
  check conn;
  let kernel = Interceptor.kernel_of conn.session in
  let tries = ref 0 in
  let last_attempt = ref 0 in
  Ldv_faults.with_retries ?attempts ~op:"client.tx" @@ fun () ->
  if !tries > 0 then begin
    (* the backoff recorded by [with_retries] is logical; these yields
       make it real under the cooperative scheduler *)
    Ldv_obs.counter "tx.retry";
    for _ = 1 to !tries * 4 do
      Minios.Kernel.yield_point kernel
    done
  end;
  incr tries;
  Ldv_obs.counter "client.tx.attempts";
  let attempt () =
    ignore (send conn "BEGIN");
    let affected =
      List.fold_left
        (fun acc sql ->
          match send conn sql with
          | Protocol.Command_ok { affected } -> acc + affected
          | Protocol.Error_response msg -> Errors.unsupported "server error: %s" msg
          | Protocol.Result_set _ | Protocol.Ddl_ok -> acc)
        0 stmts
    in
    ignore (send conn "COMMIT");
    affected
  in
  if not (Ldv_obs.enabled ()) then attempt ()
  else begin
    let attrs =
      ("tx.try", string_of_int !tries)
      ::
      (if !last_attempt > 0 then
         [ ("retry_of", string_of_int !last_attempt) ]
       else [])
    in
    let sp = Ldv_obs.start_span ~attrs "tx.attempt" in
    last_attempt := sp.Ldv_obs.sp_id;
    Fun.protect ~finally:(fun () -> Ldv_obs.finish_span sp) attempt
  end

let close (conn : conn) =
  if conn.open_ then begin
    ignore (Minios.Kernel.tick (Interceptor.kernel_of conn.session));
    conn.open_ <- false
  end

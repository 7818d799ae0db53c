(** The typed error vocabulary of the LDV pipeline.

    The paper's value proposition is that a package re-executes reliably
    somewhere else — which only holds if corruption, truncation, and
    transport failures are *detected and reported*, not surfaced as a bare
    [Invalid_argument] from whichever parser happened to choke first.
    Every recoverable failure in the audit → slice → package → replay loop
    is expressed as a value of {!t} carried by the single exception
    {!Error}, so callers (the replay engine, the [ldv check faults]
    campaigns, the CLI) can classify failures without string matching.

    The vocabulary deliberately lives below every other library: [minios],
    [dbclient], and [ldv_core] all raise it, and [ldv_faults] injects the
    failures that exercise it. *)

type io_fault =
  | Eio  (** device-level I/O error; permanent *)
  | Enospc  (** no space left; permanent *)
  | Eintr  (** interrupted syscall; transient, restartable *)
  | Enoent  (** no such file *)

let io_fault_name = function
  | Eio -> "EIO"
  | Enospc -> "ENOSPC"
  | Eintr -> "EINTR"
  | Enoent -> "ENOENT"

type t =
  | Io_fault of { op : string; path : string; fault : io_fault }
      (** a (simulated) syscall failed *)
  | Connection_closed of { context : string }
      (** a client API was used after [close] — a programming error, but a
          typed one *)
  | Connection_lost of { context : string }
      (** the server dropped the connection mid-request; transient *)
  | Protocol_garbled of { context : string }
      (** a truncated or corrupted response frame; transient (the request
          was never executed and can be resent) *)
  | Decode_error of { line : int; what : string }
      (** a serialized recording failed to parse at 1-based [line] *)
  | Package_malformed of { what : string; offset : int }
      (** package bytes are structurally unreadable; [offset] is the byte
          position when known, [-1] otherwise *)
  | Package_corrupt of { section : string; expected : int32; actual : int32 }
      (** a package section's CRC32 does not match its payload *)
  | Retries_exhausted of { op : string; attempts : int; last : t }
      (** a transient failure persisted through every retry *)
  | Wal_torn of { path : string; bytes : int }
      (** a WAL load discarded [bytes] trailing bytes as a torn or corrupt
          tail; expected after a crash, alarming otherwise *)
  | Sink_torn of { line : int; what : string }
      (** a JSONL observability sink ended in an unreadable trailing
          record (the writer died mid-line); the complete prefix was kept *)
  | Tx_conflict of { op : string; detail : string }
      (** a write-write conflict aborted the transaction (first-updater
          wins); transient — the whole transaction can be retried *)
  | Tx_state of { message : string }
      (** BEGIN/COMMIT/ROLLBACK in the wrong session state; a programming
          error surfaced as a typed warning, like {!Wal_torn} *)

exception Error of t

let fail e = raise (Error e)

(** Non-fatal conditions (torn WAL tails, degraded-mode fallbacks) are
    reported here instead of being silently swallowed; hosts redirect the
    sink to their own logging. Default: drop. *)
let on_warning : (t -> unit) ref = ref (fun _ -> ())

let warn e = !on_warning e

(** Transient failures are worth retrying: the operation never took
    effect, so resending it is safe. *)
let is_transient = function
  | Connection_lost _ | Protocol_garbled _ | Tx_conflict _ -> true
  | Io_fault { fault = Eintr; _ } -> true
  | Io_fault _ | Connection_closed _ | Decode_error _ | Package_malformed _
  | Package_corrupt _ | Retries_exhausted _ | Wal_torn _ | Sink_torn _
  | Tx_state _ ->
    false

(** A short stable tag for counters and campaign reports. *)
let tag = function
  | Io_fault { fault; _ } -> "io." ^ String.lowercase_ascii (io_fault_name fault)
  | Connection_closed _ -> "conn.closed"
  | Connection_lost _ -> "conn.lost"
  | Protocol_garbled _ -> "conn.garbled"
  | Decode_error _ -> "decode"
  | Package_malformed _ -> "pkg.malformed"
  | Package_corrupt _ -> "pkg.corrupt"
  | Retries_exhausted _ -> "retries"
  | Wal_torn _ -> "wal.torn"
  | Sink_torn _ -> "obs.torn"
  | Tx_conflict _ -> "tx.conflict"
  | Tx_state _ -> "tx.state"

let rec pp ppf = function
  | Io_fault { op; path; fault } ->
    Format.fprintf ppf "%s: %s failed on %s" (io_fault_name fault) op path
  | Connection_closed { context } ->
    Format.fprintf ppf "connection closed: %s" context
  | Connection_lost { context } ->
    Format.fprintf ppf "connection lost: %s" context
  | Protocol_garbled { context } ->
    Format.fprintf ppf "garbled response: %s" context
  | Decode_error { line; what } ->
    Format.fprintf ppf "decode error at line %d: %s" line what
  | Package_malformed { what; offset } ->
    if offset >= 0 then
      Format.fprintf ppf "malformed package at byte %d: %s" offset what
    else Format.fprintf ppf "malformed package: %s" what
  | Package_corrupt { section; expected; actual } ->
    Format.fprintf ppf "corrupt package section %s: crc %08lx, expected %08lx"
      section actual expected
  | Retries_exhausted { op; attempts; last } ->
    Format.fprintf ppf "%s failed after %d attempts: %a" op attempts pp last
  | Wal_torn { path; bytes } ->
    Format.fprintf ppf "torn WAL tail: %d trailing byte(s) of %s discarded"
      bytes path
  | Sink_torn { line; what } ->
    Format.fprintf ppf
      "torn obs sink: trailing record at line %d skipped (%s)" line what
  | Tx_conflict { op; detail } ->
    Format.fprintf ppf "transaction aborted (%s): %s" op detail
  | Tx_state { message } ->
    Format.fprintf ppf "transaction state error: %s" message

let to_string e = Format.asprintf "%a" pp e

let () =
  Printexc.register_printer (function
    | Error e -> Some (Format.asprintf "Ldv_errors.Error (%a)" pp e)
    | _ -> None)

(** The instrumented client library (the paper's modified libpq, §VII-C).

    Every statement a monitored process sends to the DB flows through a
    session in one of four modes: plain passthrough, audit with DB
    provenance (server-included), audit with response recording
    (server-excluded), or replay from a recording. *)

open Minidb

exception Replay_divergence of string

type mode =
  | Passthrough
  | Audit_included
  | Audit_excluded
  | Replay_excluded

type stmt_kind = Squery | Sinsert | Supdate | Sdelete | Sddl

val stmt_kind_of_ast : Sql_ast.statement -> stmt_kind

(** ["query"], ["insert"], ["update"], ["delete"] or ["ddl"]. *)
val stmt_kind_name : stmt_kind -> string

(** One audited statement: everything the trace builder needs. *)
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
          isolated reads, queries see exactly the versions committed at
          or before this clock *)
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

type t

(** [snapshot_reads] pins every query to the DB clock observed when its
    request was sent (snapshot isolation across interleaved sessions),
    by rewriting each unpinned [FROM t] into [FROM t AS OF snap]. *)
val create :
  ?mode:mode ->
  ?session_id:int ->
  ?snapshot_reads:bool ->
  kernel:Minios.Kernel.t ->
  Server.t ->
  t

(** A sibling session for another client of the same run: shares the
    mode, server, versioning, qid counter, slice (with the package CSV
    row written for each of its versions, by whichever session read the
    version first) and recording buffer (one run, one slice, one global
    statement order) but keeps its own statement log, so each session's
    stream stays attributable. *)
val create_sibling : t -> session_id:int -> t

(** A session answering from a recording (server-excluded replay). *)
val create_replay :
  kernel:Minios.Kernel.t -> Server.t -> Recorder.recorded list -> t

(** Attach a replication cluster to this session and (through the shared
    ref) every sibling: snapshot-pinned reads route to read replicas that
    can serve their snapshot exactly, and every executed write is shipped
    to the replicas before the write latch releases. *)
val attach_cluster : t -> Replication.t -> unit

val cluster : t -> Replication.t option
val log : t -> stmt_event list
val kernel_of : t -> Minios.Kernel.t
val recorded : t -> Recorder.recorded list
val mode : t -> mode
val session_id : t -> int

(** Whether this session currently has an open transaction. *)
val in_tx : t -> bool
val versioning : t -> Perm.Versioning.t

(** Tuple versions accumulated for packaging (before removing
    application-created versions). *)
val slice_lineage : t -> Lineage.t

(** [slice_csv t ~table tbl ids]: the package CSV of [table]'s slice
    members among [ids] (ascending packed ids), where [tbl] is [table] as
    the database holds it now. Each version's row was written when it
    entered the slice; the blob is the header for [tbl]'s schema, then
    the row of each member whose version [tbl] still holds, in [ids]
    order, copied into one string. A version a rollback erased is not
    found, so its row is left out. [None] when no row remains.

    This equals encoding those versions now (as [Slice.lineage_csvs]
    does) because a version's values never change once written, and a
    (table, rid, version) names at most one version in a run: each write
    statement stamps its versions with a tick of the database clock of
    its own, and the clock never goes back (only reads run clock-frozen,
    and a rollback does not rewind it). So a version not found when it
    entered the slice is not found later either. *)
val slice_csv :
  t -> table:string -> Table.t -> int array -> string option

(** Whether a tid denotes a transient query-result tuple rather than a
    stored tuple version. *)
val is_result_tid : Tid.t -> bool

(** Execute one statement on behalf of process [pid].
    @raise Replay_divergence in replay mode when the statement stream
    deviates from the recording.
    @raise Errors.Db_error on parse errors (and, in provenance-auditing
    mode, on engine errors). *)
val execute : t -> pid:int -> string -> Protocol.response

(** {2 Session registry}

    Programs discover their session through the kernel they run on, so
    application code is mode-agnostic. *)

val bind : Minios.Kernel.t -> t -> unit
val unbind : Minios.Kernel.t -> unit

(** @raise Invalid_argument when no session is bound. *)
val find : Minios.Kernel.t -> t

(** Per-process bindings, for concurrent runs where each scheduled client
    process has its own session on the same kernel. *)
val bind_for : Minios.Kernel.t -> pid:int -> t -> unit

val unbind_for : Minios.Kernel.t -> pid:int -> unit

(** The session bound to [(kernel, pid)], falling back to the kernel-wide
    binding.
    @raise Invalid_argument when neither binding exists. *)
val find_for : Minios.Kernel.t -> pid:int -> t

(** LDV repeatability packages (§VII-D) and the PTU baseline package. *)

type kind =
  | Server_included
      (** server binaries + table and index DDL + the relevant tuple
          subset as CSVs *)
  | Server_excluded  (** no server artifacts; recorded responses instead *)
  | Ptu_full
      (** application-virtualization baseline: everything the traced
          processes touched, full DB data files included *)

val kind_name : kind -> string

type entry = {
  e_path : string;
  e_size : int;
  e_content : Minios.Vfs.content option;
      (** [None] for write-only outputs: the path is recreated but no
          contents are shipped *)
}

type t = {
  kind : kind;
  app_name : string;  (** program-registry name used at replay *)
  app_binary : string;
  entries : entry list;
  db_subset : (string * string) list;  (** table -> CSV *)
  db_schemas : (string * string) list;  (** table -> DDL *)
  db_indexes : (string * string) list;
      (** table -> its [CREATE [ORDERED] INDEX] lines, newline-separated;
          only tables with indexes have an entry *)
  recording : Dbclient.Recorder.recorded list;
  trace_data : string;  (** serialized compact execution trace *)
  metadata : (string * string) list;
}

(** {2 Size accounting} *)

val entries_bytes : t -> int
val db_subset_bytes : t -> int
val recording_bytes : t -> int
val trace_bytes : t -> int
val total_bytes : t -> int

(** Path -> size manifest, for inspection: the file entries, one
    [db/<table>.sql] row per table (its CREATE TABLE plus its index
    lines), the CSV subsets, the recording and the trace. The sizes add
    up to [total_bytes]. *)
val manifest : t -> (string * int) list

(** {2 Table III's contents matrix} *)

type contents_summary = {
  has_software_binaries : bool;
  has_db_server : bool;
  data_files : [ `Full | `Empty | `None ];
  has_db_provenance : bool;
}

val summarize : t -> contents_summary

(** {2 Construction} *)

(** The recorded multi-session schedule in a metadata list (scheduler
    seed, per-session (registry name, binary) in session order); [None]
    for single-session packages. *)
val schedule_of_metadata :
  (string * string) list -> (int * (string * string) list) option

(** [schedule_of_metadata] applied to the package's own metadata. *)
val schedule : t -> (int * (string * string) list) option

(** The recorded replication-cluster shape — (replica count, staleness
    bound) — when the audited run served reads from a cluster; [None]
    otherwise. *)
val replication_of_metadata : (string * string) list -> (int * int) option

(** The recorded read routes: (qid, replica that answered), sorted by
    qid. Leader-answered reads are not recorded. *)
val routes_of_metadata : (string * string) list -> (int * int) list

(** [replication_of_metadata] applied to the package's own metadata. *)
val replication : t -> (int * int) option

(** [routes_of_metadata] applied to the package's own metadata. *)
val routes : t -> (int * int) list

(** The recorded transaction outcomes — (sid, per-session ordinal,
    outcome), sorted — so replay can verify it reproduced every
    commit/abort decision. Empty when the audited run opened no
    interactive transactions. *)
val tx_outcomes_of_metadata :
  (string * string) list -> (int * int * Audit.tx_outcome) list

(** [tx_outcomes_of_metadata] applied to the package's own metadata. *)
val tx_outcomes : t -> (int * int * Audit.tx_outcome) list

(** The audit-time per-table row counts, sorted by table name: pinned at
    replay so the cost model's replay-stable decisions (join order, build
    side) match the recorded run even though the restored database holds
    only the sliced tuple subset. *)
val table_rows_of_metadata : (string * string) list -> (string * int) list

(** [table_rows_of_metadata] applied to the package's own metadata. *)
val table_rows : t -> (string * int) list

(** Build the package of the audit's packaging mode: [Included] gives a
    [Server_included] package, [Excluded] a [Server_excluded] one and
    [Ptu_baseline] a [Ptu_full] one. Every kind ships the files the
    traced processes read, CDE-style (first-read snapshots; write-only
    paths are recreated empty), and the audit's metadata. *)
val build : Audit.t -> t

(** {2 Whole-package serialization} *)

val to_bytes : t -> string

(** A content section dropped during parsing because it failed its
    checksum (or was otherwise unusable). *)
type corruption = { c_section : string; c_error : Ldv_errors.t }

type restored = {
  r_pkg : t;
  r_skipped : corruption list;  (** dropped content sections, in order *)
}

(** Parse package bytes, tolerating corrupt {e content} sections (files,
    CSV tables, schemas, index DDL, outputs): each is skipped and
    reported in [r_skipped] so the caller can degrade gracefully.
    Structural damage (bad framing, truncation, corrupt
    kind/app/binary/trace/recording) returns [Error]. Never raises. *)
val of_bytes_result : string -> (restored, Ldv_errors.t) result

(** Strict parse: any corruption at all is an error.
    @raise Ldv_errors.Error on malformed or corrupt input. *)
val of_bytes : string -> t

(** Crash-safe package write: serialize, write to a temp file beside
    [path], then atomically rename over [path]. Injected I/O faults are
    retried (bounded); on failure the destination is untouched and the
    temp file removed.
    @raise Ldv_errors.Error with [Io_fault] or [Retries_exhausted].
    @raise Sys_error ["<path>: <reason>"] when the file cannot be created
    or renamed into place. *)
val write_file : t -> path:string -> unit

(** The execution trace embedded in the package. *)
val trace : t -> Prov.Trace.t

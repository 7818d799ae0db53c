(** ldv-audit: run an application under combined OS+DB monitoring (§VII)
    and assemble the combined execution trace of Definition 6. *)

module I := Dbclient.Interceptor

type packaging =
  | Included  (** LDV server-included: traced server + DB provenance *)
  | Excluded  (** LDV server-excluded: external server, recorded responses *)
  | Ptu_baseline
      (** the paper's PostgreSQL+PTU baseline: traced server, plain libpq —
          OS provenance only *)

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
          a replication cluster; packaged so replay re-runs the cluster.
          Session reads route through [Replication.route_read] and are
          always exact; only [Replication.read] (the replica campaigns)
          applies the bound. *)
  trace : Prov.Trace.t;  (** full combined trace, with per-row lineage *)
  app_name : string;
  app_binary : string;
  root_pid : int;
  server_pid : int option;
  out_files : (string * string) list;
      (** files the app wrote, with final contents (replay ground truth) *)
  query_fingerprints : (int * string) list;
      (** qid -> digest of result rows (replay ground truth) *)
  start_rows : (string * int) list;
      (** per-table row counts captured before the run, packaged so replay
          pins the cost model's statistics to the audit-time values *)
}

(** Merge per-session statement logs into one stream ordered by send
    time (ties broken by qid). *)
val merge_logs : I.t list -> I.stmt_event list

(** The run's statement stream across every session, in global order.
    Single-session audits see exactly the session log. *)
val stmts : t -> I.stmt_event list

(** Query fingerprints (qid -> row digest) of a statement stream. *)
val fingerprints : I.stmt_event list -> (int * string) list

(** Outcome of one interactive transaction, as observable from the
    recorded statement stream. *)
type tx_outcome =
  | Tx_committed  (** closed by an explicit COMMIT *)
  | Tx_rolled_back  (** closed by an explicit ROLLBACK *)
  | Tx_aborted  (** terminated without a closing statement *)
  | Tx_retried
      (** aborted, and the same session opened another transaction
          afterwards (the bounded-retry loop re-ran the block) *)

val tx_outcome_name : tx_outcome -> string
val tx_outcome_of_name : string -> tx_outcome option

(** Derive per-transaction outcomes from a statement stream: BEGIN opens
    (a BEGIN while one is open means the previous one conflict-aborted),
    COMMIT/ROLLBACK close, trailing-open means aborted. Returns
    [(sid, per-session ordinal from 1, outcome)] in (sid, ordinal)
    order; a pure function of the normalized SQL stream, compared
    audit-vs-replay by [Replay.verify]. *)
val tx_outcomes : I.stmt_event list -> (int * int * tx_outcome) list

(** Assemble a combined trace from a syscall stream and a statement log
    (used by {!run} and by replay-validation tooling). *)
val build_trace : Minios.Tracer.t -> I.stmt_event list -> Prov.Trace.t

(** Files written by traced processes outside [exclude_pids], with final
    contents. *)
val written_files :
  Minios.Tracer.t ->
  exclude_pids:int list ->
  Minios.Vfs.t ->
  (string * string) list

(** The launch steps of {!run} and {!run_concurrent}, shared with replay.
    Each returns every session it ran, primary first, and the root pid.
    [launch_program] runs one program as the root process on the given
    session; [launch_clients] runs the clients under {!Minios.Sched} with
    [seed], the first on the given primary session and each other on a
    sibling of it. *)
val launch_program :
  Minios.Kernel.t ->
  I.t ->
  binary:string ->
  ?libs:string list ->
  name:string ->
  Minios.Program.program ->
  I.t list * int

val launch_clients :
  Minios.Kernel.t -> I.t -> seed:int -> client list -> I.t list * int

(** Run [program] under full LDV monitoring. The kernel must already hold
    the application's files; the server must be installed around the
    database the app uses. [Included]/[Ptu_baseline] start and stop the
    server as a traced process. [run] and {!run_concurrent} share one
    monitored-run sequence and differ only in how they launch the
    application. *)
val run :
  packaging:packaging ->
  Minios.Kernel.t ->
  Dbclient.Server.t ->
  app_name:string ->
  app_binary:string ->
  ?app_libs:string list ->
  Minios.Program.program ->
  t

(** Run N client programs concurrently, each with its own session,
    interleaved deterministically by {!Minios.Sched} under [sched_seed],
    through the same monitored-run sequence as {!run}. Reads are
    snapshot-isolated; the recorded seed and client list land in [sched]
    so replay re-creates the identical interleaving. With [cluster],
    snapshot-pinned reads route to the cluster's read replicas and every
    write is shipped; the replication machinery's file writes are
    excluded from the recorded application outputs.
    @raise Invalid_argument unless [packaging = Included], or if
    [clients] is empty. *)
val run_concurrent :
  packaging:packaging ->
  ?sched_seed:int ->
  ?cluster:Dbclient.Replication.t ->
  Minios.Kernel.t ->
  Dbclient.Server.t ->
  client list ->
  t

(** The compact trace embedded in packages: OS portion + statement log +
    DML provenance. Query lineage is materialized as the packaged tuple
    subset instead (see DESIGN.md). *)
val compact_trace : t -> Prov.Trace.t

(** Pids belonging to the application (everything traced minus the server
    process). *)
val app_pids : t -> int list

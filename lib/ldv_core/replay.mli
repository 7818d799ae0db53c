(** ldv-exec: re-executing packages (§VIII).

    [prepare] rebuilds the chroot-like environment from the package and
    initializes its DB state (Figure 7b's "Initialization"); [run]
    re-executes the application inside it; [verify] checks repeatability
    against the original audit. *)

module I := Dbclient.Interceptor

type prepared = {
  pkg : Package.t;
  kernel : Minios.Kernel.t;
  server : Dbclient.Server.t;
  session : I.t;
}

(** Rebuild the package environment:
    - server-included: create the accessed tables, restore the relevant
      tuple subset from the packaged CSVs, tuple by tuple, then create the
      packaged indexes over it (an index line naming a table or column
      the package lacks is skipped and counted in
      [replay.skipped_indexes]); a cluster package's replicas start from
      the indexed state;
    - PTU: bulk-load the server's native data files;
    - server-excluded: queue the recorded responses. *)
val prepare : Package.t -> prepared

type run_result = {
  root_pid : int;
  session : I.t;  (** the primary session *)
  sessions : I.t list;  (** all sessions, primary first *)
  kernel : Minios.Kernel.t;
  out_files : (string * string) list;
  query_fingerprints : (int * string) list;
}

(** Re-execute the packaged application: file syscalls resolve inside the
    package environment, DB calls go to the packaged server or the
    recorded-response replayer. The program is looked up in the registry
    under the package's app name unless [program] overrides it (partial
    re-execution / modified inputs). A concurrent package (unless
    overridden) re-creates one session per recorded client and re-runs
    them all under the recorded scheduler seed, reproducing the audited
    interleaving exactly.
    @raise I.Replay_divergence when a server-excluded replay's statement
    stream deviates from the recording. *)
val run : ?program:Minios.Program.program -> prepared -> run_result

(** [prepare] + [run]. *)
val execute : ?program:Minios.Program.program -> Package.t -> run_result

(** Divergences of a replay from the original audited run: output files
    not byte-identical, query results with different fingerprints. Empty
    means repeatable. *)
val verify : audit:Audit.t -> run_result -> string list

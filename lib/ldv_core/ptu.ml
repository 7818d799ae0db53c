(** The PTU baseline (§IX-A, Table III).

    PTU is application virtualization with OS-level provenance: run the
    whole experiment — DB server included — under ptrace and copy every
    touched file into the package. It has no DB provenance, so the
    package necessarily contains the server's complete data files. *)

(** Audit an application the PTU way: traced server, plain (uninstrumented)
    client library. *)
let run (kernel : Minios.Kernel.t) (server : Dbclient.Server.t) ~app_name
    ~app_binary ?app_libs (program : Minios.Program.program) : Audit.t =
  Audit.run ~packaging:Audit.Ptu_baseline kernel server ~app_name ~app_binary
    ?app_libs program

(** Build the PTU package: all touched files, full DB data files included,
    OS provenance graph attached. *)
let build (audit : Audit.t) : Package.t =
  Ldv_obs.with_span ~attrs:[ ("kind", "ptu") ] "package.build" @@ fun () ->
  let entries = Package.collect_entries audit ~exclude:(fun _ -> false) in
  { Package.kind = Package.Ptu_full;
    app_name = audit.Audit.app_name;
    app_binary = audit.Audit.app_binary;
    entries;
    db_subset = [];
    db_schemas = [];
    db_indexes = [];
    recording = [];
    trace_data =
      Prov.Trace.serialize (Minios.Tracer.build_bb_trace audit.Audit.tracer);
    metadata = Package.base_metadata audit @ [ ("packaging", "ptu") ] }

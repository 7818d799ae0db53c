(* End-to-end fixtures: audited runs of the TPC-H workload at tiny scale. *)

let sf = 0.0005
let seed = 11

(* Each fixture registers its program under a unique name so that a later
   fixture cannot clobber the registration a packaged audit replays. *)
let name_counter = ref 0

let make_setup ?(sf = sf) ?(vid = "Q1-3") ?(n_insert = 10) ?(n_update = 4)
    ?(n_select = 3) () =
  let db, stats = Tpch.Dbgen.setup ~sf ~seed () in
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel db in
  Tpch.Workload.install_runtime kernel;
  let q = Tpch.Queries.find stats vid in
  let cfg =
    { (Tpch.Workload.default_config ~query_sql:q.Tpch.Queries.sql ~stats) with
      Tpch.Workload.n_insert;
      n_update;
      n_select }
  in
  let binary = Tpch.Workload.install_app_files kernel cfg in
  let program = Tpch.Workload.app cfg in
  incr name_counter;
  let app_name = Printf.sprintf "%s-%d" Tpch.Workload.registry_name !name_counter in
  Minios.Program.register ~name:app_name program;
  (kernel, server, cfg, binary, program, app_name)

let audit_at ?sf ?vid ?n_insert ?n_update ?n_select packaging : Ldv_core.Audit.t =
  let kernel, server, _cfg, binary, program, app_name =
    make_setup ?sf ?vid ?n_insert ?n_update ?n_select ()
  in
  Ldv_core.Audit.run ~packaging kernel server ~app_name ~app_binary:binary
    ~app_libs:Tpch.Workload.app_libs program

let audit ?vid ?n_insert ?n_update ?n_select packaging : Ldv_core.Audit.t =
  audit_at ?vid ?n_insert ?n_update ?n_select packaging

(* Cached audits shared across test files (computed lazily once). *)
let included = lazy (audit Ldv_core.Audit.Included)
let excluded = lazy (audit Ldv_core.Audit.Excluded)
let ptu = lazy (audit Ldv_core.Audit.Ptu_baseline)

(* [Package.build] copies the CSV rows the interceptor wrote as each
   version entered the slice. Encoding the relevant versions afresh
   ([Slice.lineage_csvs]) is the reference that copy must equal, byte
   for byte. *)
let reference_subset (audit : Ldv_core.Audit.t) : (string * string) list =
  Ldv_core.Slice.lineage_csvs
    (Dbclient.Server.db audit.Ldv_core.Audit.server)
    (Ldv_core.Slice.relevant_lineage audit)

let check_subset_is_reference audit (pkg : Ldv_core.Package.t) =
  Alcotest.(check (list (pair string string)))
    "CSV subset: the relevant versions encoded afresh" (reference_subset audit)
    pkg.Ldv_core.Package.db_subset

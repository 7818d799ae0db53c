(* The LDV benchmark harness: regenerates every table and figure of the
   paper's evaluation (§IX).

   Usage: main.exe [table1|table2|table3|fig7a|fig7b|fig8a|fig8b|fig9|vmi|
                    ablation|micro|profile|concurrent|all]
                   [--sf FLOAT] [--paper-counts]

   The workload follows §IX-A: Insert n tuples into orders, run one of the
   Table II queries n times, update n orders. `--paper-counts` uses the
   paper's 1000/10/100; the default uses reduced counts for the 18-query
   sweeps so `all` completes in minutes. Absolute times differ from the
   paper (simulated substrate); the reported *shape* is what reproduces. *)

open Ldv_core
module I = Dbclient.Interceptor

let sf = ref 0.01
let paper_counts = ref false

let now () = Unix.gettimeofday ()

(* Wall-clock a thunk; with [?span] the measurement is also recorded as an
   [Ldv_obs] span, so the harness's own timing shows up in BENCH_obs.json. *)
let time ?span f =
  let measure () =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  match span with
  | None -> measure ()
  | Some name -> Ldv_obs.with_span name measure

let s = Report.seconds
let mb bytes = Printf.sprintf "%.2f" (float_of_int bytes /. 1e6)

module Str_replace = struct
  (* first-occurrence substring replacement, for query rewriting in
     ablations *)
  let replace haystack ~needle ~replacement =
    let hl = String.length haystack and nl = String.length needle in
    let rec find i =
      if i + nl > hl then None
      else if String.sub haystack i nl = needle then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> haystack
    | Some i ->
      String.sub haystack 0 i ^ replacement
      ^ String.sub haystack (i + nl) (hl - i - nl)
end

(* ------------------------------------------------------------------ *)
(* Instance cache: generate the TPC-H instance once, snapshot it as
   native table images, and restore a fresh mutable copy per run.      *)

module Instance = struct
  type t = { stats : Tpch.Dbgen.stats; images : string list }

  let cache : (float, t) Hashtbl.t = Hashtbl.create 4

  let get ~sf =
    match Hashtbl.find_opt cache sf with
    | Some c -> c
    | None ->
      let db, stats = Tpch.Dbgen.setup ~sf ~seed:42 () in
      let images =
        List.map
          (fun name ->
            Dbclient.Server.encode_table_image
              (Dbclient.Server.table_image
                 (Minidb.Catalog.find (Minidb.Database.catalog db) name)))
          (Minidb.Catalog.table_names (Minidb.Database.catalog db))
      in
      let c = { stats; images } in
      Hashtbl.replace cache sf c;
      c

  let fresh_db (c : t) : Minidb.Database.t =
    let db = Minidb.Database.create ~name:"tpch" () in
    List.iter
      (fun img ->
        Dbclient.Server.restore_table_image db
          (Dbclient.Server.decode_table_image img))
      c.images;
    db
end

(* ------------------------------------------------------------------ *)
(* Systems under test.                                                 *)

type system = Sys_ptu | Sys_included | Sys_excluded

let systems = [ Sys_ptu; Sys_included; Sys_excluded ]

let system_name = function
  | Sys_ptu -> "PostgreSQL+PTU"
  | Sys_included -> "Server-included"
  | Sys_excluded -> "Server-excluded"

let packaging_of = function
  | Sys_ptu -> Audit.Ptu_baseline
  | Sys_included -> Audit.Included
  | Sys_excluded -> Audit.Excluded

(* Per-step wall-clock accumulator for the Figure 7 bars. *)
type steps = {
  mutable t_insert : float;
  mutable t_first : float;
  mutable t_rest : float;
  mutable t_update : float;
}

let zero_steps () = { t_insert = 0.; t_first = 0.; t_rest = 0.; t_update = 0. }

let reset st =
  st.t_insert <- 0.;
  st.t_first <- 0.;
  st.t_rest <- 0.;
  st.t_update <- 0.

let step_name = function
  | Tpch.Workload.Insert_step -> "insert"
  | Tpch.Workload.First_select -> "first_select"
  | Tpch.Workload.Other_selects -> "other_selects"
  | Tpch.Workload.Update_step -> "update"

let step_hook st step body =
  let _, dt = time ~span:("bench.step." ^ step_name step) body in
  match step with
  | Tpch.Workload.Insert_step -> st.t_insert <- st.t_insert +. dt
  | Tpch.Workload.First_select -> st.t_first <- st.t_first +. dt
  | Tpch.Workload.Other_selects -> st.t_rest <- st.t_rest +. dt
  | Tpch.Workload.Update_step -> st.t_update <- st.t_update +. dt

type counts = { n_insert : int; n_select : int; n_update : int }

let fig7_counts () =
  if !paper_counts then { n_insert = 1000; n_select = 10; n_update = 100 }
  else { n_insert = 300; n_select = 10; n_update = 50 }

let sweep_counts () =
  if !paper_counts then { n_insert = 1000; n_select = 10; n_update = 100 }
  else { n_insert = 100; n_select = 10; n_update = 20 }

let name_counter = ref 0

(* One audited experiment: fresh instance, fresh kernel, chosen system. *)
type experiment = {
  audit : Audit.t;
  steps : steps;
  total_audit_s : float;
  app_name : string;
}

let run_audit ?counts ?(sf = !sf) ~vid system : experiment =
  let counts = match counts with Some c -> c | None -> sweep_counts () in
  (* stabilize the heap so run order does not skew comparisons *)
  Gc.compact ();
  let inst = Instance.get ~sf in
  let db = Instance.fresh_db inst in
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel db in
  Tpch.Workload.install_runtime kernel;
  let q = Tpch.Queries.find inst.Instance.stats vid in
  let cfg =
    { (Tpch.Workload.default_config ~query_sql:q.Tpch.Queries.sql
         ~stats:inst.Instance.stats)
      with
      Tpch.Workload.n_insert = counts.n_insert;
      n_select = counts.n_select;
      n_update = counts.n_update }
  in
  let binary = Tpch.Workload.install_app_files kernel cfg in
  let st = zero_steps () in
  let program = Tpch.Workload.app ~step_hook:(step_hook st) cfg in
  incr name_counter;
  let app_name = Printf.sprintf "bench-app-%d" !name_counter in
  Minios.Program.register ~name:app_name program;
  let audit, total =
    time ~span:"bench.audit" (fun () ->
        Audit.run ~packaging:(packaging_of system) kernel server ~app_name
          ~app_binary:binary ~app_libs:Tpch.Workload.app_libs program)
  in
  { audit; steps = st; total_audit_s = total; app_name }

let build_package (e : experiment) : Package.t =
  match e.audit.Audit.packaging with
  | Audit.Ptu_baseline -> Ptu.build e.audit
  | Audit.Included | Audit.Excluded -> Package.build e.audit

(* Replay an experiment's package, timing initialization and steps. *)
type replay_times = { init_s : float; rsteps : steps; verified : bool }

let run_replay (e : experiment) (pkg : Package.t) : replay_times =
  Gc.compact ();
  reset e.steps;
  let prepared, init_s = time ~span:"bench.replay_init" (fun () -> Replay.prepare pkg) in
  let result = Replay.run prepared in
  let verified = Replay.verify ~audit:e.audit result = [] in
  ({ init_s; rsteps = e.steps; verified } : replay_times)

(* ------------------------------------------------------------------ *)
(* Table I: interposition summary (qualitative).                       *)

let table1 () =
  Report.section "Table I: OS and DB interposition (server-included)";
  Report.print_table
    ~header:[ "Method"; "Operating system"; "DB" ]
    [ [ "Monitoring";
        "ptrace-style syscall interception (minios tracer)";
        "instrumented client library (dbclient interceptor)" ];
      [ "  on event";
        "record path parameters of open/close, fork/exec";
        "record statements + provenance-affecting tuples (Perm lineage)" ];
      [ "Replaying";
        "file syscalls resolve inside the package VFS";
        "DB restored from recorded tuple versions before any query" ] ]

(* ------------------------------------------------------------------ *)
(* Table II: the 18 queries with realized parameters/selectivities.    *)

let table2 () =
  Report.section "Table II: workload queries (measured on this instance)";
  let inst = Instance.get ~sf:!sf in
  let db = Instance.fresh_db inst in
  let rows =
    List.map
      (fun (v : Tpch.Queries.variant) ->
        let r = Minidb.Database.query db v.Tpch.Queries.sql in
        let sel =
          Tpch.Queries.measured_selectivity db inst.Instance.stats v
        in
        [ v.Tpch.Queries.vid;
          v.Tpch.Queries.nominal_param;
          v.Tpch.Queries.param;
          Printf.sprintf "%.3f%%" (100. *. v.Tpch.Queries.target_selectivity);
          Printf.sprintf "%.3f%%" (100. *. sel);
          string_of_int (List.length r.Minidb.Executor.rows) ])
      (Tpch.Queries.variants inst.Instance.stats)
  in
  Report.print_table
    ~header:
      [ "Query"; "Paper PARAM"; "Scaled PARAM"; "Target sel."; "Measured sel.";
        "Rows" ]
    rows

(* ------------------------------------------------------------------ *)
(* Table III: package contents matrix, derived from real packages.     *)

let table3 () =
  Report.section "Table III: package contents";
  let pkg_of system =
    let e =
      run_audit ~counts:{ n_insert = 20; n_select = 2; n_update = 5 }
        ~vid:"Q1-1" system
    in
    build_package e
  in
  let rows =
    List.map
      (fun system ->
        let summary = Package.summarize (pkg_of system) in
        [ system_name system;
          (if summary.Package.has_software_binaries then "yes" else "no");
          (if summary.Package.has_db_server then "yes" else "no");
          (match summary.Package.data_files with
          | `Full -> "yes (full)"
          | `Empty -> "yes (empty)"
          | `None -> "no");
          (if summary.Package.has_db_provenance then "yes" else "no") ])
      systems
  in
  Report.print_table
    ~header:
      [ "Package type"; "Software binaries"; "DB server"; "Data files";
        "DB provenance" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 7a: audit time per application step (query Q1-1).            *)

let fig7_experiments = ref ([] : (system * experiment) list)

let get_fig7_experiments () =
  if !fig7_experiments = [] then
    fig7_experiments :=
      List.map
        (fun sys -> (sys, run_audit ~counts:(fig7_counts ()) ~vid:"Q1-1" sys))
        systems;
  !fig7_experiments

let fig7a () =
  Report.section "Figure 7a: audit time per step (Q1-1)";
  let exps = get_fig7_experiments () in
  let rows =
    List.map
      (fun (sys, e) ->
        [ system_name sys;
          s e.steps.t_insert;
          s e.steps.t_first;
          s e.steps.t_rest;
          s e.steps.t_update;
          s e.total_audit_s ])
      exps
  in
  Report.print_table
    ~header:
      [ "System"; "Inserts"; "First Select"; "Other Selects"; "Updates";
        "Total (incl. setup)" ]
    rows;
  Report.note
    "Expected shape: server-included pays provenance queries on Selects and\n\
     reenactment on Updates; inserts are cheap everywhere; server-excluded\n\
     only pays result recording.\n"

(* ------------------------------------------------------------------ *)
(* Figure 7b: replay time per step (query Q1-1).                       *)

let fig7b () =
  Report.section "Figure 7b: replay time per step (Q1-1)";
  let exps = get_fig7_experiments () in
  let rows =
    List.map
      (fun (sys, e) ->
        let pkg = build_package e in
        let r = run_replay e pkg in
        [ system_name sys;
          s r.init_s;
          s r.rsteps.t_first;
          s r.rsteps.t_rest;
          s r.rsteps.t_insert;
          s r.rsteps.t_update;
          (if r.verified then "yes" else "NO") ])
      exps
  in
  Report.print_table
    ~header:
      [ "System"; "Initialization"; "First Select"; "Other Selects";
        "Inserts"; "Updates"; "Verified" ]
    rows;
  Report.note
    "Expected shape: server-included pays per-tuple DB initialization from\n\
     the packaged CSVs but queries then run on the (smaller) subset;\n\
     server-excluded answers reads from disk in time linear in result size.\n"

(* ------------------------------------------------------------------ *)
(* Figures 8a/8b and 9: the 18-query sweep.                            *)

type sweep_row = {
  sw_vid : string;
  sw_system : system;
  sw_audit_query_s : float;  (** avg per query execution while audited *)
  sw_replay_query_s : float;  (** avg per query execution during replay *)
  sw_pkg_bytes : int;
  sw_verified : bool;
}

let sweep_cache = ref ([] : sweep_row list)

let baseline_query_times : (string, float) Hashtbl.t = Hashtbl.create 32

let baseline_query_s vid =
  match Hashtbl.find_opt baseline_query_times vid with
  | Some t -> t
  | None ->
    let inst = Instance.get ~sf:!sf in
    let db = Instance.fresh_db inst in
    let q = Tpch.Queries.find inst.Instance.stats vid in
    (* warm once, then measure three runs *)
    ignore (Minidb.Database.query db q.Tpch.Queries.sql);
    let _, dt =
      time ~span:"bench.baseline_query" (fun () ->
          for _ = 1 to 3 do
            ignore (Minidb.Database.query db q.Tpch.Queries.sql)
          done)
    in
    let t = dt /. 3.0 in
    Hashtbl.replace baseline_query_times vid t;
    t

let run_sweep () =
  if !sweep_cache = [] then begin
    let inst = Instance.get ~sf:!sf in
    let variants = Tpch.Queries.variants inst.Instance.stats in
    let counts = sweep_counts () in
    let rows =
      List.concat_map
        (fun (v : Tpch.Queries.variant) ->
          List.map
            (fun sys ->
              let e = run_audit ~counts ~vid:v.Tpch.Queries.vid sys in
              let per_query_audit =
                (e.steps.t_first +. e.steps.t_rest)
                /. float_of_int counts.n_select
              in
              let pkg = build_package e in
              let r = run_replay e pkg in
              let per_query_replay =
                (r.rsteps.t_first +. r.rsteps.t_rest)
                /. float_of_int counts.n_select
              in
              Printf.eprintf
                "  sweep %s %-16s audit/q=%s replay/q=%s size=%sMB%s\n%!"
                v.Tpch.Queries.vid (system_name sys) (s per_query_audit)
                (s per_query_replay)
                (mb (Package.total_bytes pkg))
                (if r.verified then "" else " [VERIFY FAILED]");
              { sw_vid = v.Tpch.Queries.vid;
                sw_system = sys;
                sw_audit_query_s = per_query_audit;
                sw_replay_query_s = per_query_replay;
                sw_pkg_bytes = Package.total_bytes pkg;
                sw_verified = r.verified })
            systems)
        variants
    in
    sweep_cache := rows
  end;
  !sweep_cache

let sweep_table ~header value =
  let rows = run_sweep () in
  let inst = Instance.get ~sf:!sf in
  let variants = Tpch.Queries.variants inst.Instance.stats in
  List.map
    (fun (v : Tpch.Queries.variant) ->
      let vid = v.Tpch.Queries.vid in
      let cell sys =
        let r =
          List.find (fun r -> r.sw_vid = vid && r.sw_system = sys) rows
        in
        value vid r
      in
      vid :: List.map cell systems)
    variants
  |> Report.print_table ~header

let fig8a () =
  Report.section "Figure 8a: per-query execution time during audit";
  sweep_table
    ~header:[ "Query"; "PostgreSQL+PTU"; "Server-included"; "Server-excluded" ]
    (fun _ r -> s r.sw_audit_query_s);
  Report.note
    "Expected shape: times grow with selectivity within each family; the\n\
     relative overhead of server-included is large but stable across\n\
     selectivities.\n"

let fig8b () =
  Report.section "Figure 8b: per-query execution time during replay";
  let rows = run_sweep () in
  let inst = Instance.get ~sf:!sf in
  let variants = Tpch.Queries.variants inst.Instance.stats in
  let table =
    List.map
      (fun (v : Tpch.Queries.variant) ->
        let vid = v.Tpch.Queries.vid in
        let cell sys =
          let r =
            List.find (fun r -> r.sw_vid = vid && r.sw_system = sys) rows
          in
          s r.sw_replay_query_s
        in
        let vm =
          s (Vmi.replay_seconds ~native_seconds:(baseline_query_s vid))
        in
        (vid :: List.map cell systems) @ [ vm ])
      variants
  in
  Report.print_table
    ~header:
      [ "Query"; "PostgreSQL+PTU"; "Server-included"; "Server-excluded"; "VM" ]
    table;
  Report.note
    "Expected shape: server-excluded replay reads recorded results from the\n\
     package (linear in result size; extreme case Q3 returns one row);\n\
     server-included queries the restored subset, matching or beating the\n\
     baseline; the VM is slowest.\n"

let fig9 () =
  Report.section "Figure 9: package size (MB)";
  sweep_table
    ~header:
      [ "Query"; "PTU package (MB)"; "Server-included (MB)";
        "Server-excluded (MB)" ]
    (fun _ r -> mb r.sw_pkg_bytes);
  (* Extrapolation: the simulated data files scale with sf while binaries
     are constant. At SF=1 (the paper's instance) the data-dependent bytes
     multiply by 1/sf, which restores the paper's orders-of-magnitude gap. *)
  Report.note
    "Note: at micro scale the constant 38 MB server binary dominates both\n\
     PTU and server-included packages; the data-dependent components below\n\
     scale with 1/sf = %.0fx to the paper's SF=1.\n"
    (1.0 /. !sf);
  let rows = run_sweep () in
  let inst = Instance.get ~sf:!sf in
  let variants = Tpch.Queries.variants inst.Instance.stats in
  let binaries_bytes = function
    (* server binary + libs + libc + app binary for the systems that ship
       the server; just libc + libpq + app for server-excluded *)
    | Sys_ptu | Sys_included ->
      38_000_000 + 900_000 + 2_300_000 + 2_000_000 + 250_000
    | Sys_excluded -> 2_000_000 + 250_000
  in
  List.map
    (fun (v : Tpch.Queries.variant) ->
      let vid = v.Tpch.Queries.vid in
      let cell sys =
        let r =
          List.find (fun r -> r.sw_vid = vid && r.sw_system = sys) rows
        in
        let fixed = binaries_bytes sys in
        let data = max 0 (r.sw_pkg_bytes - fixed) in
        let scaled = (float_of_int data /. !sf) +. float_of_int fixed in
        Printf.sprintf "%.1f" (scaled /. 1e6)
      in
      vid :: List.map cell systems)
    variants
  |> Report.print_table
       ~header:
         [ "Query"; "PTU @SF=1 (MB)"; "Server-included @SF=1 (MB)";
           "Server-excluded @SF=1 (MB)" ]

(* ------------------------------------------------------------------ *)
(* Section IX-F: the VMI comparison.                                   *)

let vmi () =
  Report.section "Section IX-F: virtual machine image comparison";
  let inst = Instance.get ~sf:!sf in
  let db = Instance.fresh_db inst in
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel db in
  Tpch.Workload.install_runtime kernel;
  let q = Tpch.Queries.find inst.Instance.stats "Q1-1" in
  let cfg =
    Tpch.Workload.default_config ~query_sql:q.Tpch.Queries.sql
      ~stats:inst.Instance.stats
  in
  ignore (Tpch.Workload.install_app_files kernel cfg);
  let image = Vmi.of_kernel kernel ~server in
  Report.print_table ~header:[ "VMI component"; "Size" ]
    (List.map
       (fun (label, bytes) -> [ label; Report.human_bytes bytes ])
       image.Vmi.components
    @ [ [ "TOTAL"; Report.human_bytes image.Vmi.image_bytes ] ]);
  (* average LDV package size over the fig7 experiments *)
  let exps = get_fig7_experiments () in
  let ldv_sizes =
    List.filter_map
      (fun (sys, e) ->
        match sys with
        | Sys_included | Sys_excluded ->
          Some (Package.total_bytes (build_package e))
        | Sys_ptu -> None)
      exps
  in
  let avg =
    List.fold_left ( + ) 0 ldv_sizes / max 1 (List.length ldv_sizes)
  in
  Report.note "Average LDV package: %s; VMI is %.0fx larger.\n"
    (Report.human_bytes avg)
    (float_of_int image.Vmi.image_bytes /. float_of_int (max 1 avg));
  Report.note
    "VM replay model: boot %.0f s, query slowdown factor %.2fx over native\n\
     (used for the VM column of Figure 8b).\n"
    Vmi.init_seconds Vmi.query_overhead_factor

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md.                  *)

let ablation () =
  Report.section "Ablation 1: slicing on vs off (server-included DB content)";
  let e = run_audit ~counts:(sweep_counts ()) ~vid:"Q1-1" Sys_included in
  let db = Dbclient.Server.db e.audit.Audit.server in
  let sliced = Slice.relevant e.audit in
  let all_live =
    List.fold_left
      (fun acc name ->
        let table = Minidb.Catalog.find (Minidb.Database.catalog db) name in
        List.fold_left
          (fun acc (tv : Minidb.Table.tuple_version) ->
            Minidb.Tid.Set.add tv.Minidb.Table.tid acc)
          acc (Minidb.Table.scan table))
      Minidb.Tid.Set.empty
      (Minidb.Catalog.table_names (Minidb.Database.catalog db))
  in
  (* materialize each subset once and size the blobs, rather than
     encoding a second time through [Slice.subset_bytes] *)
  let b_sliced = Slice.subset_bytes_of_csvs (Slice.to_csvs db sliced) in
  let b_full = Slice.subset_bytes_of_csvs (Slice.to_csvs db all_live) in
  Report.print_table ~header:[ "Variant"; "Tuples"; "CSV bytes" ]
    [ [ "relevant subset (LDV)";
        string_of_int (Minidb.Tid.Set.cardinal sliced);
        Report.human_bytes b_sliced ];
      [ "full DB (no slicing)";
        string_of_int (Minidb.Tid.Set.cardinal all_live);
        Report.human_bytes b_full ] ];
  Report.note "Slicing shrinks the DB content %.1fx for Q1-1.\n"
    (float_of_int b_full /. float_of_int (max 1 b_sliced));

  Report.section "Ablation 2: provenance computation cost per query";
  let inst = Instance.get ~sf:!sf in
  let dbq = Instance.fresh_db inst in
  let q = Tpch.Queries.find inst.Instance.stats "Q1-5" in
  ignore (Minidb.Database.query dbq q.Tpch.Queries.sql);
  let _, plain =
    time (fun () ->
        for _ = 1 to 3 do
          ignore (Minidb.Database.query dbq q.Tpch.Queries.sql)
        done)
  in
  let _, with_prov =
    time (fun () ->
        for _ = 1 to 3 do
          ignore (Perm.Provenance_sql.query_lineage dbq q.Tpch.Queries.sql)
        done)
  in
  Report.print_table ~header:[ "Execution"; "Per query (Q1-5)" ]
    [ [ "plain"; s (plain /. 3.) ]; [ "with lineage"; s (with_prov /. 3.) ] ];

  Report.section "Ablation 3: interception overhead per statement";
  let count = 200 in
  let run_mode mode =
    let db = Instance.fresh_db inst in
    let kernel = Minios.Kernel.create () in
    let server = Dbclient.Server.install kernel db in
    let session = I.create ~mode ~kernel server in
    let _, dt =
      time (fun () ->
          for k = 1 to count do
            ignore
              (I.execute session ~pid:1
                 (Printf.sprintf
                    "SELECT o_comment FROM orders WHERE o_orderkey = %d" k))
          done)
    in
    dt /. float_of_int count
  in
  Report.print_table ~header:[ "Interceptor mode"; "Per point query" ]
    [ [ "passthrough"; s (run_mode I.Passthrough) ];
      [ "audit (server-excluded)"; s (run_mode I.Audit_excluded) ];
      [ "audit (server-included)"; s (run_mode I.Audit_included) ] ];

  Report.section "Ablation 4: secondary index on the update workload";
  let point_updates db n =
    let _, dt =
      time (fun () ->
          for k = 1 to n do
            ignore
              (Minidb.Database.exec db
                 (Printf.sprintf
                    "UPDATE orders SET o_comment = 'c%d' WHERE o_orderkey = %d"
                    k k))
          done)
    in
    dt /. float_of_int n
  in
  (* instances restore with the PK indexes of tpch_schema in place; drop
     the orders one for the unindexed variant *)
  let with_index = Instance.fresh_db inst in
  let without_index = Instance.fresh_db inst in
  ignore (Minidb.Database.exec without_index "DROP INDEX orders_pk");
  Report.print_table ~header:[ "Variant"; "Per point update" ]
    [ [ "with o_orderkey index"; s (point_updates with_index 100) ];
      [ "without index (full scan)"; s (point_updates without_index 50) ] ];

  Report.section "Ablation 5: packaged-subset restore vs AS OF time travel";
  (* Two ways to answer a query against a past state: restore the packaged
     subset into a fresh DB (LDV), or keep the full versioned DB around
     and query AS OF (the temporal-DB alternative of the related work). *)
  let db_tt = Instance.fresh_db inst in
  let q1 = Tpch.Queries.find inst.Instance.stats "Q1-1" in
  let snapshot = Minidb.Database.clock db_tt in
  ignore
    (Minidb.Database.exec db_tt
       "UPDATE lineitem SET l_comment = 'perturbed' WHERE l_suppkey = 1");
  let asof_sql =
    (* rewrite Q1-1's FROM to scan the snapshot *)
    Str_replace.replace q1.Tpch.Queries.sql ~needle:"FROM lineitem"
      ~replacement:(Printf.sprintf "FROM lineitem AS OF %d" snapshot)
  in
  let _, t_asof =
    time (fun () -> ignore (Minidb.Database.query db_tt asof_sql))
  in
  let e = run_audit ~counts:(sweep_counts ()) ~vid:"Q1-1" Sys_included in
  let pkg = build_package e in
  let (_ : Replay.prepared), t_restore = time (fun () -> Replay.prepare pkg) in
  Report.print_table ~header:[ "Strategy"; "Time"; "Notes" ]
    [ [ "LDV subset restore + query"; s t_restore;
        "fresh environment; needs only the package" ];
      [ "AS OF over full versioned DB"; s t_asof;
        "needs the original server and full history" ] ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the inner loops behind each figure.      *)

let micro () =
  Report.section "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let inst = Instance.get ~sf:(min !sf 0.002) in
  let db = Instance.fresh_db inst in
  let q1 = Tpch.Queries.find inst.Instance.stats "Q1-1" in
  let q2 = Tpch.Queries.find inst.Instance.stats "Q2-2" in
  let q3 = Tpch.Queries.find inst.Instance.stats "Q3-1" in
  let fig6_trace =
    (* the Figure 6b chain, for inference cost *)
    let t = Prov.Trace.create Prov.Bb_model.model in
    ignore (Prov.Bb_model.add_process t ~pid:1 ~name:"P1");
    ignore (Prov.Bb_model.add_process t ~pid:2 ~name:"P2");
    List.iter
      (fun p -> ignore (Prov.Bb_model.add_file t ~path:p))
      [ "A"; "B"; "C" ];
    ignore
      (Prov.Bb_model.read_from t ~pid:1 ~path:"A" ~time:(Prov.Interval.make 1 1));
    ignore
      (Prov.Bb_model.has_written t ~pid:1 ~path:"B"
         ~time:(Prov.Interval.make 4 7));
    ignore
      (Prov.Bb_model.read_from t ~pid:2 ~path:"B" ~time:(Prov.Interval.make 2 5));
    ignore
      (Prov.Bb_model.has_written t ~pid:2 ~path:"C"
         ~time:(Prov.Interval.make 1 6));
    t
  in
  let sales = Minidb.Database.create () in
  ignore (Minidb.Database.exec sales "CREATE TABLE s (x INT, y INT)");
  for k = 1 to 200 do
    ignore
      (Minidb.Database.exec sales
         (Printf.sprintf "INSERT INTO s VALUES (%d, %d)" k (k mod 17)))
  done;
  (* a fixed small Q3-1 audit: tuple lineage on every select, DML
     dependencies on every write *)
  let q3_audit =
    (run_audit ~sf:0.002
       ~counts:{ n_insert = 20; n_select = 2; n_update = 5 }
       ~vid:"Q3-1" Sys_included)
      .audit
  in
  let q3_stmts = Audit.stmts q3_audit in
  let csv_schema =
    Minidb.Schema.of_list
      [ Minidb.Schema.column "a" Minidb.Value.Tint;
        Minidb.Schema.column "b" Minidb.Value.Tstr ]
  in
  (* the storage cases use the full-scan table of the paper's Select step
     at the bench scale (60,009 lineitem rows at the default sf 0.01) *)
  let bench_db = Instance.fresh_db (Instance.get ~sf:!sf) in
  let lineitem =
    Minidb.Catalog.find (Minidb.Database.catalog bench_db) "lineitem"
  in
  let lineitem_tids =
    Array.map
      (fun (tv : Minidb.Table.tuple_version) -> tv.Minidb.Table.tid)
      (Minidb.Table.scan_array lineitem)
  in
  (* the data file of the same table: what a traced server writes at
     start and a PTU replay loads *)
  let lineitem_image = Dbclient.Server.table_image lineitem in
  let lineitem_file = Dbclient.Server.encode_table_image lineitem_image in
  (* a traced server over the same database: the fixed cost every
     server-included and PTU audit pays around the app *)
  let server_kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install server_kernel bench_db in
  let tests =
    [ Test.make ~name:"sql-parse(Q2)"
        (Staged.stage (fun () -> Minidb.Sql_parser.parse q2.Tpch.Queries.sql));
      Test.make ~name:"fig8a/select-scan(Q1-1)"
        (Staged.stage (fun () -> Minidb.Database.query db q1.Tpch.Queries.sql));
      Test.make ~name:"fig8a/lineage(Q1-1)"
        (Staged.stage (fun () ->
             Perm.Provenance_sql.query_lineage db q1.Tpch.Queries.sql));
      Test.make ~name:"fig8a/hash-join(Q2-2)"
        (Staged.stage (fun () -> Minidb.Database.query db q2.Tpch.Queries.sql));
      Test.make ~name:"exec/join-count(Q3-1)"
        (Staged.stage (fun () -> Minidb.Database.query db q3.Tpch.Queries.sql));
      Test.make ~name:"perm/lineage(Q3-1)"
        (Staged.stage (fun () ->
             Perm.Provenance_sql.query_lineage db q3.Tpch.Queries.sql));
      Test.make ~name:"aggregate-groupby"
        (Staged.stage (fun () ->
             Minidb.Database.query sales
               "SELECT y, count(*), sum(x) FROM s GROUP BY y"));
      Test.make ~name:"audit/build-trace(Q3-1)"
        (Staged.stage (fun () ->
             Audit.build_trace q3_audit.Audit.tracer q3_stmts));
      Test.make ~name:"fig6/temporal-inference"
        (Staged.stage (fun () ->
             Prov.Dependency.dependencies_of fig6_trace "file:C"));
      Test.make ~name:"like-match"
        (Staged.stage (fun () ->
             Minidb.Eval_expr.like_match ~pattern:"%00000%"
               "Customer#000012345"));
      Test.make ~name:"storage/scan(lineitem)"
        (Staged.stage (fun () -> Minidb.Table.scan_array lineitem));
      Test.make ~name:"storage/find-version(lineitem)"
        (Staged.stage (fun () ->
             Array.iter
               (fun tid -> ignore (Minidb.Table.find_version lineitem tid))
               lineitem_tids));
      Test.make ~name:"server/encode-image(lineitem)"
        (Staged.stage (fun () ->
             Dbclient.Server.encode_table_image lineitem_image));
      Test.make ~name:"server/decode-image(lineitem)"
        (Staged.stage (fun () ->
             Dbclient.Server.decode_table_image lineitem_file));
      Test.make
        ~name:(Printf.sprintf "server/start+stop-traced(sf %g)" !sf)
        (Staged.stage (fun () ->
             ignore (Dbclient.Server.start_traced server_kernel server);
             Dbclient.Server.stop_traced server_kernel server));
      Test.make ~name:"faults/crc32(lineitem image)"
        (Staged.stage (fun () -> Ldv_faults.Crc32.digest lineitem_file));
      Test.make ~name:"fig9/csv-encode-row"
        (Staged.stage (fun () ->
             Minidb.Csv.encode_versions csv_schema
               [ (1, 1, [| Minidb.Value.Int 42; Minidb.Value.Str "hello" |]) ]))
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let rows =
    List.concat_map
      (fun test ->
        List.map
          (fun elt ->
            let m = Benchmark.run cfg instances elt in
            let est = Analyze.one ols Toolkit.Instance.monotonic_clock m in
            let ns =
              match Analyze.OLS.estimates est with
              | Some (v :: _) -> v
              | _ -> nan
            in
            [ Test.Elt.name elt; Report.seconds (ns /. 1e9) ])
          (Test.elements test))
      tests
  in
  Report.print_table ~header:[ "benchmark"; "time/run" ] rows

(* ------------------------------------------------------------------ *)
(* Profile: native vs audited run, per-stage overhead breakdown. The
   audited run's spans are isolated by span-id windowing (the Memory
   sink is global for the whole bench process) and fed through
   [Ldv_obs.Profile]; the result lands in BENCH_profile.json next to
   BENCH_obs.json.                                                     *)

module P = Ldv_obs.Profile
module Json = Ldv_obs.Json

(* The Q1-1 workload app run with a passthrough session and no tracer:
   the observability-free baseline the audit overhead is measured
   against. *)
let run_native counts : float =
  Gc.compact ();
  let inst = Instance.get ~sf:!sf in
  let db = Instance.fresh_db inst in
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel db in
  Tpch.Workload.install_runtime kernel;
  let q = Tpch.Queries.find inst.Instance.stats "Q1-1" in
  let cfg =
    { (Tpch.Workload.default_config ~query_sql:q.Tpch.Queries.sql
         ~stats:inst.Instance.stats)
      with
      Tpch.Workload.n_insert = counts.n_insert;
      n_select = counts.n_select;
      n_update = counts.n_update }
  in
  let binary = Tpch.Workload.install_app_files kernel cfg in
  let program = Tpch.Workload.app cfg in
  incr name_counter;
  let app_name = Printf.sprintf "bench-native-%d" !name_counter in
  Minios.Program.register ~name:app_name program;
  let session = I.create ~mode:I.Passthrough ~kernel server in
  I.bind kernel session;
  Fun.protect
    ~finally:(fun () -> I.unbind kernel)
    (fun () ->
      let _, dt =
        time (fun () ->
            Minios.Program.run kernel ~binary ~libs:Tpch.Workload.app_libs
              ~name:app_name program)
      in
      dt)

let profile_bench () =
  Report.section "Profile: audit overhead breakdown (Q1-1, server-included)";
  let counts = sweep_counts () in
  (* the native baseline runs with observability fully off, so the factor
     charges the audit for its instrumentation too *)
  Ldv_obs.set_sink Ldv_obs.Null;
  let native_s =
    Fun.protect
      ~finally:(fun () -> Ldv_obs.set_sink Ldv_obs.Memory)
      (fun () -> run_native counts)
  in
  let last_id =
    List.fold_left
      (fun acc (sp : Ldv_obs.span) -> max acc sp.Ldv_obs.sp_id)
      0 (Ldv_obs.snapshot ()).Ldv_obs.spans
  in
  let e = run_audit ~counts ~vid:"Q1-1" Sys_included in
  let after = Ldv_obs.snapshot () in
  let windowed =
    { after with
      Ldv_obs.spans =
        List.filter
          (fun (sp : Ldv_obs.span) -> sp.Ldv_obs.sp_id > last_id)
          after.Ldv_obs.spans }
  in
  let prof = P.of_snapshot windowed in
  let rows = P.rows prof in
  let total_of name =
    match List.find_opt (fun (r : P.row) -> r.P.r_name = name) rows with
    | Some r -> r.P.r_total
    | None -> 0.0
  in
  let audited_s = total_of "audit.app" in
  let overhead =
    if native_s > 0.0 then audited_s /. native_s else Float.nan
  in
  Report.print_table
    ~header:[ "run"; "wall" ]
    [ [ "native app (passthrough, no tracer)"; s native_s ];
      [ "audited app (server-included)"; s audited_s ];
      [ "full audit incl. setup + trace build"; s e.total_audit_s ] ];
  Report.note "audit overhead factor: %.2fx over native\n" overhead;
  Report.section "Per-stage breakdown of the audited run";
  Report.print_table
    ~header:[ "stage"; "count"; "total"; "self" ]
    (List.map
       (fun (r : P.row) ->
         [ r.P.r_name;
           string_of_int r.P.r_count;
           s r.P.r_total;
           s r.P.r_self ])
       rows);
  let json =
    Json.Obj
      [ ("query", Json.Str "Q1-1");
        ("system", Json.Str (system_name Sys_included));
        ("native_s", Json.Float native_s);
        ("audited_s", Json.Float audited_s);
        ("audit_total_s", Json.Float e.total_audit_s);
        ("overhead_factor", Json.Float overhead);
        ("stages",
         Json.List
           (List.map
              (fun (r : P.row) ->
                Json.Obj
                  [ ("name", Json.Str r.P.r_name);
                    ("count", Json.Int r.P.r_count);
                    ("total_s", Json.Float r.P.r_total);
                    ("self_s", Json.Float r.P.r_self) ])
              rows)) ]
  in
  let oc = open_out "BENCH_profile.json" in
  output_string oc (Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Printf.eprintf "wrote BENCH_profile.json\n%!"

(* ------------------------------------------------------------------ *)
(* Concurrent sessions: scheduler scaling, WAL group commit, and
   deterministic replay of the recorded schedule. Writes
   BENCH_concurrent.json.                                              *)

(** WAL fsync barriers for [rounds] scheduler quanta of [sessions]
    autocommit inserts each. The grouped variant uses the real quantum
    hook: [Durable.enable_group_commit] registers the flush on the
    kernel, and each simulated quantum boundary runs the kernel's hooks
    exactly as {!Minios.Sched} does after every round. *)
let wal_barriers ~grouped ~sessions ~rounds : int =
  let kernel = Minios.Kernel.create () in
  let db = Minidb.Database.create () in
  let server = Dbclient.Server.attach db in
  let proc = Minios.Kernel.start_process kernel ~name:"minidb-server" () in
  let d = Dbclient.Durable.start kernel server ~pid:proc.Minios.Kernel.pid in
  if grouped then Dbclient.Durable.enable_group_commit d;
  ignore (Dbclient.Durable.exec d "CREATE TABLE t (a INT, b TEXT)");
  for round = 1 to rounds do
    for sid = 0 to sessions - 1 do
      ignore
        (Dbclient.Durable.exec d
           (Printf.sprintf "INSERT INTO t VALUES (%d, 'session %d')"
              ((round * 100) + sid) sid))
    done;
    Minios.Kernel.run_quantum_hooks kernel
  done;
  Dbclient.Durable.flush d;
  Dbclient.Durable.fsync_barriers d

let concurrent_bench () =
  Report.section
    "Concurrent sessions: group commit and schedule-deterministic replay";
  let statements = 12 in
  let json_rows = ref [] in
  let table_rows =
    List.map
      (fun sessions ->
        let per_stmt =
          wal_barriers ~grouped:false ~sessions ~rounds:statements
        in
        let grouped =
          wal_barriers ~grouped:true ~sessions ~rounds:statements
        in
        let (audit, pkg_bytes), wall =
          time (fun () ->
              let audit =
                Concurrent.audited ~sessions ~statements ~seed:42 ()
              in
              (audit, Package.to_bytes (Package.build audit)))
        in
        let audit2 = Concurrent.audited ~sessions ~statements ~seed:42 () in
        let deterministic =
          String.equal pkg_bytes (Package.to_bytes (Package.build audit2))
        in
        let r = Replay.execute (Package.of_bytes pkg_bytes) in
        let replay_ok = Replay.verify ~audit r = [] in
        json_rows :=
          Json.Obj
            [ ("sessions", Json.Int sessions);
              ("statements_per_session", Json.Int statements);
              ("fsync_barriers_per_stmt", Json.Int per_stmt);
              ("fsync_barriers_grouped", Json.Int grouped);
              ("wall_ms", Json.Float (wall *. 1000.));
              ("pkg_bytes", Json.Int (String.length pkg_bytes));
              ("deterministic", Json.Bool deterministic);
              ("replay_ok", Json.Bool replay_ok) ]
          :: !json_rows;
        [ string_of_int sessions;
          string_of_int per_stmt;
          string_of_int grouped;
          Printf.sprintf "%.1fx"
            (float_of_int per_stmt /. float_of_int (max 1 grouped));
          s wall;
          (if deterministic then "yes" else "NO");
          (if replay_ok then "yes" else "NO") ])
      [ 1; 2; 4; 8 ]
  in
  Report.print_table
    ~header:
      [ "sessions"; "fsync/stmt"; "fsync grouped"; "reduction"; "audit+pkg";
        "same-seed bytes"; "replay verified" ]
    table_rows;
  Report.note
    "Group commit batches every concurrent commit of a scheduler quantum\n\
     into one fsync barrier; replay re-runs all sessions under the\n\
     recorded seed, so the interleaving-dependent results repeat.\n";
  let oc = open_out "BENCH_concurrent.json" in
  output_string oc (Json.to_string (Json.List (List.rev !json_rows)));
  output_string oc "\n";
  close_out oc;
  Printf.eprintf "wrote BENCH_concurrent.json\n%!"

(* ------------------------------------------------------------------ *)
(* Interactive transactions: commit throughput and first-updater-wins
   abort rate at 1/4/8 sessions over the contended tx workload. Writes
   BENCH_txn.json.                                                     *)

let txn_bench () =
  Report.section
    "Interactive transactions: commit throughput and abort rate";
  let rounds = 8 in
  let json_rows = ref [] in
  let table_rows =
    List.map
      (fun sessions ->
        let audit, wall =
          time (fun () -> Concurrent.audited_tx ~sessions ~rounds ~seed:42 ())
        in
        let outcomes = Audit.tx_outcomes (Audit.stmts audit) in
        let count o =
          List.length (List.filter (fun (_, _, x) -> x = o) outcomes)
        in
        let committed = count Audit.Tx_committed in
        let rolled_back = count Audit.Tx_rolled_back in
        let aborted = count Audit.Tx_aborted + count Audit.Tx_retried in
        let total = List.length outcomes in
        let abort_rate =
          if total = 0 then 0.0
          else float_of_int aborted /. float_of_int total
        in
        let commit_per_s =
          if wall > 0.0 then float_of_int committed /. wall else 0.0
        in
        let audit2 = Concurrent.audited_tx ~sessions ~rounds ~seed:42 () in
        let deterministic =
          outcomes = Audit.tx_outcomes (Audit.stmts audit2)
        in
        json_rows :=
          Json.Obj
            [ ("sessions", Json.Int sessions);
              ("rounds_per_session", Json.Int rounds);
              ("transactions", Json.Int total);
              ("committed", Json.Int committed);
              ("rolled_back", Json.Int rolled_back);
              ("aborted", Json.Int aborted);
              ("abort_rate", Json.Float abort_rate);
              ("commits_per_s", Json.Float commit_per_s);
              ("wall_ms", Json.Float (wall *. 1000.));
              ("deterministic", Json.Bool deterministic) ]
          :: !json_rows;
        [ string_of_int sessions;
          string_of_int total;
          string_of_int committed;
          string_of_int rolled_back;
          string_of_int aborted;
          Printf.sprintf "%.1f%%" (100.0 *. abort_rate);
          Printf.sprintf "%.0f/s" commit_per_s;
          s wall;
          (if deterministic then "yes" else "NO") ])
      [ 1; 4; 8 ]
  in
  Report.print_table
    ~header:
      [ "sessions"; "txs"; "committed"; "rolled back"; "aborted"; "abort rate";
        "commit rate"; "wall"; "same-seed decisions" ]
    table_rows;
  Report.note
    "Every transaction updates one of four shared seed rows, so the\n\
     abort rate is the price of first-updater-wins under growing\n\
     concurrency; aborted transactions are retried by the client's\n\
     bounded-retry loop until they commit.\n";
  let oc = open_out "BENCH_txn.json" in
  output_string oc (Json.to_string (Json.List (List.rev !json_rows)));
  output_string oc "\n";
  close_out oc;
  Printf.eprintf "wrote BENCH_txn.json\n%!"

(* ------------------------------------------------------------------ *)
(* Contention: wait-state attribution at 1/4/8 sessions. A concurrent
   audit (latch contention at the interceptor) plus a grouped-WAL loop
   (group-commit fsync deferral) run under the global Memory sink; each
   run's spans are isolated by span-id windowing and the cumulative
   counters by before/after deltas. Writes BENCH_contention.json.       *)

module C = Ldv_obs.Contention
module H = Ldv_obs.Histogram

let contention_bench () =
  Report.section "Contention: wait-state attribution by session count";
  let statements = 12 in
  let counter_of (snap : Ldv_obs.snapshot) name =
    match List.assoc_opt name snap.Ldv_obs.counters with
    | Some v -> v
    | None -> 0
  in
  let pct v = Printf.sprintf "%.1f%%" (100.0 *. v) in
  let json_rows = ref [] in
  let table_rows =
    List.map
      (fun sessions ->
        let before = Ldv_obs.snapshot () in
        let last_id =
          List.fold_left
            (fun acc (sp : Ldv_obs.span) -> max acc sp.Ldv_obs.sp_id)
            0 before.Ldv_obs.spans
        in
        ignore (Concurrent.audited ~sessions ~statements ~seed:42 ());
        ignore (wal_barriers ~grouped:true ~sessions ~rounds:statements);
        let after = Ldv_obs.snapshot () in
        let windowed =
          { after with
            Ldv_obs.spans =
              List.filter
                (fun (sp : Ldv_obs.span) -> sp.Ldv_obs.sp_id > last_id)
                after.Ldv_obs.spans }
        in
        let rep = C.contention windowed in
        let latch_wait_s =
          List.fold_left
            (fun acc (a : C.session_attr) -> acc +. a.C.a_latch_wait)
            0.0 rep.C.c_sessions
        in
        (* the global histograms are cumulative across the whole bench
           process, so the per-run group-commit stall distribution is
           rebuilt from the windowed wait spans *)
        let stall_h = H.create () in
        List.iter
          (fun (sp : Ldv_obs.span) ->
            if sp.Ldv_obs.sp_name = C.group_commit_wait_span then
              H.observe stall_h sp.Ldv_obs.sp_dur)
          windowed.Ldv_obs.spans;
        let stall = H.summarize stall_h in
        let delta name = counter_of after name - counter_of before name in
        let rounds_deferred = delta "wal.group_commit.rounds_deferred" in
        let deferred_commits = delta "wal.deferred_sync" in
        json_rows :=
          Json.Obj
            [ ("sessions", Json.Int sessions);
              ("statements_per_session", Json.Int statements);
              ("latch_waits", Json.Int (delta "latch.waits"));
              ("latch_wait_s", Json.Float latch_wait_s);
              ("latch_wait_share", Json.Float rep.C.c_latch_share);
              ("blocked_share", Json.Float rep.C.c_blocked_share);
              ("group_commit_stall_p95_s", Json.Float stall.H.s_p95);
              ("rounds_deferred", Json.Int rounds_deferred);
              ("deferred_commits", Json.Int deferred_commits) ]
          :: !json_rows;
        [ string_of_int sessions;
          string_of_int (delta "latch.waits");
          pct rep.C.c_latch_share;
          pct rep.C.c_blocked_share;
          (if stall.H.s_count = 0 then "-" else s stall.H.s_p95);
          string_of_int rounds_deferred;
          string_of_int deferred_commits ])
      [ 1; 4; 8 ]
  in
  Report.print_table
    ~header:
      [ "sessions"; "latch waits"; "latch share"; "blocked share";
        "gc stall p95"; "rounds deferred"; "deferred commits" ]
    table_rows;
  Report.note
    "Latch share is wait.latch time over summed session wall time from the\n\
     concurrent audit; the group-commit columns come from a grouped-WAL\n\
     loop of the same session count. One session has nothing to contend\n\
     with, so its shares are the zero baseline.\n";
  let oc = open_out "BENCH_contention.json" in
  output_string oc (Json.to_string (Json.List (List.rev !json_rows)));
  output_string oc "\n";
  close_out oc;
  Printf.eprintf "wrote BENCH_contention.json\n%!"

(* ------------------------------------------------------------------ *)
(* Overhead: the phase-attributed audit-overhead ledger as session count
   grows 1 -> 4 -> 8, over a replicated concurrent audit so every phase
   (parse/plan/exec/WAL/fsync/audit-record/provenance/obs-self) has
   work. The ledger histograms are cumulative across the bench process,
   so each run is isolated by before/after (count, sum) deltas. Writes
   BENCH_overhead.json.                                                *)

module L = Ldv_obs.Ledger

let overhead_bench () =
  Report.section "Overhead ledger: per-phase statement cost by session count";
  let statements = 12 in
  let hist_of (snap : Ldv_obs.snapshot) name =
    match List.assoc_opt name snap.Ldv_obs.histograms with
    | Some sum -> (sum.H.s_count, sum.H.s_sum)
    | None -> (0, 0.0)
  in
  let json_rows = ref [] in
  let table_rows =
    List.map
      (fun sessions ->
        let before = Ldv_obs.snapshot () in
        ignore
          (Concurrent.audited ~replicas:2 ~sessions ~statements ~seed:42 ());
        let after = Ldv_obs.snapshot () in
        let delta name =
          let c0, s0 = hist_of before name and c1, s1 = hist_of after name in
          (c1 - c0, s1 -. s0)
        in
        let stmts, total_s = delta L.stmt_hist in
        let n = float_of_int (max 1 stmts) in
        let per_stmt sum = sum /. n in
        let phase_sums =
          List.map (fun p -> (p, snd (delta (L.hist_of_phase p)))) L.phases
        in
        let _, other_s = delta L.other_hist in
        let audit_s =
          List.fold_left
            (fun acc (p, v) -> if L.is_audit_phase p then acc +. v else acc)
            0.0 phase_sums
        in
        let native_s =
          other_s
          +. List.fold_left
               (fun acc (p, v) -> if L.is_audit_phase p then acc else acc +. v)
               0.0 phase_sums
        in
        let overhead_pct =
          if native_s > 0.0 then 100.0 *. audit_s /. native_s else 0.0
        in
        let obs_self_s = List.assoc L.Obs_self phase_sums in
        json_rows :=
          Json.Obj
            ([ ("sessions", Json.Int sessions);
               ("statements_per_session", Json.Int statements);
               ("statements", Json.Int stmts);
               ("stmt_us_per_stmt", Json.Float (1e6 *. per_stmt total_s)) ]
            @ List.map
                (fun (p, v) ->
                  ( L.phase_name p ^ "_us_per_stmt",
                    Json.Float (1e6 *. per_stmt v) ))
                phase_sums
            @ [ ("other_us_per_stmt", Json.Float (1e6 *. per_stmt other_s));
                ("native_us_per_stmt", Json.Float (1e6 *. per_stmt native_s));
                ("audit_us_per_stmt", Json.Float (1e6 *. per_stmt audit_s));
                ("overhead_pct", Json.Float overhead_pct) ])
          :: !json_rows;
        [ string_of_int sessions;
          string_of_int stmts;
          s (per_stmt total_s);
          s (per_stmt native_s);
          s (per_stmt audit_s);
          s (per_stmt obs_self_s);
          Printf.sprintf "%.2f%%" overhead_pct ])
      [ 1; 4; 8 ]
  in
  Report.print_table
    ~header:
      [ "sessions"; "stmts"; "per-stmt"; "native"; "audit"; "obs-self";
        "overhead" ]
    table_rows;
  Report.note
    "Audit = audit-record + provenance + obs-self per statement; native =\n\
     parse + plan + exec + wal-append + fsync + other. Overhead is audit\n\
     over native — the paper's light-weight claim says it stays flat as\n\
     sessions grow. obs-self is the measured cost of the ledger itself,\n\
     charged against the audit.\n";
  let oc = open_out "BENCH_overhead.json" in
  output_string oc (Json.to_string (Json.List (List.rev !json_rows)));
  output_string oc "\n";
  close_out oc;
  Printf.eprintf "wrote BENCH_overhead.json\n%!"

(* ------------------------------------------------------------------ *)
(* Replication: read throughput at 1/2/4 replicas, and catch-up time
   after a seeded replica crash with a write backlog. Reads are served
   serially by the harness, so the cluster read time is modeled from the
   measured per-read service times: nodes serve their shares in
   parallel, and the slowest node bounds the batch. Writes
   BENCH_replication.json.                                             *)

let replication_bench () =
  Report.section "Replication: read scaling and crash catch-up";
  let module R = Dbclient.Replication in
  let module F = Ldv_faults in
  let reads = 600 and seed_rows = 50 and backlog = 80 in
  let json_rows = ref [] in
  let rows =
    List.map
      (fun replicas ->
        let kernel, leader = Dbclient.Durable.boot () in
        let cluster = R.create kernel ~leader ~replicas () in
        let exec sql =
          match R.exec cluster sql with
          | Dbclient.Protocol.Error_response m ->
            failwith ("replication bench: " ^ m)
          | _ -> ()
        in
        exec "CREATE TABLE accounts (id INT, owner TEXT, balance INT)";
        for i = 1 to seed_rows do
          exec
            (Printf.sprintf "INSERT INTO accounts VALUES (%d, 'o%d', %d)" i i
               (i * 10))
        done;
        (* read phase: round-robin over the replicas; accumulate each
           node's serial service time, then model the cluster batch as
           the slowest node's share running in parallel with the rest *)
        let per_node = Hashtbl.create 8 in
        let queries =
          [| "SELECT COUNT(*) FROM accounts";
             "SELECT SUM(balance) FROM accounts";
             "SELECT owner FROM accounts WHERE id = 7" |]
        in
        let t0 = now () in
        for i = 1 to reads do
          let q = queries.(i mod Array.length queries) in
          let t = now () in
          let served = R.read cluster q in
          let dt = now () -. t in
          let prev =
            Option.value ~default:0.0
              (Hashtbl.find_opt per_node served.R.sv_node)
          in
          Hashtbl.replace per_node served.R.sv_node (prev +. dt)
        done;
        let wall = now () -. t0 in
        let cluster_time =
          Hashtbl.fold (fun _ t acc -> Float.max t acc) per_node 0.0
        in
        let throughput =
          if cluster_time > 0.0 then float_of_int reads /. cluster_time
          else 0.0
        in
        (* catch-up: crash replica 0 on its next apply, accumulate a
           write backlog while it is down, then time recovery + resync *)
        let plan = F.make ~crash:("repl.apply", 1) ~seed:(7 * replicas) () in
        F.with_plan plan (fun () ->
            exec "INSERT INTO accounts VALUES (9001, 'crash', 0)");
        if R.replica_state cluster 0 <> R.Down then
          failwith "replication bench: seeded crash did not land";
        for i = 1 to backlog do
          exec
            (Printf.sprintf "INSERT INTO accounts VALUES (%d, 'b%d', %d)"
               (9100 + i) i i)
        done;
        let lag = R.ship_seq cluster - R.replica_applied cluster 0 in
        let (), catchup_s = time (fun () -> R.recover cluster 0) in
        (match R.converged cluster with
        | None -> ()
        | Some (i, diff) ->
          failwith
            (Printf.sprintf "replication bench: replica %d diverged: %s" i
               diff));
        json_rows :=
          Json.Obj
            [ ("replicas", Json.Int replicas);
              ("reads", Json.Int reads);
              ("read_wall_s", Json.Float wall);
              ("cluster_read_s", Json.Float cluster_time);
              ("read_throughput_rps", Json.Float throughput);
              ("catchup_backlog", Json.Int lag);
              ("catchup_s", Json.Float catchup_s) ]
          :: !json_rows;
        [ string_of_int replicas;
          string_of_int reads;
          s cluster_time;
          Printf.sprintf "%.0f" throughput;
          string_of_int lag;
          s catchup_s ])
      [ 1; 2; 4 ]
  in
  Report.print_table
    ~header:
      [ "replicas"; "reads"; "cluster read time"; "reads/s";
        "catch-up backlog"; "catch-up time" ]
    rows;
  Report.note
    "Reads round-robin across the replicas; the cluster read time is the\n\
     slowest node's serial share (nodes serve in parallel), so doubling\n\
     the replicas roughly doubles the modeled read throughput. Catch-up\n\
     recovers a crashed replica from its checkpoint + WAL, then ships the\n\
     backlog accrued while it was down.\n";
  let oc = open_out "BENCH_replication.json" in
  output_string oc (Json.to_string (Json.List (List.rev !json_rows)));
  output_string oc "\n";
  close_out oc;
  Printf.eprintf "wrote BENCH_replication.json\n%!"

(* ------------------------------------------------------------------ *)
(* Storage: ordered/hash index lookups vs full scans at growing table
   sizes, exercising the cost-based planner and the batch executor on
   the same data. Each size loads one unindexed and one indexed copy of
   the table; the speedup columns are the full-scan time over the
   index-served time for the identical query. Writes BENCH_storage.json
   and fails (exit 1) unless indexed point and range lookups beat the
   full scan by >= 10x at 100k tuples.                                 *)

let storage_bench () =
  Report.section "Storage: index lookups vs full scans (cost-based plans)";
  let module D = Minidb.Database in
  let module V = Minidb.Value in
  let sizes = [ 10_000; 100_000; 1_000_000 ] in
  let load n ~indexed =
    let db = D.create ~name:"storage" () in
    ignore
      (D.exec db "CREATE TABLE items (id INT, grp INT, score INT, label TEXT)");
    let rows =
      List.init n (fun i ->
          [| V.Int (i + 1);
             V.Int (i mod 97);
             V.Int (i * 7 mod 100_000);
             V.Str (Printf.sprintf "item-%07d" (i + 1)) |])
    in
    ignore (D.bulk_insert db ~table:"items" rows);
    if indexed then begin
      ignore (D.exec db "CREATE INDEX items_id ON items (id)");
      ignore (D.exec db "CREATE ORDERED INDEX items_score ON items (score)")
    end;
    db
  in
  (* average query wall time after one warming run *)
  let time_query db sql reps =
    ignore (D.query db sql);
    let _, dt =
      time (fun () ->
          for _ = 1 to reps do
            ignore (D.query db sql)
          done)
    in
    dt /. float_of_int reps
  in
  let plan_of db sql =
    match (D.query db ("EXPLAIN " ^ sql)).Minidb.Executor.rows with
    | { Minidb.Executor.values = [| V.Str p |]; _ } :: _ -> p
    | _ -> "?"
  in
  let failures = ref 0 in
  let json_rows = ref [] in
  let table_rows =
    List.map
      (fun n ->
        let point_sql =
          Printf.sprintf "SELECT label FROM items WHERE id = %d" (n / 2)
        in
        let range_sql =
          "SELECT COUNT(*) FROM items WHERE score BETWEEN 10 AND 60"
        in
        let reps = max 3 (100_000 / n) in
        (* unindexed copy first, dropped before the indexed load so the
           1M size never holds both instances at once *)
        Gc.compact ();
        let point_scan_s, range_scan_s, full_scan_s =
          let db = load n ~indexed:false in
          ( time_query db point_sql reps,
            time_query db range_sql reps,
            time_query db "SELECT COUNT(*) FROM items" reps )
        in
        Gc.compact ();
        let db = load n ~indexed:true in
        let _, load_s = time (fun () -> ignore (D.query db point_sql)) in
        let point_plan = plan_of db point_sql in
        let range_plan = plan_of db range_sql in
        let point_s = time_query db point_sql reps in
        let range_s = time_query db range_sql reps in
        let speedup a b = if b > 0.0 then a /. b else 0.0 in
        let point_x = speedup point_scan_s point_s in
        let range_x = speedup range_scan_s range_s in
        if n = 100_000 && (point_x < 10.0 || range_x < 10.0) then begin
          Printf.eprintf
            "storage bench: index speedup below 10x at 100k tuples \
             (point %.1fx, range %.1fx)\n%!"
            point_x range_x;
          incr failures
        end;
        json_rows :=
          Json.Obj
            [ ("rows", Json.Int n);
              ("reps", Json.Int reps);
              ("first_indexed_query_s", Json.Float load_s);
              ("point_scan_us", Json.Float (1e6 *. point_scan_s));
              ("point_indexed_us", Json.Float (1e6 *. point_s));
              ("point_speedup", Json.Float point_x);
              ("point_plan", Json.Str point_plan);
              ("range_scan_us", Json.Float (1e6 *. range_scan_s));
              ("range_indexed_us", Json.Float (1e6 *. range_s));
              ("range_speedup", Json.Float range_x);
              ("range_plan", Json.Str range_plan);
              ("full_scan_us", Json.Float (1e6 *. full_scan_s));
              ("full_scan_rows_per_s",
               Json.Float
                 (if full_scan_s > 0.0 then float_of_int n /. full_scan_s
                  else 0.0)) ]
          :: !json_rows;
        [ string_of_int n;
          s point_scan_s;
          s point_s;
          Printf.sprintf "%.0fx" point_x;
          s range_scan_s;
          s range_s;
          Printf.sprintf "%.0fx" range_x;
          s full_scan_s ])
      sizes
  in
  Report.print_table
    ~header:
      [ "rows"; "point scan"; "point idx"; "speedup"; "range scan";
        "range idx"; "speedup"; "full scan" ]
    table_rows;
  Report.note
    "Point lookups go through the hash index, range predicates through the\n\
     ordered index; both are chosen by the cost model (see the *_plan\n\
     fields of BENCH_storage.json) and must beat the full scan by 10x at\n\
     100k tuples. The full-scan column is the batch executor's COUNT(*)\n\
     over the whole table.\n";
  let oc = open_out "BENCH_storage.json" in
  output_string oc (Json.to_string (Json.List (List.rev !json_rows)));
  output_string oc "\n";
  close_out oc;
  Printf.eprintf "wrote BENCH_storage.json\n%!";
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* check: assert the paper's headline shape claims programmatically.   *)

let check () =
  Report.section "Shape checks (paper claims, asserted on this machine)";
  let failures = ref 0 in
  let claim name ok =
    Printf.printf "  [%s] %s\n%!" (if ok then "PASS" else "FAIL") name;
    if not ok then incr failures
  in
  let rows = run_sweep () in
  let get vid sys = List.find (fun r -> r.sw_vid = vid && r.sw_system = sys) rows in
  claim "every audited run replays verified"
    (List.for_all (fun r -> r.sw_verified) rows);
  (* the 66%-selectivity variants ship two-thirds of the DB as CSV, which
     can exceed PTU's native files at very small scales; the claim is made
     for the other 16 variants and checked separately for ordering of the
     DB-content portion *)
  claim "package size: excluded < included < ptu (sub-66% variants)"
    (List.for_all
       (fun (v : Tpch.Queries.variant) ->
         let vid = v.Tpch.Queries.vid in
         v.Tpch.Queries.target_selectivity > 0.5
         ||
         let e = (get vid Sys_excluded).sw_pkg_bytes in
         let i = (get vid Sys_included).sw_pkg_bytes in
         let p = (get vid Sys_ptu).sw_pkg_bytes in
         e < i && i < p)
       (Tpch.Queries.variants (Instance.get ~sf:!sf).Instance.stats));
  claim "replay: server-excluded fastest on every variant"
    (List.for_all
       (fun (v : Tpch.Queries.variant) ->
         let vid = v.Tpch.Queries.vid in
         let e = (get vid Sys_excluded).sw_replay_query_s in
         e <= (get vid Sys_included).sw_replay_query_s
         && e <= (get vid Sys_ptu).sw_replay_query_s)
       (Tpch.Queries.variants (Instance.get ~sf:!sf).Instance.stats));
  claim "replay: included beats baseline on low-selectivity variants"
    (List.for_all
       (fun vid ->
         (get vid Sys_included).sw_replay_query_s
         < (get vid Sys_ptu).sw_replay_query_s)
       [ "Q1-1"; "Q1-2"; "Q2-3"; "Q2-4"; "Q3-3"; "Q3-4"; "Q4-1" ]);
  claim "Q3 (one-row results): excluded package smaller than included by 10x+"
    ((get "Q3-1" Sys_included).sw_pkg_bytes
    > 10 * (get "Q3-1" Sys_excluded).sw_pkg_bytes);
  claim "audit: selectivity grows audit time within Q1 family"
    ((get "Q1-5" Sys_included).sw_audit_query_s
    > (get "Q1-1" Sys_included).sw_audit_query_s);
  (* the VMI dwarfs every package *)
  let biggest_pkg =
    List.fold_left (fun acc r -> max acc r.sw_pkg_bytes) 0 rows
  in
  claim "VMI larger than every package by 10x+"
    (Vmi.base_image_bytes > 10 * biggest_pkg);
  Printf.printf "%d shape check(s) failed\n" !failures;
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)

let all () =
  table1 ();
  table2 ();
  table3 ();
  fig7a ();
  fig7b ();
  fig8a ();
  fig8b ();
  fig9 ();
  vmi ();
  ablation ();
  micro ();
  profile_bench ();
  concurrent_bench ();
  txn_bench ();
  contention_bench ();
  overhead_bench ();
  replication_bench ();
  storage_bench ();
  check ()

let () =
  let cmd = ref "all" in
  let rec parse = function
    | [] -> ()
    | "--sf" :: v :: rest ->
      sf := float_of_string v;
      parse rest
    | "--paper-counts" :: rest ->
      paper_counts := true;
      parse rest
    | arg :: rest ->
      cmd := arg;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  Printf.printf "LDV benchmark harness (sf=%g, %s counts)\n%!" !sf
    (if !paper_counts then "paper" else "reduced");
  (* Collect harness + pipeline instrumentation for the whole run and dump
     it as JSONL on exit ([check] exits non-zero on failed claims, so an
     [at_exit] hook rather than [Fun.protect] covers that path too). The
     file is readable with `ldv stats BENCH_obs.json`. *)
  Ldv_obs.reset ();
  Ldv_obs.set_sink Ldv_obs.Memory;
  at_exit (fun () ->
      Ldv_obs.set_sink Ldv_obs.Null;
      let oc = open_out "BENCH_obs.json" in
      output_string oc (Ldv_obs.to_jsonl (Ldv_obs.snapshot ()));
      close_out oc;
      Printf.eprintf "wrote BENCH_obs.json (inspect with `ldv stats`)\n%!");
  match !cmd with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "fig7a" -> fig7a ()
  | "fig7b" -> fig7b ()
  | "fig7" ->
    fig7a ();
    fig7b ()
  | "fig8a" -> fig8a ()
  | "fig8b" -> fig8b ()
  | "fig9" -> fig9 ()
  | "vmi" -> vmi ()
  | "ablation" -> ablation ()
  | "micro" -> micro ()
  | "profile" -> profile_bench ()
  | "concurrent" -> concurrent_bench ()
  | "txn" -> txn_bench ()
  | "contention" -> contention_bench ()
  | "overhead" -> overhead_bench ()
  | "replication" -> replication_bench ()
  | "storage" -> storage_bench ()
  | "check" -> check ()
  | "all" -> all ()
  | other ->
    Printf.eprintf
      "unknown command %S; expected \
       table1|table2|table3|fig7a|fig7b|fig8a|fig8b|fig9|vmi|ablation|micro|profile|concurrent|txn|contention|overhead|replication|storage|check|all\n"
      other;
    exit 2

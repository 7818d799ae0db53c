(* The LDV benchmark harness: regenerates every table and figure of the
   paper's evaluation (§IX), plus ablations, micro-benchmarks, the storage
   bench and the shape checks. It runs with observability off, as the
   tracked end-to-end benchmark (bench/e2e) does.

   Usage: main.exe [table1|table2|table3|fig7a|fig7b|fig7|fig8a|fig8b|fig9|
                    vmi|ablation|micro|storage|check|all]
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

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

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

let step_hook st step body =
  let _, dt = time body in
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
    time (fun () ->
        Audit.run ~packaging:(packaging_of system) kernel server ~app_name
          ~app_binary:binary ~app_libs:Tpch.Workload.app_libs program)
  in
  { audit; steps = st; total_audit_s = total; app_name }

(* Replay an experiment's package, timing initialization and steps. *)
type replay_times = { init_s : float; rsteps : steps; verified : bool }

let run_replay (e : experiment) (pkg : Package.t) : replay_times =
  Gc.compact ();
  reset e.steps;
  let prepared, init_s = time (fun () -> Replay.prepare pkg) in
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
    Package.build e.audit
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
        let pkg = Package.build e.audit in
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
      time (fun () ->
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
              let pkg = Package.build e.audit in
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
          Some (Package.total_bytes (Package.build e.audit))
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
  let pkg = Package.build e.audit in
  let (_ : Replay.prepared), t_restore = time (fun () -> Replay.prepare pkg) in
  Report.print_table ~header:[ "Strategy"; "Time"; "Notes" ]
    [ [ "LDV subset restore + query"; s t_restore;
        "fresh environment; needs only the package" ];
      [ "AS OF over full versioned DB"; s t_asof;
        "needs the original server and full history" ] ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the inner loops behind each figure.      *)

(* Minor-heap words allocated, read with [Gc.minor_words]. Bechamel's
   [Toolkit.Instance.minor_allocated] reads [Gc.quick_stat], which on
   OCaml 5.1 counts a minor heap's words only once it is collected: it
   read 0 for a run that allocated 3,024 words. *)
module Minor_words = struct
  type witness = unit

  let label () = "minor-words"
  let unit () = "w"
  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
end

let minor_words =
  Bechamel.Measure.instance
    (module Minor_words)
    (Bechamel.Measure.register (module Minor_words))

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
  (* a server-included session whose slice already holds Q3-1's lineage:
     each further execution is the warm audited select of the paper's
     Select step *)
  let q3_session =
    let kernel = Minios.Kernel.create () in
    let server = Dbclient.Server.install kernel (Instance.fresh_db inst) in
    let session =
      Dbclient.Interceptor.create ~mode:Dbclient.Interceptor.Audit_included
        ~kernel server
    in
    ignore (Dbclient.Interceptor.execute session ~pid:1 q3.Tpch.Queries.sql);
    session
  in
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
  (* the same versions as a package's CSV subset: what server-included
     packaging writes and its restore reads *)
  let lineitem_rows =
    Array.to_list
      (Array.map
         (fun (tv : Minidb.Table.tuple_version) ->
           (tv.Minidb.Table.tid.Minidb.Tid.rid,
            tv.Minidb.Table.tid.Minidb.Tid.version,
            tv.Minidb.Table.values))
         (Minidb.Table.scan_array lineitem))
  in
  let lineitem_schema = Minidb.Table.schema lineitem in
  let lineitem_csv =
    Minidb.Csv.encode_versions lineitem_schema lineitem_rows
  in
  (* a traced server over the same database: the fixed cost every
     server-included and PTU audit pays around the app *)
  let server_kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install server_kernel bench_db in
  (* a durable server over 10k accounts, the size of ldvbench
     cluster-mix's table: what every replica checkpoint captures *)
  let _, accounts = Dbclient.Durable.boot () in
  let accounts_db = Dbclient.Server.db (Dbclient.Durable.server accounts) in
  ignore
    (Minidb.Database.exec accounts_db
       "CREATE TABLE accounts (id INT, owner TEXT, balance INT)");
  ignore
    (Minidb.Database.bulk_insert accounts_db ~table:"accounts"
       (List.init 10_000 (fun k ->
            [| Minidb.Value.Int (k + 1);
               Minidb.Value.Str (Printf.sprintf "owner%d" (k * 31 mod 500));
               Minidb.Value.Int (k * 7 mod 10_000) |])));
  ignore
    (Minidb.Database.exec accounts_db
       "CREATE INDEX accounts_id ON accounts (id)");
  (* a plain 10k-row table with a hash index on its key, for the reads
     cluster-mix's sessions issue: a point read pinned before a commit
     it must not see, and a short BETWEEN count *)
  let reads_db = Minidb.Database.create () in
  ignore (Minidb.Database.exec reads_db "CREATE TABLE acc (id INT, balance INT)");
  ignore
    (Minidb.Database.bulk_insert reads_db ~table:"acc"
       (List.init 10_000 (fun k ->
            [| Minidb.Value.Int (k + 1); Minidb.Value.Int (k * 7 mod 10_000) |])));
  ignore (Minidb.Database.exec reads_db "CREATE INDEX acc_id ON acc (id)");
  let pin = Minidb.Database.clock reads_db in
  ignore
    (Minidb.Database.exec reads_db
       "UPDATE acc SET balance = balance + 1 WHERE id = 7");
  let stale_read =
    Printf.sprintf "SELECT balance FROM acc AS OF %d WHERE id = 7" pin
  in
  (* one WAL-sized record: a log of 2,000 of them, each made durable, is
     what a leader's never-truncated ship log grows by *)
  let log_record = String.make 100 'r' in
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
      Test.make ~name:"audit/select(Q3-1)"
        (Staged.stage (fun () ->
             Dbclient.Interceptor.execute q3_session ~pid:1
               q3.Tpch.Queries.sql));
      Test.make ~name:"aggregate-groupby"
        (Staged.stage (fun () ->
             Minidb.Database.query sales
               "SELECT y, count(*), sum(x) FROM s GROUP BY y"));
      Test.make ~name:"audit/build-trace(Q3-1)"
        (Staged.stage (fun () ->
             Audit.build_trace q3_audit.Audit.tracer q3_stmts));
      (* the server-included package of the same audit: its CSV subset
         copies the rows the audit wrote as each version entered the
         slice *)
      Test.make ~name:"package/build(Q3-1)"
        (Staged.stage (fun () -> Package.build q3_audit));
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
      Test.make ~name:"csv/encode(lineitem)"
        (Staged.stage (fun () ->
             Minidb.Csv.encode_versions lineitem_schema lineitem_rows));
      Test.make ~name:"csv/decode(lineitem)"
        (Staged.stage (fun () -> Minidb.Csv.decode_versions lineitem_csv));
      Test.make
        ~name:(Printf.sprintf "server/start+stop-traced(sf %g)" !sf)
        (Staged.stage (fun () ->
             ignore (Dbclient.Server.start_traced server_kernel server);
             Dbclient.Server.stop_traced server_kernel server));
      Test.make ~name:"durable/checkpoint(10k rows)"
        (Staged.stage (fun () -> Dbclient.Durable.checkpoint accounts));
      Test.make ~name:"vfs/append-log(2k x 100 B)"
        (Staged.stage (fun () ->
             let vfs = Minios.Vfs.create () in
             for _ = 1 to 2_000 do
               Minios.Vfs.append_buffered vfs ~path:"/log" log_record;
               Minios.Vfs.fsync vfs "/log"
             done));
      Test.make ~name:"exec/asof-point-read(10k, stale)"
        (Staged.stage (fun () -> Minidb.Database.query reads_db stale_read));
      Test.make ~name:"exec/between-count(10k, hash)"
        (Staged.stage (fun () ->
             Minidb.Database.query reads_db
               "SELECT COUNT(*) FROM acc WHERE id BETWEEN 100 AND 105"));
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
  (* minor words per run beside the time: an allocation count does not
     move with machine speed or code layout, so a saving shows in one run *)
  let instances = [ Toolkit.Instance.monotonic_clock; minor_words ] in
  let rows =
    List.concat_map
      (fun test ->
        List.map
          (fun elt ->
            let m = Benchmark.run cfg instances elt in
            let per_run instance =
              match Analyze.OLS.estimates (Analyze.one ols instance m) with
              | Some (v :: _) -> v
              | _ -> nan
            in
            [ Test.Elt.name elt;
              Report.seconds (per_run Toolkit.Instance.monotonic_clock /. 1e9);
              Printf.sprintf "%.0f" (per_run minor_words) ])
          (Test.elements test))
      tests
  in
  Report.print_table ~header:[ "benchmark"; "time/run"; "minor words/run" ] rows

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
  let module Json = Ldv_obs.Json in
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
  storage_bench ();
  check ()

let commands =
  [ ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig7a", fig7a);
    ("fig7b", fig7b);
    ("fig7",
     fun () ->
       fig7a ();
       fig7b ());
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig9", fig9);
    ("vmi", vmi);
    ("ablation", ablation);
    ("micro", micro);
    ("storage", storage_bench);
    ("check", check);
    ("all", all) ]

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s\nusage: main.exe [%s] [--sf FLOAT] [--paper-counts]\n"
        msg
        (String.concat "|" (List.map fst commands));
      exit 2)
    fmt

let () =
  let cmd = ref "all" in
  let rec parse = function
    | [] -> ()
    | [ "--sf" ] -> usage_error "--sf needs a value"
    | "--sf" :: v :: rest ->
      (match float_of_string_opt v with
      | Some f when Float.is_finite f && f > 0.0 -> sf := f
      | _ -> usage_error "--sf needs a positive number, got %S" v);
      parse rest
    | "--paper-counts" :: rest ->
      paper_counts := true;
      parse rest
    | arg :: rest ->
      cmd := arg;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  match List.assoc_opt !cmd commands with
  | None -> usage_error "unknown command %S" !cmd
  | Some run ->
    Printf.printf "LDV benchmark harness (sf=%g, %s counts)\n%!" !sf
      (if !paper_counts then "paper" else "reduced");
    run ()

(* The ldv command-line tool.

   Mirrors the paper's user surface: `ldv audit` monitors an execution of
   the TPC-H evaluation application and writes a self-contained package
   file; `ldv exec` re-executes a package; `ldv inspect` shows a package's
   manifest, execution trace, and provenance exports; `ldv demo` runs the
   whole loop in one command. Because applications in this simulation are
   OCaml programs rather than native binaries, audit/exec operate on the
   built-in TPC-H workload parameterized through package metadata. *)

open Cmdliner
open Ldv_core

(* ------------------------------------------------------------------ *)
(* Observability: the global --obs flag.                               *)

type obs_mode = Obs_off | Obs_summary | Obs_jsonl of string

let obs_conv =
  let parse = function
    | "off" -> Ok Obs_off
    | "summary" -> Ok Obs_summary
    | "jsonl:" -> Error (`Msg "jsonl: needs a file name (jsonl:FILE)")
    | s when String.length s > 6 && String.sub s 0 6 = "jsonl:" ->
      Ok (Obs_jsonl (String.sub s 6 (String.length s - 6)))
    | s ->
      Error
        (`Msg
          (Printf.sprintf "bad --obs value %S, expected off|summary|jsonl:FILE"
             s))
  in
  let print ppf = function
    | Obs_off -> Format.pp_print_string ppf "off"
    | Obs_summary -> Format.pp_print_string ppf "summary"
    | Obs_jsonl f -> Format.fprintf ppf "jsonl:%s" f
  in
  Arg.conv (parse, print)

let obs_arg =
  let doc =
    "Instrumentation sink: $(b,off) (no-op), $(b,summary) (print per-stage \
     span and metrics tables after the command), or $(b,jsonl:FILE) (stream \
     span records to FILE as JSONL, readable by $(b,ldv stats))."
  in
  Arg.(value & opt obs_conv Obs_off & info [ "obs" ] ~docv:"MODE" ~doc)

(** Run [f] under the selected observability mode, emitting the summary or
    the JSONL trace when it returns (or raises). *)
let with_obs mode f =
  match mode with
  | Obs_off -> f ()
  | Obs_summary ->
    Ldv_obs.reset ();
    Ldv_obs.set_sink Ldv_obs.Memory;
    Fun.protect
      ~finally:(fun () ->
        Ldv_obs.set_sink Ldv_obs.Null;
        Obs_report.print_summary
          (Ldv_obs.Profile.of_snapshot (Ldv_obs.snapshot ())))
      f
  | Obs_jsonl path ->
    Ldv_obs.reset ();
    let oc = open_out path in
    Ldv_obs.set_sink (Ldv_obs.Jsonl oc);
    Fun.protect
      ~finally:(fun () ->
        Ldv_obs.set_sink Ldv_obs.Null;
        Ldv_obs.output_metrics oc (Ldv_obs.snapshot ());
        close_out oc;
        Printf.printf "wrote observability trace %s\n" path)
      f

(* ------------------------------------------------------------------ *)
(* Workload construction shared by audit and exec.                     *)

let cfg_of_metadata (meta : (string * string) list) : Tpch.Workload.config =
  let get key =
    match List.assoc_opt key meta with
    | Some v -> v
    | None -> failwith (Printf.sprintf "package metadata misses %S" key)
  in
  { Tpch.Workload.query_sql = get "w_query";
    n_insert = int_of_string (get "w_insert");
    n_select = int_of_string (get "w_select");
    n_update = int_of_string (get "w_update");
    base_orderkey = int_of_string (get "w_basekey");
    n_customer = int_of_string (get "w_customer");
    out_path = get "w_out";
    config_path = get "w_conf";
    insert_seed = int_of_string (get "w_seed") }

let metadata_of_cfg (cfg : Tpch.Workload.config) =
  [ ("w_query", cfg.Tpch.Workload.query_sql);
    ("w_insert", string_of_int cfg.Tpch.Workload.n_insert);
    ("w_select", string_of_int cfg.Tpch.Workload.n_select);
    ("w_update", string_of_int cfg.Tpch.Workload.n_update);
    ("w_basekey", string_of_int cfg.Tpch.Workload.base_orderkey);
    ("w_customer", string_of_int cfg.Tpch.Workload.n_customer);
    ("w_out", cfg.Tpch.Workload.out_path);
    ("w_conf", cfg.Tpch.Workload.config_path);
    ("w_seed", string_of_int cfg.Tpch.Workload.insert_seed) ]

let run_audit ~sf ~vid ~mode ~n_insert ~n_select ~n_update =
  let db, stats = Tpch.Dbgen.setup ~sf ~seed:42 () in
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel db in
  Tpch.Workload.install_runtime kernel;
  let q = Tpch.Queries.find stats vid in
  let cfg =
    { (Tpch.Workload.default_config ~query_sql:q.Tpch.Queries.sql ~stats) with
      Tpch.Workload.n_insert;
      n_select;
      n_update }
  in
  let binary = Tpch.Workload.install_app_files kernel cfg in
  let program = Tpch.Workload.app cfg in
  Minios.Program.register ~name:Tpch.Workload.registry_name program;
  let audit =
    Audit.run ~packaging:mode kernel server
      ~app_name:Tpch.Workload.registry_name ~app_binary:binary
      ~app_libs:Tpch.Workload.app_libs program
  in
  (audit, cfg)

(* ------------------------------------------------------------------ *)
(* Arguments.                                                          *)

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0.0 -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let sf_arg =
  let doc = "TPC-H scale factor relative to the paper's SF=1 instance." in
  Arg.(value & opt positive_float 0.002 & info [ "sf" ] ~docv:"SF" ~doc)

let query_arg =
  let doc = "Workload query variant from Table II (Q1-1 .. Q4-5)." in
  Arg.(value & opt string "Q1-1" & info [ "query"; "q" ] ~docv:"QID" ~doc)

let mode_arg =
  let doc =
    "Packaging mode: $(b,included) (DB server + relevant tuples), \
     $(b,excluded) (recorded responses only), or $(b,ptu) (the \
     application-virtualization baseline)."
  in
  let modes =
    [ ("included", Audit.Included); ("excluded", Audit.Excluded);
      ("ptu", Audit.Ptu_baseline) ]
  in
  Arg.(value & opt (enum modes) Audit.Included & info [ "mode"; "m" ] ~doc)

let counts_args =
  let mk name default doc =
    Arg.(value & opt int default & info [ name ] ~doc)
  in
  Term.(
    const (fun a b c -> (a, b, c))
    $ mk "inserts" 100 "Orders inserted in the Insert step."
    $ mk "selects" 10 "Repetitions of the query in the Select step."
    $ mk "updates" 20 "Orders updated in the Update step.")

let package_arg =
  let doc = "Package file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PACKAGE" ~doc)

let out_arg =
  let doc = "Output package file." in
  Arg.(value & opt string "app.ldv" & info [ "out"; "o" ] ~docv:"FILE" ~doc)

(* ------------------------------------------------------------------ *)
(* audit                                                               *)

let audit_cmd =
  let sessions_arg =
    let doc =
      "Concurrent sessions. With more than one the audit runs the \
       multi-session notes workload under the cooperative scheduler \
       (server-included packaging only; the TPC-H workload flags are \
       ignored), which is the workload $(b,ldv timeline) and \
       $(b,ldv contention) analyze."
    in
    Arg.(value & opt positive_int 1 & info [ "sessions" ] ~docv:"N" ~doc)
  in
  let sched_seed_arg =
    let doc =
      "Scheduler seed for the concurrent (--sessions > 1) audit \
       (default 42)."
    in
    Arg.(value & opt (some int) None & info [ "sched-seed" ] ~docv:"SEED" ~doc)
  in
  let replicas_arg =
    let doc =
      "Read replicas for the concurrent (--sessions > 1) audit: \
       snapshot-pinned reads are served by a WAL-shipping replication \
       cluster and the package records which replica answered each read, \
       so $(b,ldv exec) re-runs the whole cluster."
    in
    Arg.(value & opt int 0 & info [ "replicas" ] ~docv:"N" ~doc)
  in
  (* flags the chosen workload would otherwise silently ignore *)
  let check_flags ~mode ~sessions ~seed ~replicas =
    if replicas < 0 then Error "--replicas must not be negative"
    else if replicas > 0 && sessions = 1 then
      Error "--replicas needs a concurrent audit (--sessions 2 or more)"
    else if seed <> None && sessions = 1 then
      Error "--sched-seed needs a concurrent audit (--sessions 2 or more)"
    else if sessions > 1 && mode <> Audit.Included then
      Error "a concurrent audit (--sessions 2 or more) needs --mode included"
    else Ok ()
  in
  let run obs sf vid mode (n_insert, n_select, n_update) sessions seed
      replicas out =
    Result.bind (check_flags ~mode ~sessions ~seed ~replicas) @@ fun () ->
    with_obs obs @@ fun () ->
    let audit, meta =
      if sessions > 1 then
        let seed = Option.value seed ~default:42 in
        (Concurrent.audited ~replicas ~sessions ~statements:8 ~seed (), [])
      else begin
        let audit, cfg =
          run_audit ~sf ~vid ~mode ~n_insert ~n_select ~n_update
        in
        (audit, metadata_of_cfg cfg)
      end
    in
    let pkg = Package.build audit in
    let pkg = { pkg with Package.metadata = pkg.Package.metadata @ meta } in
    (* crash-safe: temp file + rename, so a failed audit never leaves a
       torn package behind *)
    Package.write_file pkg ~path:out;
    Printf.printf "audited %s under %s monitoring\n"
      (if sessions > 1 then Printf.sprintf "%d concurrent sessions" sessions
       else vid)
      (Package.kind_name pkg.Package.kind);
    Printf.printf "wrote %s (%s, %d files, %d tables, %d recorded statements)\n"
      out
      (Report.human_bytes (Package.total_bytes pkg))
      (List.length pkg.Package.entries)
      (List.length pkg.Package.db_subset)
      (List.length pkg.Package.recording);
    let stats = Prov.Query.stats audit.Audit.trace in
    Format.printf "execution trace: %a@." Prov.Query.pp_stats stats;
    Ok ()
  in
  let term =
    Term.(
      term_result' ~usage:true
        (const run $ obs_arg $ sf_arg $ query_arg $ mode_arg $ counts_args
        $ sessions_arg $ sched_seed_arg $ replicas_arg $ out_arg))
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Monitor an execution and create a repeatability package")
    term

(* ------------------------------------------------------------------ *)
(* exec                                                                *)

(** Read a package file, tolerating corrupt content sections (each is
    reported on stderr and skipped). Structural corruption is fatal:
    print the typed diagnostic and exit 3. *)
let read_package path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  match Package.of_bytes_result data with
  | Ok { Package.r_pkg; r_skipped } ->
    List.iter
      (fun (c : Package.corruption) ->
        Printf.eprintf "ldv: warning: skipping corrupt section %s (%s)\n%!"
          c.Package.c_section
          (Ldv_errors.to_string c.Package.c_error))
      r_skipped;
    r_pkg
  | Error e ->
    Printf.eprintf "ldv: %s is not a usable package: %s\n%!" path
      (Ldv_errors.to_string e);
    exit 3

let exec_cmd =
  let run obs path =
    with_obs obs @@ fun () ->
    let pkg = read_package path in
    (* concurrent packages carry a recorded schedule instead of workload
       metadata: re-register the scheduled client programs; otherwise
       rebuild the TPC-H app from the package's workload config *)
    (match Package.schedule pkg with
    | Some (_seed, clients) -> Concurrent.register_schedule_clients clients
    | None ->
      let cfg = cfg_of_metadata pkg.Package.metadata in
      Minios.Program.register ~name:pkg.Package.app_name
        (Tpch.Workload.app cfg));
    let result = Replay.execute pkg in
    Printf.printf "re-executed %s (%s package)\n" pkg.Package.app_name
      (Package.kind_name pkg.Package.kind);
    Printf.printf "%d statements replayed, %d output files produced\n"
      (List.length
         (List.concat_map Dbclient.Interceptor.log result.Replay.sessions))
      (List.length result.Replay.out_files);
    List.iter
      (fun (p, content) ->
        Printf.printf "  %s (%d bytes)\n" p (String.length content))
      result.Replay.out_files
  in
  let term = Term.(const run $ obs_arg $ package_arg) in
  Cmd.v (Cmd.info "exec" ~doc:"Re-execute a repeatability package") term

(* ------------------------------------------------------------------ *)
(* inspect                                                             *)

let inspect_cmd =
  let dot_arg =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Write the execution trace as graphviz.")
  in
  let prov_arg =
    Arg.(value & opt (some string) None & info [ "prov-json" ] ~docv:"FILE"
           ~doc:"Write the execution trace as PROV-JSON.")
  in
  let provn_arg =
    Arg.(value & opt (some string) None & info [ "prov-n" ] ~docv:"FILE"
           ~doc:"Write the execution trace as PROV-N.")
  in
  let run obs path dot prov_json prov_n =
    with_obs obs @@ fun () ->
    let pkg = read_package path in
    Printf.printf "kind: %s\napp: %s (binary %s)\n"
      (Package.kind_name pkg.Package.kind)
      pkg.Package.app_name pkg.Package.app_binary;
    Printf.printf "total size: %s\n" (Report.human_bytes (Package.total_bytes pkg));
    print_endline "manifest:";
    List.iter
      (fun (p, size) -> Printf.printf "  %-45s %s\n" p (Report.human_bytes size))
      (Package.manifest pkg);
    let trace = Package.trace pkg in
    Format.printf "trace: %a@." Prov.Query.pp_stats (Prov.Query.stats trace);
    let write_file path content =
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      Printf.printf "wrote %s\n" path
    in
    Option.iter (fun p -> write_file p (Prov.Dot.to_dot trace)) dot;
    Option.iter (fun p -> write_file p (Prov.Prov_export.to_prov_json trace)) prov_json;
    Option.iter (fun p -> write_file p (Prov.Prov_export.to_prov_n trace)) prov_n
  in
  let term =
    Term.(const run $ obs_arg $ package_arg $ dot_arg $ prov_arg $ provn_arg)
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show a package's manifest and execution trace")
    term

(* ------------------------------------------------------------------ *)
(* trace: provenance queries over a package's execution trace          *)

let trace_cmd =
  let target_arg =
    Arg.(value & opt (some string) None & info [ "deps-of" ] ~docv:"NODE"
           ~doc:"Print everything the given entity (e.g. \
                 $(i,file:/app/out/results.csv)) was derived from.")
  in
  let outputs_arg =
    Arg.(value & flag & info [ "outputs" ]
           ~doc:"List the workflow's final output files.")
  in
  let run obs path target outputs =
    with_obs obs @@ fun () ->
    let pkg = read_package path in
    let trace = Package.trace pkg in
    Format.printf "trace: %a@." Prov.Query.pp_stats (Prov.Query.stats trace);
    if outputs then begin
      print_endline "final outputs:";
      List.iter (Printf.printf "  %s\n") (Prov.Query.final_outputs trace)
    end;
    match target with
    | None -> ()
    | Some node ->
      Printf.printf "%s was derived from:\n" node;
      List.iter (Printf.printf "  %s\n") (Prov.Query.inputs_of trace node)
  in
  let term =
    Term.(const run $ obs_arg $ package_arg $ target_arg $ outputs_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run provenance queries over a package's execution trace")
    term

(* ------------------------------------------------------------------ *)
(* stats: replay an exported JSONL observability trace                 *)

(** Read a JSONL observability trace into the trace model and run [f]
    on it, mapping I/O failures and typed decode errors (with their
    1-based line numbers) to cmdliner messages. *)
let with_trace path (f : Ldv_obs.Profile.t -> 'a) =
  let fail fmt = Format.kasprintf (fun m -> Error (`Msg m)) fmt in
  match
    let ic = open_in path in
    let n = in_channel_length ic in
    let data = really_input_string ic n in
    close_in ic;
    Ldv_obs.of_jsonl data
  with
  | snap -> Ok (f (Ldv_obs.Profile.of_snapshot snap))
  | exception Sys_error msg -> fail "%s" msg
  | exception Ldv_errors.Error e ->
    fail "%s is not an observability trace: %s" path (Ldv_errors.to_string e)

let stats_cmd =
  let file_arg =
    let doc = "JSONL trace written by $(b,--obs jsonl:FILE)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let tree_arg =
    Arg.(
      value & flag
      & info [ "tree" ]
          ~doc:"Also print the span tree (roots at the margin).")
  in
  let by_session_arg =
    Arg.(
      value & flag
      & info [ "by-session" ]
          ~doc:
            "Also print span statistics grouped by $(b,trace.session) \
             (spans without the attribute fall in an \
             $(i,(unattributed)) group), plus a merged all-session \
             section.")
  in
  let run path tree by_session =
    with_trace path @@ fun t ->
    Obs_report.print_summary t;
    Obs_report.print_replication t;
    Obs_report.print_transactions t;
    if tree then begin
      Report.section "Span tree";
      Obs_report.print_tree t
    end;
    if by_session then Obs_report.print_by_session t
  in
  let term =
    Term.(term_result (const run $ file_arg $ tree_arg $ by_session_arg))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Summarize an observability trace exported with --obs jsonl:FILE")
    term

(* ------------------------------------------------------------------ *)
(* profile: critical-path / self-total analysis of a JSONL trace       *)

let trace_pos_arg =
  let doc = "JSONL trace written by $(b,--obs jsonl:FILE)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)

let profile_cmd =
  let critical_arg =
    Arg.(
      value & flag
      & info [ "critical-path" ]
          ~doc:
            "Also print, per root span, the chain of heaviest children \
             with step-cost attribution (the steps sum to the root's \
             duration).")
  in
  let flame_arg =
    Arg.(
      value & opt (some string) None
      & info [ "flame" ] ~docv:"FILE"
          ~doc:
            "Write collapsed-stack output (flamegraph.pl / speedscope \
             input) to FILE.")
  in
  let dot_arg =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Write the span forest as graphviz, timings and \
             provenance-node correlations overlaid in the trace-graph \
             style of $(b,ldv inspect --dot).")
  in
  let run path critical flame dot =
    with_trace path @@ fun p ->
    Obs_report.print_profile p;
    if critical then Obs_report.print_critical_paths p;
    let write_file out content =
      let oc = open_out out in
      output_string oc content;
      close_out oc;
      Printf.printf "wrote %s\n" out
    in
    Option.iter
      (fun out -> write_file out (Ldv_obs.Profile.to_collapsed p))
      flame;
    Option.iter (fun out -> write_file out (Ldv_obs.Profile.to_dot p)) dot
  in
  let term =
    Term.(
      term_result
        (const run $ trace_pos_arg $ critical_arg $ flame_arg $ dot_arg))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Analyze an observability trace: self vs total time per span, \
          critical paths, flamegraph and graphviz exports")
    term

(* ------------------------------------------------------------------ *)
(* timeline / contention: wait-state analysis of a JSONL trace         *)

let timeline_cmd =
  let cluster_arg =
    Arg.(
      value & flag
      & info [ "cluster" ]
          ~doc:
            "Render the cluster-wide causal view instead: per-node lanes \
             (leader sessions and replicas) over wall time, plus a \
             per-trace table joining each statement with the replica \
             applies its shipped WAL records caused (ship frames carry \
             the originating trace id).")
  in
  let run path cluster =
    with_trace path @@ fun t ->
    if cluster then Obs_report.print_cluster_timeline t
    else Obs_report.print_timeline t
  in
  let term = Term.(term_result (const run $ trace_pos_arg $ cluster_arg)) in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Render a deterministic per-session Gantt chart over scheduler \
          quanta from an observability trace (collect one with \
          $(b,ldv --obs jsonl:FILE audit --sessions N)), with \
          blocked-vs-running attribution per session; with $(b,--cluster), \
          the cluster-wide causal view spanning leader and replicas")
    term

let contention_cmd =
  let run path = with_trace path Obs_report.print_contention in
  let term = Term.(term_result (const run $ trace_pos_arg)) in
  Cmd.v
    (Cmd.info "contention"
       ~doc:
         "Report contention from an observability trace: blocked vs \
          running per session, top latch holders with the wait they \
          caused, latch-wait share of wall time, and group-commit stalls")
    term

(* ------------------------------------------------------------------ *)
(* overhead: the audit-overhead ledger view and its regression gate    *)

let overhead_cmd =
  let gate_arg =
    Arg.(
      value & opt (some float) None
      & info [ "gate" ] ~docv:"PCT"
          ~doc:
            "Fail (exit 5) when the audit overhead — the audit-record, \
             provenance, and obs-self phases as a percentage of native \
             work (parse, plan, exec, WAL, fsync, other) — exceeds PCT, \
             or when the trace carries no ledger data to gate on.")
  in
  let run path gate =
    with_trace path @@ fun t ->
    let overhead = Obs_report.print_overhead t in
    match gate with
    | None -> ()
    | Some budget -> (
      match overhead with
      | None ->
        Printf.eprintf
          "ldv: overhead gate: no ledger data to gate on in %s\n%!" path;
        exit 5
      | Some pct ->
        if pct > budget then begin
          Printf.eprintf
            "ldv: overhead gate: %.2f%% audit overhead exceeds the %.2f%% \
             budget\n%!"
            pct budget;
          exit 5
        end;
        Printf.printf "overhead gate: %.2f%% within the %.2f%% budget\n" pct
          budget)
  in
  let term = Term.(term_result (const run $ trace_pos_arg $ gate_arg)) in
  Cmd.v
    (Cmd.info "overhead"
       ~doc:
         "Report the per-phase overhead ledger of an observability trace — \
          every statement's wall time split into parse/plan/exec/WAL/fsync \
          versus audit-record/provenance/obs-self — and optionally gate \
          (exit 5) on the audit-overhead percentage")
    term

(* ------------------------------------------------------------------ *)
(* obs diff: the perf-regression gate between two JSONL traces         *)

let obs_cmd =
  let a_arg =
    let doc = "Baseline JSONL trace (run A)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"A" ~doc)
  in
  let b_arg =
    let doc = "Candidate JSONL trace (run B)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"B" ~doc)
  in
  let budget_arg =
    Arg.(
      value & opt (some float) None
      & info [ "budget" ] ~docv:"PCT"
          ~doc:
            "Fail (exit 4) when any span's total time in B exceeds its \
             total in A by more than PCT percent; spans new in B with \
             measurable time also fail.")
  in
  let run a b budget =
    Result.join @@ with_trace a @@ fun ta ->
    with_trace b @@ fun tb ->
    let rows = Ldv_obs.Profile.diff ta tb in
    let regressions = Obs_report.print_diff ~budget_pct:budget rows in
    if regressions <> [] then exit 4
  in
  let diff_cmd =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two observability traces span by span (count, total, \
            p95), optionally gating on a regression budget")
      Term.(term_result (const run $ a_arg $ b_arg $ budget_arg))
  in
  Cmd.group
    (Cmd.info "obs" ~doc:"Observability trace tooling")
    [ diff_cmd ]

(* ------------------------------------------------------------------ *)
(* check                                                               *)

let check_cmd =
  let campaigns_arg default =
    let doc = "Number of seeded campaigns to run." in
    Arg.(
      value & opt positive_int default
      & info [ "campaigns"; "n" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc =
      "Root seed. The same seed draws the same campaigns and prints the \
       identical report."
    in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let sessions_arg default doc =
    Arg.(value & opt positive_int default & info [ "sessions" ] ~docv:"N" ~doc)
  in
  (* print the report; exit 1 when the scenario's contract is broken *)
  let report obs ~campaigns ~seed scenario =
    with_obs obs @@ fun () ->
    let r = Check.run scenario ~campaigns ~seed in
    print_endline (Check.to_string r);
    if Check.failed r then exit 1
  in
  (* [specific] takes the scenario's own options, then the shared ones *)
  let scenario name ~campaigns ~doc specific =
    Cmd.v (Cmd.info name ~doc)
      Term.(specific $ obs_arg $ campaigns_arg campaigns $ seed_arg)
  in
  let faults =
    let run sf sessions obs campaigns seed =
      report obs ~campaigns ~seed
        (Check.faults ~audit:(fun mode ->
             if sessions > 1 && mode = Audit.Included then
               Concurrent.audited ~sessions ~statements:4 ~seed ()
             else
               (* small workload: a campaign runs the loop 3x per index *)
               fst
                 (run_audit ~sf ~vid:"Q1-1" ~mode ~n_insert:8 ~n_select:2
                    ~n_update:3)))
    in
    scenario "faults" ~campaigns:10
      ~doc:
        "Fault-injection campaigns over the full audit/package/replay loop: \
         every failure must be typed"
      Term.(
        const run $ sf_arg
        $ sessions_arg 1
            "Concurrent sessions for the server-included audits (the only \
             packaging the concurrent path supports; the other kinds keep \
             the single-session workload).")
  in
  let crash =
    let no_recover_arg =
      let doc =
        "Debug mode: skip WAL redo after each crash (recovery loads only the \
         last checkpoint). Demonstrates that the verifier detects lost work."
      in
      Arg.(value & flag & info [ "no-recover" ] ~doc)
    in
    let run no_recover sessions obs campaigns seed =
      report obs ~campaigns ~seed
        (Check.crash ~recover:(not no_recover) ~sessions)
    in
    scenario "crash" ~campaigns:10
      ~doc:
        "Crash-consistency campaigns: kill the durable minidb at rotating \
         crash points, recover from checkpoint + WAL, and verify the result \
         against an uncrashed control run"
      Term.(
        const run $ no_recover_arg
        $ sessions_arg 1
            "Concurrent sessions per campaign. With more than one, the \
             workload interleaves per-session autocommit streams and the \
             crash run commits under the WAL's group-commit policy.")
  in
  let tx =
    let run sessions obs campaigns seed =
      report obs ~campaigns ~seed (Check.tx ~sessions)
    in
    scenario "tx" ~campaigns:10
      ~doc:
        "Transaction-granular crash campaigns: crash inside interleaved \
         multi-session transactions, recover, and verify that exactly the \
         transactions without a durable COMMIT are gone — state and \
         per-transaction reenactment provenance both checked against a \
         control run"
      Term.(
        const run
        $ sessions_arg 4
            "Concurrent transactional sessions per campaign; their streams \
             interleave statement-by-statement in the WAL.")
  in
  let replica =
    let replicas_arg =
      let doc = "Read replicas behind the leader." in
      Arg.(
        value & opt positive_int 2 & info [ "replicas" ] ~docv:"N" ~doc)
    in
    let run replicas obs campaigns seed =
      report obs ~campaigns ~seed (Check.replica ~replicas)
    in
    scenario "replica" ~campaigns:25
      ~doc:
        "Replication campaigns: ship WAL records to read replicas under \
         channel faults and replica crashes, then verify byte-identical \
         convergence, leader integrity, and every degraded read against a \
         fault-free control run"
      Term.(const run $ replicas_arg)
  in
  Cmd.group
    (Cmd.info "check"
       ~doc:
         "Run seeded verification campaigns; the same seed prints the \
          byte-identical report")
    [ faults; crash; tx; replica ]

(* ------------------------------------------------------------------ *)
(* sql                                                                 *)

let sql_cmd =
  let script_arg =
    let doc =
      "Semicolon-separated SQL statements, run in order against a fresh \
       in-memory database. Reads standard input when omitted."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)
  in
  let run obs script =
    let failure =
      with_obs obs @@ fun () ->
      let script =
        match script with
        | Some s -> s
        | None -> In_channel.input_all In_channel.stdin
      in
      let db = Minidb.Database.create ~name:"sql" () in
      match
        List.iter
          (fun stmt ->
            match Minidb.Database.exec_ast db stmt with
            | Minidb.Database.Rows r ->
              Printf.printf "%s\n"
                (String.concat " | "
                   (List.map
                      (fun c -> c.Minidb.Schema.name)
                      (Array.to_list r.Minidb.Executor.schema)));
              List.iter
                (fun (row : Minidb.Executor.arow) ->
                  Printf.printf "%s\n"
                    (String.concat " | "
                       (List.map Minidb.Value.to_string
                          (Array.to_list row.Minidb.Executor.values))))
                r.Minidb.Executor.rows
            | Minidb.Database.Affected info ->
              Printf.printf "affected %d\n" info.Minidb.Database.count
            | Minidb.Database.Ddl_done -> Printf.printf "ok\n")
          (Minidb.Sql_parser.parse_script script)
      with
      | () -> None
      | exception Minidb.Errors.Db_error kind -> Some kind
    in
    (* a typed SQL error is the script's, not an internal one: report it
       after the output of the statements that ran before it *)
    Option.iter
      (fun kind ->
        flush stdout;
        Printf.eprintf "ldv: %s\n%!" (Minidb.Errors.to_string kind);
        exit 1)
      failure
  in
  let term = Term.(const run $ obs_arg $ script_arg) in
  Cmd.v
    (Cmd.info "sql"
       ~doc:
         "Run ad-hoc SQL (including EXPLAIN) against a fresh in-memory \
          minidb instance")
    term

(* ------------------------------------------------------------------ *)
(* demo                                                                *)

let demo_cmd =
  let run obs sf =
    with_obs obs @@ fun () ->
    print_endline "LDV demo: audit -> package -> replay -> verify";
    List.iter
      (fun mode ->
        let audit, _cfg =
          run_audit ~sf ~vid:"Q1-1" ~mode ~n_insert:50 ~n_select:3 ~n_update:10
        in
        let pkg = Package.build audit in
        let result = Replay.execute pkg in
        let problems = Replay.verify ~audit result in
        Printf.printf "%-16s %-9s %s\n"
          (Package.kind_name pkg.Package.kind)
          (Report.human_bytes (Package.total_bytes pkg))
          (if problems = [] then "replay verified"
           else "DIVERGED: " ^ String.concat "; " problems))
      [ Audit.Ptu_baseline; Audit.Included; Audit.Excluded ]
  in
  let term = Term.(const run $ obs_arg $ sf_arg) in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Audit, package, replay and verify all three package kinds")
    term

let () =
  (* typed warnings (e.g. a torn WAL tail discarded during load) are
     diagnostics, not failures: print them on stderr and continue *)
  (Ldv_errors.on_warning :=
     fun e -> Printf.eprintf "ldv: warning: %s\n%!" (Ldv_errors.to_string e));
  let info =
    Cmd.info "ldv" ~version:"1.0.0"
      ~doc:"Light-weight database virtualization (ICDE 2015), in OCaml"
  in
  (* --obs reads naturally before the subcommand (`ldv --obs summary
     audit`); cmdliner only accepts options after the command name, so
     hoist a leading --obs behind the rest of the line *)
  let argv =
    match Array.to_list Sys.argv with
    | exe :: "--obs" :: mode :: rest ->
      Array.of_list ((exe :: rest) @ [ "--obs"; mode ])
    | exe :: flag :: rest
      when String.length flag > 6 && String.sub flag 0 6 = "--obs=" ->
      Array.of_list ((exe :: rest) @ [ flag ])
    | _ -> Sys.argv
  in
  let cmd =
    Cmd.group info
      [ audit_cmd; exec_cmd; inspect_cmd; trace_cmd; stats_cmd;
        profile_cmd; timeline_cmd; contention_cmd; overhead_cmd;
        obs_cmd; check_cmd; sql_cmd; demo_cmd ]
  in
  exit
    (match Cmd.eval ~catch:false ~argv cmd with
    | code -> code
    | exception Sys_error msg ->
      (* a file named on the command line cannot be opened or created:
         the status of an unusable package, not an internal error *)
      Printf.eprintf "ldv: %s\n%!" msg;
      3
    | exception e ->
      Printf.eprintf "ldv: internal error, uncaught exception:\n%s\n%!"
        (Printexc.to_string e);
      Cmd.Exit.internal_error)

(** Console sink for [Ldv_obs]: renders the loaded-trace model
    ({!Ldv_obs.Profile}) as the same fixed-width tables {!Report} uses
    for the paper's figures. Shared by the CLI's [--obs summary] mode and
    the JSONL trace readers ([ldv stats], [profile], [timeline],
    [contention], [overhead], [obs diff]): each printer projects its
    tables from the one model. *)

module Obs = Ldv_obs
module H = Ldv_obs.Histogram
module P = Ldv_obs.Profile

let print_counters counters =
  Report.print_table ~header:[ "counter"; "value" ]
    (List.map (fun (name, v) -> [ name; string_of_int v ]) counters)

let print_summary (t : P.t) =
  let snap = t.P.snap in
  if snap.Obs.spans = [] && snap.Obs.counters = [] && snap.Obs.gauges = []
     && snap.Obs.histograms = []
  then print_endline "no observability data collected"
  else begin
    if snap.Obs.spans <> [] then begin
      Report.section "Spans (per stage)";
      Report.print_table
        ~header:[ "span"; "count"; "total"; "mean"; "p50"; "p95"; "max" ]
        (List.map
           (fun (r : P.row) ->
             (* percentiles come from the per-stage histograms, which
                survive ring eviction *)
             let p50, p95 =
               match P.span_hist t r.P.r_name with
               | Some s -> (s.H.s_p50, s.H.s_p95)
               | None -> (Float.nan, Float.nan)
             in
             [ r.P.r_name;
               string_of_int r.P.r_count;
               Report.seconds r.P.r_total;
               Report.seconds (r.P.r_total /. float_of_int r.P.r_count);
               Report.seconds p50;
               Report.seconds p95;
               Report.seconds r.P.r_max ])
           t.P.names);
      if snap.Obs.dropped_spans > 0 then
        Report.note "(%d early spans evicted from the ring buffer%s)\n"
          snap.Obs.dropped_spans
          (if snap.Obs.ring_capacity > 0 then
             Printf.sprintf ", capacity %d" snap.Obs.ring_capacity
           else "")
    end;
    if snap.Obs.counters <> [] then begin
      Report.section "Counters";
      print_counters snap.Obs.counters;
      match
        ( List.assoc_opt "db.rows_scanned" snap.Obs.counters,
          List.assoc_opt "db.tuples_emitted" snap.Obs.counters )
      with
      | Some examined, Some emitted when emitted > 0 ->
        Report.note
          "rows examined per result row: %.2f (%d examined by access paths, \
           DML reads included; %d result rows)\n"
          (float_of_int examined /. float_of_int emitted)
          examined emitted
      | _ -> ()
    end;
    if snap.Obs.gauges <> [] then begin
      Report.section "Gauges";
      Report.print_table ~header:[ "gauge"; "value" ]
        (List.map
           (fun (name, v) -> [ name; Printf.sprintf "%.3f" v ])
           snap.Obs.gauges)
    end;
    if t.P.metric_hists <> [] then begin
      Report.section "Histograms";
      Report.print_table
        ~header:[ "histogram"; "count"; "mean"; "p50"; "p95"; "p99"; "max" ]
        (List.map
           (fun (name, s) ->
             [ name;
               string_of_int s.H.s_count;
               Printf.sprintf "%.3f" (H.mean s);
               Printf.sprintf "%.3f" s.H.s_p50;
               Printf.sprintf "%.3f" s.H.s_p95;
               Printf.sprintf "%.3f" s.H.s_p99;
               Printf.sprintf "%.3f" s.H.s_max ])
           t.P.metric_hists)
    end
  end

(* ------------------------------------------------------------------ *)
(* Replication rendering (the `ldv stats` repl.* section).             *)

let is_repl name =
  String.length name >= 5 && String.sub name 0 5 = "repl."

(** The replication section of a snapshot: every [repl.*] counter
    (shipped / applied / routed reads / stale reads / fallbacks /
    crashes / recoveries), the [repl.lag] quantum gauge, and the
    catch-up histograms. Prints nothing when the trace recorded no
    replication activity. *)
let print_replication (t : P.t) =
  let snap = t.P.snap in
  let counters = List.filter (fun (n, _) -> is_repl n) snap.Obs.counters in
  let gauges = List.filter (fun (n, _) -> is_repl n) snap.Obs.gauges in
  let histos = List.filter (fun (n, _) -> is_repl n) t.P.metric_hists in
  if counters <> [] || gauges <> [] || histos <> [] then begin
    Report.section "Replication";
    if counters <> [] then print_counters (List.sort compare counters);
    if gauges <> [] then
      Report.print_table ~header:[ "gauge"; "last" ]
        (List.map
           (fun (name, v) -> [ name; Printf.sprintf "%.3f" v ])
           (List.sort compare gauges));
    if histos <> [] then
      Report.print_table
        ~header:[ "histogram"; "count"; "mean"; "p50"; "p95"; "max" ]
        (List.map
           (fun (name, s) ->
             [ name;
               string_of_int s.H.s_count;
               Printf.sprintf "%.3f" (H.mean s);
               Printf.sprintf "%.3f" s.H.s_p50;
               Printf.sprintf "%.3f" s.H.s_p95;
               Printf.sprintf "%.3f" s.H.s_max ])
           (List.sort compare histos))
  end

(* ------------------------------------------------------------------ *)
(* Transaction rendering (the `ldv stats` tx.* section).               *)

let is_tx name =
  let prefixed p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  prefixed "tx." || prefixed "client.tx." || name = "faults.inject.abort"

(** The transactions section of a snapshot: every [tx.*] and
    [client.tx.*] counter (begins / commits / rollbacks / conflict
    aborts / retries / attempts) plus injected aborts. Prints nothing
    when the trace recorded no transaction activity. *)
let print_transactions (t : P.t) =
  let snap = t.P.snap in
  let counters = List.filter (fun (n, _) -> is_tx n) snap.Obs.counters in
  if counters <> [] then begin
    Report.section "Transactions";
    print_counters (List.sort compare counters);
    let counter name =
      Option.value ~default:0 (List.assoc_opt name snap.Obs.counters)
    in
    let commits = counter "tx.commit" in
    let aborts = counter "tx.abort" in
    if commits + aborts > 0 then
      Report.note "abort rate: %.1f%% (%d aborted of %d terminated)\n"
        (100.0 *. float_of_int aborts /. float_of_int (commits + aborts))
        aborts (commits + aborts)
  end

(* ------------------------------------------------------------------ *)
(* Profile rendering (the `ldv profile` / `ldv obs diff` tables).      *)

let pct ~of_ v =
  if of_ <= 0.0 then "-" else Printf.sprintf "%.1f%%" (100.0 *. v /. of_)

let print_orphans (t : P.t) =
  if t.P.orphans > 0 then
    Report.note
      "(%d span(s) had no parent in the trace — evicted or escaped — and \
       were promoted to roots)\n"
      t.P.orphans

(** The self/total table of a profiled run, heaviest self time first. *)
let print_profile (p : P.t) =
  Report.section "Profile (self vs total)";
  Report.print_table
    ~header:[ "span"; "count"; "total"; "self"; "self%"; "max" ]
    (List.map
       (fun (r : P.row) ->
         [ r.P.r_name;
           string_of_int r.P.r_count;
           Report.seconds r.P.r_total;
           Report.seconds r.P.r_self;
           pct ~of_:p.P.wall r.P.r_self;
           Report.seconds r.P.r_max ])
       (P.rows p));
  Report.note "wall (sum of roots): %s across %d root span(s)\n"
    (Report.seconds p.P.wall)
    (List.length p.P.forest);
  print_orphans p

(** One table per root: the chain of heaviest children, with the step
    cost attribution that telescopes to the root's duration. *)
let print_critical_paths (p : P.t) =
  List.iter
    (fun ((root : P.node), steps) ->
      Report.section
        (Printf.sprintf "Critical path of %s" root.P.n_span.Obs.sp_name);
      Report.print_table
        ~header:[ "depth"; "span"; "total"; "self"; "step cost"; "prov" ]
        (List.mapi
           (fun depth (st : P.step) ->
             [ string_of_int depth;
               st.P.st_span.Obs.sp_name;
               Report.seconds st.P.st_total;
               Report.seconds st.P.st_self;
               Report.seconds st.P.st_step;
               (* the full correlation list lives in the dot/JSONL output;
                  keep the table column readable *)
               (match Obs.prov_refs st.P.st_span with
               | a :: b :: (_ :: _ as rest) ->
                 Printf.sprintf "%s %s (+%d)" a b (List.length rest)
               | refs -> String.concat " " refs) ])
           steps);
      let path_total =
        List.fold_left (fun acc (st : P.step) -> acc +. st.P.st_step) 0.0 steps
      in
      Report.note "critical path total %s = root duration %s\n"
        (Report.seconds path_total)
        (Report.seconds root.P.n_total))
    (P.critical_paths p)

(** The `ldv obs diff` table; returns the regressed rows so the CLI can
    gate on them. *)
let print_diff ~budget_pct (rows : P.diff_row list) : P.diff_row list =
  let fmt_p95 v = if Float.is_nan v then "-" else Report.seconds v in
  let regressions =
    match budget_pct with
    | None -> []
    | Some budget_pct -> List.filter (P.regressed ~budget_pct) rows
  in
  Report.section "Span diff (run A -> run B)";
  Report.print_table
    ~header:
      [ "span"; "count A"; "count B"; "total A"; "total B"; "delta";
        "p95 A"; "p95 B"; "verdict" ]
    (List.map
       (fun (d : P.diff_row) ->
         let delta = P.delta_pct d in
         [ d.P.d_name;
           string_of_int d.P.d_count_a;
           string_of_int d.P.d_count_b;
           Report.seconds d.P.d_total_a;
           Report.seconds d.P.d_total_b;
           (if Float.is_nan delta then "-"
            else if delta = Float.infinity then "added"
            else if delta = Float.neg_infinity then "removed"
            else Printf.sprintf "%+.1f%%" delta);
           fmt_p95 d.P.d_p95_a;
           fmt_p95 d.P.d_p95_b;
           (match budget_pct with
           | None -> ""
           | Some budget_pct ->
             if P.regressed ~budget_pct d then "REGRESSED" else "ok") ])
       rows);
  (match budget_pct with
  | Some budget_pct ->
    Report.note "%d span(s) regressed past the %.1f%% budget\n"
      (List.length regressions) budget_pct
  | None -> ());
  regressions

(* ------------------------------------------------------------------ *)
(* Overhead rendering (the `ldv overhead` ledger view).                *)

module L = Ldv_obs.Ledger

(** The per-phase overhead table of a snapshot's ledger histograms: one
    row per phase (plus the unattributed remainder), per-statement means,
    and each phase's share of total statement time. Returns the audit
    overhead percentage — the audit-attributable phases (audit-record,
    provenance, obs-self) as a fraction of the native work (parse, plan,
    exec, WAL, fsync, other) — or [None] when the trace carries no
    ledger data. Deterministic: a pure function of the snapshot. *)
let print_overhead (t : P.t) : float option =
  match t.P.ledger with
  | None ->
    print_endline
      "no overhead ledger in this trace (collect one with an audit under \
       --obs)";
    None
  | Some (stmt, _) when stmt.H.s_count = 0 ->
    print_endline "overhead ledger is empty (no statements accounted)";
    None
  | Some (stmt, phases) ->
    let n = float_of_int stmt.H.s_count in
    let sum keep =
      List.fold_left
        (fun acc (p : P.phase_sum) -> if keep p then acc +. p.P.p_sum else acc)
        0.0 phases
    in
    let audit_s = sum (fun p -> p.P.p_audit) in
    let native_s = sum (fun p -> not p.P.p_audit) in
    Report.section "Overhead ledger (per phase)";
    Report.print_table
      ~header:[ "phase"; "class"; "count"; "total"; "per-stmt"; "share" ]
      (List.map
         (fun (p : P.phase_sum) ->
           [ p.P.p_name;
             (if p.P.p_audit then "audit" else "native");
             string_of_int p.P.p_count;
             Report.seconds p.P.p_sum;
             Report.seconds (p.P.p_sum /. n);
             pct ~of_:stmt.H.s_sum p.P.p_sum ])
         phases);
    Report.note "%d statement(s) accounted, %s total (%s per statement)\n"
      stmt.H.s_count
      (Report.seconds stmt.H.s_sum)
      (Report.seconds (stmt.H.s_sum /. n));
    let obs_self = sum (fun p -> p.P.p_name = L.phase_name L.Obs_self) in
    Report.note "obs-self (instrumentation metering itself): %s (%s)\n"
      (Report.seconds obs_self)
      (pct ~of_:stmt.H.s_sum obs_self);
    if native_s <= 0.0 then begin
      Report.note "native work is zero; overhead ratio undefined\n";
      None
    end
    else begin
      let overhead_pct = 100.0 *. audit_s /. native_s in
      Report.note
        "audit overhead: %.2f%% (audit phases %s over native work %s)\n"
        overhead_pct (Report.seconds audit_s) (Report.seconds native_s);
      Some overhead_pct
    end

(* ------------------------------------------------------------------ *)
(* Gantt rendering (the `ldv timeline` views).                         *)

(** A 64-column Gantt: one bar per lane over the extent of every span
    drawn, each span marked with its character. A ['#'] wins a cell two
    spans share; any other mark only fills a blank one. Deterministic: a
    pure function of the trace. *)
let print_gantt ~legend (lanes : (string * (P.node * char) list) list) =
  let lo, hi = P.extent (List.concat_map (fun (_, s) -> List.map fst s) lanes) in
  let width = 64 in
  let extent = hi -. lo in
  if extent <= 0.0 then print_endline "(trace spans a single instant)"
  else begin
    let cell t =
      min (width - 1)
        (max 0 (int_of_float (float_of_int width *. (t -. lo) /. extent)))
    in
    List.iter
      (fun (lane, spans) ->
        let bar = Bytes.make width ' ' in
        List.iter
          (fun ((n : P.node), mark) ->
            let start = n.P.n_span.Obs.sp_start in
            for c = cell start to cell (start +. n.P.n_total) do
              if mark = '#' || Bytes.get bar c = ' ' then Bytes.set bar c mark
            done)
          spans;
        Printf.printf "  %-8s |%s|\n" lane (Bytes.to_string bar))
      lanes;
    Printf.printf "  %-8s  %s\n" ""
      (Printf.sprintf "%s   %s .. %s" legend (Report.seconds 0.0)
         (Report.seconds extent))
  end

(* ------------------------------------------------------------------ *)
(* Contention rendering (the `ldv timeline` / `ldv contention` views). *)

module C = Ldv_obs.Contention

let share v = Printf.sprintf "%.1f%%" (100.0 *. v)

let attribution_rows (sessions : C.session_attr list) =
  List.map
    (fun (a : C.session_attr) ->
      let s = H.summarize a.C.a_stall in
      [ a.C.a_session;
        string_of_int a.C.a_quanta;
        Report.seconds a.C.a_wall;
        Report.seconds a.C.a_running;
        Report.seconds a.C.a_blocked;
        (if a.C.a_wall > 0.0 then share (a.C.a_blocked /. a.C.a_wall) else "-");
        Report.seconds a.C.a_latch_wait;
        (if s.H.s_count = 0 then "-" else Report.seconds s.H.s_p95) ])
    sessions

let attribution_header =
  [ "session"; "quanta"; "wall"; "running"; "blocked"; "blocked%";
    "latch wait"; "p95 stall" ]

(** The per-session Gantt over scheduler quanta: one row per session,
    ['#'] while it ran, ['.'] while it was parked, spaces before its
    first and after its last activity. *)
let print_timeline (t : P.t) =
  let lanes =
    List.filter_map
      (fun (session, rows) ->
        let spans name mark = List.map (fun n -> (n, mark)) (P.nodes rows name) in
        match spans C.quantum_span '#' @ spans C.sched_wait_span '.' with
        | [] -> None
        | spans -> Some ("S" ^ P.id_label session, spans))
      t.P.sessions
  in
  match lanes with
  | [] ->
    print_endline
      "no scheduler quanta in this trace (collect one with a concurrent \
       audit under --obs)"
  | lanes ->
    Report.section "Session timeline (scheduler quanta)";
    print_gantt ~legend:"# running   . blocked" lanes;
    Report.section "Blocked vs running (per session)";
    Report.print_table ~header:attribution_header
      (attribution_rows (C.attribution t));
    let snap = t.P.snap in
    if snap.Obs.quanta <> [] then
      Report.note "%d scheduler round(s) sampled%s\n"
        (List.length snap.Obs.quanta)
        (if snap.Obs.dropped_quanta > 0 then
           Printf.sprintf " (%d early quantum records dropped)"
             snap.Obs.dropped_quanta
         else "")

(* ------------------------------------------------------------------ *)
(* Cluster timeline (the `ldv timeline --cluster` view).               *)

(** Which cluster node did a span's work: replica applies land on their
    [repl.node] lane; everything else (statements, attempts, shipping)
    runs on the leader, laned by session. *)
let cluster_lane (n : P.node) =
  if String.equal n.P.n_span.Obs.sp_name "repl.apply" then
    Printf.sprintf "R%d" n.P.n_repl_node
  else Printf.sprintf "S%d" n.P.n_session

(** The cluster-wide causal view: ship frames carry the originating
    statement's trace id, so leader statements, ship deliveries, and
    replica applies join one tree per trace even though they execute on
    different nodes. Renders per-node lanes over wall time plus a
    per-trace causal table. Deterministic: a pure function of the
    trace. *)
let print_cluster_timeline (t : P.t) =
  let spans =
    List.concat_map (P.nodes t.P.names)
      [ "db.stmt"; "tx.attempt"; "repl.ship"; "repl.apply" ]
    |> List.sort (fun (a : P.node) (b : P.node) ->
           match compare a.P.n_span.Obs.sp_start b.P.n_span.Obs.sp_start with
           | 0 -> compare a.P.n_span.Obs.sp_id b.P.n_span.Obs.sp_id
           | c -> c)
  in
  match spans with
  | [] ->
    print_endline
      "no cluster spans in this trace (collect one with a replicated audit \
       under --obs)"
  | spans ->
    (* lanes: leader sessions first, then replicas, both in id order *)
    let lanes =
      P.group_by cluster_lane spans
      |> List.sort (fun (a, _) (b, _) ->
             match (a.[0], b.[0]) with
             | 'S', 'R' -> -1
             | 'R', 'S' -> 1
             | _ -> compare a b)
    in
    let mark (n : P.node) =
      match n.P.n_span.Obs.sp_name with
      | "repl.apply" -> 'a'
      | "repl.ship" -> 's'
      | _ -> '#' (* statement bodies win shared cells over ship marks *)
    in
    Report.section "Cluster timeline (per node)";
    print_gantt ~legend:"# stmt   s ship   a apply"
      (List.map
         (fun (lane, spans) -> (lane, List.map (fun n -> (n, mark n)) spans))
         lanes);
    (* the causal join: group by originating trace id *)
    let traces =
      P.group_by (fun (n : P.node) -> n.P.n_trace) spans
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let lo, _ = P.extent spans in
    Report.section "Cluster causal traces";
    Report.print_table
      ~header:[ "trace"; "start"; "span"; "node"; "stmt"; "dur" ]
      (List.concat_map
         (fun (trace, spans) ->
           List.map
             (fun (n : P.node) ->
               let sp = n.P.n_span in
               [ P.id_label trace;
                 Report.seconds (sp.Obs.sp_start -. lo);
                 sp.Obs.sp_name;
                 (if String.equal sp.Obs.sp_name "repl.ship" then
                    Printf.sprintf "->R%d" n.P.n_repl_node
                  else cluster_lane n);
                 P.id_label n.P.n_stmt;
                 Report.seconds n.P.n_total ])
             spans)
         traces);
    Report.note
      "%d trace(s) spanning %d node lane(s); replica applies join their \
       originating statement's trace via the shipped trace id\n"
      (List.length traces) (List.length lanes)

(** The contention report: blocked-vs-running attribution, top latch
    holders, and group-commit stalling. *)
let print_contention (t : P.t) =
  let r = C.contention t in
  if r.C.c_sessions = [] then
    print_endline
      "no contention data in this trace (collect one with a concurrent \
       audit under --obs)"
  else begin
    Report.section "Blocked vs running (per session)";
    Report.print_table ~header:attribution_header
      (attribution_rows r.C.c_sessions);
    Report.note "latch-wait share of wall time: %s; blocked share: %s\n"
      (share r.C.c_latch_share) (share r.C.c_blocked_share);
    if r.C.c_holders <> [] then begin
      Report.section "Top latch holders";
      Report.print_table
        ~header:[ "held by session"; "others waited"; "waits caused" ]
        (List.map
           (fun (h : C.holder) ->
             [ h.C.h_session;
               Report.seconds h.C.h_waited;
               string_of_int h.C.h_waiters ])
           r.C.c_holders)
    end;
    if r.C.c_stall.H.s_count > 0 then
      Report.note "stalls (all sessions): %d waits, p50 %s, p95 %s, max %s\n"
        r.C.c_stall.H.s_count
        (Report.seconds r.C.c_stall.H.s_p50)
        (Report.seconds r.C.c_stall.H.s_p95)
        (Report.seconds r.C.c_stall.H.s_max);
    let snap = t.P.snap in
    let counter name =
      Option.value ~default:0 (List.assoc_opt name snap.Obs.counters)
    in
    let deferred = counter "wal.group_commit.rounds_deferred" in
    let commits = counter "wal.group_commit" in
    if commits > 0 then
      Report.note
        "group commit: %d flush(es), %d statement(s) batched, %d round(s) \
         deferred%s\n"
        commits
        (counter "wal.group_commit.batched")
        deferred
        (match List.assoc_opt "wal.group_commit.stall" t.P.metric_hists with
        | Some s when s.H.s_count > 0 ->
          Printf.sprintf ", stall p95 %s" (Report.seconds s.H.s_p95)
        | _ -> "")
  end

(* ------------------------------------------------------------------ *)
(* Per-session grouping (the `ldv stats --by-session` view).           *)

(** Span aggregates per [trace.session] value, with percentiles from the
    model's per-session histograms, and a final all-sessions row per
    name. *)
let print_by_session (t : P.t) =
  match t.P.sessions with
  | [] -> print_endline "no spans in this trace"
  | sessions ->
    let row (r : P.row) =
      let s = H.summarize r.P.r_hist in
      [ r.P.r_name;
        string_of_int s.H.s_count;
        Report.seconds s.H.s_sum;
        Report.seconds s.H.s_p50;
        Report.seconds s.H.s_p95;
        Report.seconds s.H.s_max ]
    in
    let header = [ "span"; "count"; "total"; "p50"; "p95"; "max" ] in
    List.iter
      (fun (session, rows) ->
        Report.section
          (if session < 0 then "Session: (unattributed)"
           else Printf.sprintf "Session %d" session);
        Report.print_table ~header (List.map row rows))
      sessions;
    (* the run-wide view: every session's spans of a name together *)
    Report.section "All sessions (merged)";
    Report.print_table ~header
      (List.map row
         (List.sort
            (fun (a : P.row) (b : P.row) -> String.compare a.P.r_name b.P.r_name)
            t.P.names));
    if t.P.snap.Obs.counters <> [] then
      Report.note
        "(counters are process-global; per-session attribution above is \
         span-based)\n"

(** Print the span forest (roots at the margin), for drilling into one
    run's structure; spans whose parent is missing are printed as roots,
    and a note counts them. *)
let print_tree (t : P.t) =
  let rec go depth (n : P.node) =
    let sp = n.P.n_span in
    Printf.printf "%s%s %s%s\n" (String.make (2 * depth) ' ') sp.Obs.sp_name
      (Report.seconds n.P.n_total)
      (match sp.Obs.sp_attrs with
      | [] -> ""
      | attrs ->
        " ["
        ^ String.concat ", "
            (List.rev_map (fun (k, v) -> k ^ "=" ^ v) attrs)
        ^ "]");
    List.iter (go (depth + 1)) n.P.n_children
  in
  List.iter (go 0) t.P.forest;
  print_orphans t

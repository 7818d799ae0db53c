(** Console sink for [Ldv_obs]: renders a snapshot as the same fixed-width
    tables {!Report} uses for the paper's figures. Shared by the CLI's
    [--obs summary] mode and the [ldv stats] JSONL reader. *)

module Obs = Ldv_obs
module H = Ldv_obs.Histogram

let span_hist_prefix = "span:"

let is_span_hist name =
  String.length name >= String.length span_hist_prefix
  && String.sub name 0 (String.length span_hist_prefix) = span_hist_prefix

(* Aggregate spans by name, preserving first-seen order of completion. *)
type agg = {
  mutable count : int;
  mutable total : float;
  mutable min_d : float;
  mutable max_d : float;
}

let span_rows (snap : Obs.snapshot) =
  let tbl : (string, agg) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (sp : Obs.span) ->
      let d = Float.max 0.0 sp.Obs.sp_dur in
      match Hashtbl.find_opt tbl sp.Obs.sp_name with
      | Some a ->
        a.count <- a.count + 1;
        a.total <- a.total +. d;
        if d < a.min_d then a.min_d <- d;
        if d > a.max_d then a.max_d <- d
      | None ->
        Hashtbl.replace tbl sp.Obs.sp_name
          { count = 1; total = d; min_d = d; max_d = d };
        order := sp.Obs.sp_name :: !order)
    snap.Obs.spans;
  List.rev_map
    (fun name ->
      let a = Hashtbl.find tbl name in
      (* percentiles come from the per-stage histograms, which survive ring
         eviction *)
      let p50, p95 =
        match List.assoc_opt (span_hist_prefix ^ name) snap.Obs.histograms with
        | Some s -> (s.H.s_p50, s.H.s_p95)
        | None -> (Float.nan, Float.nan)
      in
      [ name;
        string_of_int a.count;
        Report.seconds a.total;
        Report.seconds (a.total /. float_of_int a.count);
        Report.seconds p50;
        Report.seconds p95;
        Report.seconds a.max_d ])
    !order

let print_summary (snap : Obs.snapshot) =
  if snap.Obs.spans = [] && snap.Obs.counters = [] && snap.Obs.gauges = []
     && snap.Obs.histograms = []
  then print_endline "no observability data collected"
  else begin
    if snap.Obs.spans <> [] then begin
      Report.section "Spans (per stage)";
      Report.print_table
        ~header:[ "span"; "count"; "total"; "mean"; "p50"; "p95"; "max" ]
        (span_rows snap);
      if snap.Obs.dropped_spans > 0 then
        Report.note "(%d early spans evicted from the ring buffer%s)\n"
          snap.Obs.dropped_spans
          (if snap.Obs.ring_capacity > 0 then
             Printf.sprintf ", capacity %d" snap.Obs.ring_capacity
           else "")
    end;
    if snap.Obs.counters <> [] then begin
      Report.section "Counters";
      Report.print_table ~header:[ "counter"; "value" ]
        (List.map
           (fun (name, v) -> [ name; string_of_int v ])
           snap.Obs.counters);
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
    let histos =
      List.filter (fun (name, _) -> not (is_span_hist name)) snap.Obs.histograms
    in
    if histos <> [] then begin
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
           histos)
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
let print_replication (snap : Obs.snapshot) =
  let counters = List.filter (fun (n, _) -> is_repl n) snap.Obs.counters in
  let gauges = List.filter (fun (n, _) -> is_repl n) snap.Obs.gauges in
  let histos =
    List.filter
      (fun (n, _) -> (not (is_span_hist n)) && is_repl n)
      snap.Obs.histograms
  in
  if counters <> [] || gauges <> [] || histos <> [] then begin
    Report.section "Replication";
    if counters <> [] then
      Report.print_table ~header:[ "counter"; "value" ]
        (List.map
           (fun (name, v) -> [ name; string_of_int v ])
           (List.sort compare counters));
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
let print_transactions (snap : Obs.snapshot) =
  let counters = List.filter (fun (n, _) -> is_tx n) snap.Obs.counters in
  if counters <> [] then begin
    Report.section "Transactions";
    Report.print_table ~header:[ "counter"; "value" ]
      (List.map
         (fun (name, v) -> [ name; string_of_int v ])
         (List.sort compare counters));
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

module P = Ldv_obs.Profile

let pct ~of_ v =
  if of_ <= 0.0 then "-" else Printf.sprintf "%.1f%%" (100.0 *. v /. of_)

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
  if p.P.orphans > 0 then
    Report.note
      "(%d span(s) had no parent in the trace — evicted or escaped — and \
       were promoted to roots)\n"
      p.P.orphans

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
let print_overhead (snap : Obs.snapshot) : float option =
  let hist name = List.assoc_opt name snap.Obs.histograms in
  let sum = function Some s -> s.H.s_sum | None -> 0.0 in
  match hist L.stmt_hist with
  | None ->
    print_endline
      "no overhead ledger in this trace (collect one with an audit under \
       --obs)";
    None
  | Some stmt when stmt.H.s_count = 0 ->
    print_endline "overhead ledger is empty (no statements accounted)";
    None
  | Some stmt ->
    let n = float_of_int stmt.H.s_count in
    let rows =
      List.map
        (fun p -> (L.phase_name p, hist (L.hist_of_phase p), L.is_audit_phase p))
        L.phases
      @ [ ("other", hist L.other_hist, false) ]
    in
    let audit_s =
      List.fold_left
        (fun acc (_, s, is_a) -> if is_a then acc +. sum s else acc)
        0.0 rows
    in
    let native_s =
      List.fold_left
        (fun acc (_, s, is_a) -> if is_a then acc else acc +. sum s)
        0.0 rows
    in
    Report.section "Overhead ledger (per phase)";
    Report.print_table
      ~header:[ "phase"; "class"; "count"; "total"; "per-stmt"; "share" ]
      (List.map
         (fun (name, s, is_a) ->
           let total = sum s in
           [ name;
             (if is_a then "audit" else "native");
             string_of_int (match s with Some s -> s.H.s_count | None -> 0);
             Report.seconds total;
             Report.seconds (total /. n);
             pct ~of_:stmt.H.s_sum total ])
         rows);
    Report.note "%d statement(s) accounted, %s total (%s per statement)\n"
      stmt.H.s_count
      (Report.seconds stmt.H.s_sum)
      (Report.seconds (stmt.H.s_sum /. n));
    let obs_self = sum (hist (L.hist_of_phase L.Obs_self)) in
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
    first and after its last activity. Deterministic: a pure function of
    the trace. *)
let print_timeline (snap : Obs.snapshot) =
  match C.timeline snap with
  | [] ->
    print_endline
      "no scheduler quanta in this trace (collect one with a concurrent \
       audit under --obs)"
  | rows ->
    let lo, hi =
      List.fold_left
        (fun acc (_, segs) ->
          List.fold_left
            (fun (lo, hi) (g : C.segment) ->
              (Float.min lo g.C.g_start, Float.max hi (g.C.g_start +. g.C.g_dur)))
            acc segs)
        (Float.infinity, Float.neg_infinity)
        rows
    in
    let width = 64 in
    let extent = hi -. lo in
    Report.section "Session timeline (scheduler quanta)";
    if extent <= 0.0 then print_endline "(trace spans a single instant)"
    else begin
      List.iter
        (fun (session, segs) ->
          let bar = Bytes.make width ' ' in
          List.iter
            (fun (g : C.segment) ->
              let cell t =
                min (width - 1)
                  (max 0 (int_of_float (float_of_int width *. (t -. lo) /. extent)))
              in
              let c0 = cell g.C.g_start in
              let c1 = cell (g.C.g_start +. g.C.g_dur) in
              let mark = match g.C.g_kind with C.Run -> '#' | C.Wait -> '.' in
              for c = c0 to c1 do
                (* running wins a shared boundary cell over waiting *)
                if mark = '#' || Bytes.get bar c = ' ' then Bytes.set bar c mark
              done)
            segs;
          Printf.printf "  %-8s |%s|\n"
            (Printf.sprintf "S%s" session)
            (Bytes.to_string bar))
        rows;
      Printf.printf "  %-8s  %s\n" ""
        (Printf.sprintf "# running   . blocked   %s .. %s" (Report.seconds 0.0)
           (Report.seconds extent))
    end;
    Report.section "Blocked vs running (per session)";
    Report.print_table ~header:attribution_header
      (attribution_rows (C.attribution snap));
    if snap.Obs.quanta <> [] then
      Report.note "%d scheduler round(s) sampled%s\n"
        (List.length snap.Obs.quanta)
        (if snap.Obs.dropped_quanta > 0 then
           Printf.sprintf " (%d early quantum records dropped)"
             snap.Obs.dropped_quanta
         else "")

(* ------------------------------------------------------------------ *)
(* Cluster timeline (the `ldv timeline --cluster` view).               *)

let span_attr (sp : Obs.span) key = List.assoc_opt key sp.Obs.sp_attrs

let span_int_attr (sp : Obs.span) key =
  match span_attr sp key with
  | Some v -> ( try int_of_string v with Failure _ -> -1)
  | None -> -1

(** Which cluster node did a span's work: replica applies land on their
    [repl.node] lane; everything else (statements, attempts, shipping)
    runs on the leader, laned by session. *)
let cluster_lane (sp : Obs.span) =
  if String.equal sp.Obs.sp_name "repl.apply" then
    Printf.sprintf "R%d" (span_int_attr sp "repl.node")
  else Printf.sprintf "S%d" (span_int_attr sp Obs.Trace.session_attr)

let is_cluster_span (sp : Obs.span) =
  match sp.Obs.sp_name with
  | "db.stmt" | "tx.attempt" | "repl.ship" | "repl.apply" -> true
  | _ -> false

(** The cluster-wide causal view: ship frames carry the originating
    statement's trace id, so leader statements, ship deliveries, and
    replica applies join one tree per trace even though they execute on
    different nodes. Renders per-node lanes over wall time plus a
    per-trace causal table. Deterministic: a pure function of the
    trace. *)
let print_cluster_timeline (snap : Obs.snapshot) =
  let spans =
    List.sort
      (fun (a : Obs.span) b ->
        match compare a.Obs.sp_start b.Obs.sp_start with
        | 0 -> compare a.Obs.sp_id b.Obs.sp_id
        | c -> c)
      (List.filter is_cluster_span snap.Obs.spans)
  in
  if spans = [] then
    print_endline
      "no cluster spans in this trace (collect one with a replicated audit \
       under --obs)"
  else begin
    (* lanes: leader sessions first, then replicas, both in id order *)
    let lanes = ref [] in
    List.iter
      (fun sp ->
        let lane = cluster_lane sp in
        if not (List.mem lane !lanes) then lanes := lane :: !lanes)
      spans;
    let lanes =
      List.sort
        (fun a b ->
          match (a.[0], b.[0]) with
          | 'S', 'R' -> -1
          | 'R', 'S' -> 1
          | _ -> compare a b)
        !lanes
    in
    let lo, hi =
      List.fold_left
        (fun (lo, hi) (sp : Obs.span) ->
          ( Float.min lo sp.Obs.sp_start,
            Float.max hi (sp.Obs.sp_start +. Float.max 0.0 sp.Obs.sp_dur) ))
        (Float.infinity, Float.neg_infinity)
        spans
    in
    let width = 64 in
    let extent = hi -. lo in
    Report.section "Cluster timeline (per node)";
    if extent <= 0.0 then print_endline "(trace spans a single instant)"
    else begin
      List.iter
        (fun lane ->
          let bar = Bytes.make width ' ' in
          List.iter
            (fun (sp : Obs.span) ->
              if String.equal (cluster_lane sp) lane then begin
                let cell t =
                  min (width - 1)
                    (max 0
                       (int_of_float
                          (float_of_int width *. (t -. lo) /. extent)))
                in
                let c0 = cell sp.Obs.sp_start in
                let c1 = cell (sp.Obs.sp_start +. Float.max 0.0 sp.Obs.sp_dur) in
                let mark =
                  match sp.Obs.sp_name with
                  | "repl.apply" -> 'a'
                  | "repl.ship" -> 's'
                  | _ -> '#'
                in
                for c = c0 to c1 do
                  (* statement bodies win shared cells over ship marks *)
                  if mark = '#' || Bytes.get bar c = ' ' then
                    Bytes.set bar c mark
                done
              end)
            spans;
          Printf.printf "  %-8s |%s|\n" lane (Bytes.to_string bar))
        lanes;
      Printf.printf "  %-8s  %s\n" ""
        (Printf.sprintf "# stmt   s ship   a apply   %s .. %s"
           (Report.seconds 0.0) (Report.seconds extent))
    end;
    (* the causal join: group by originating trace id *)
    let traces =
      List.sort_uniq compare
        (List.map (fun sp -> span_int_attr sp Obs.Trace.trace_attr) spans)
    in
    Report.section "Cluster causal traces";
    Report.print_table
      ~header:[ "trace"; "start"; "span"; "node"; "stmt"; "dur" ]
      (List.concat_map
         (fun tr ->
           List.filter_map
             (fun (sp : Obs.span) ->
               if span_int_attr sp Obs.Trace.trace_attr <> tr then None
               else
                 Some
                   [ (if tr < 0 then "-" else string_of_int tr);
                     Report.seconds (sp.Obs.sp_start -. lo);
                     sp.Obs.sp_name;
                     (if String.equal sp.Obs.sp_name "repl.ship" then
                        Printf.sprintf "->R%d" (span_int_attr sp "repl.node")
                      else cluster_lane sp);
                     (match span_attr sp Obs.Trace.stmt_attr with
                     | Some s -> s
                     | None -> "-");
                     Report.seconds (Float.max 0.0 sp.Obs.sp_dur) ])
             spans)
         traces);
    Report.note
      "%d trace(s) spanning %d node lane(s); replica applies join their \
       originating statement's trace via the shipped trace id\n"
      (List.length traces) (List.length lanes)
  end

(** The contention report: blocked-vs-running attribution, top latch
    holders, and group-commit stalling. *)
let print_contention (snap : Obs.snapshot) =
  let r = C.contention snap in
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
        (match List.assoc_opt "wal.group_commit.stall" snap.Obs.histograms with
        | Some s when s.H.s_count > 0 ->
          Printf.sprintf ", stall p95 %s" (Report.seconds s.H.s_p95)
        | _ -> "")
  end

(* ------------------------------------------------------------------ *)
(* Per-session grouping (the `ldv stats --by-session` view).           *)

(** Span aggregates grouped by the [trace.session] attribute, with
    percentiles from per-session histograms built on the fly and a final
    all-sessions row per name via [H.merge]. *)
let print_by_session (snap : Obs.snapshot) =
  (* (session, span name) -> histogram of durations *)
  let tbl : (string * string, H.t) Hashtbl.t = Hashtbl.create 64 in
  let sessions = ref [] in
  List.iter
    (fun (sp : Obs.span) ->
      let session = C.session_of sp in
      if not (List.mem session !sessions) then sessions := session :: !sessions;
      let key = (session, sp.Obs.sp_name) in
      let h =
        match Hashtbl.find_opt tbl key with
        | Some h -> h
        | None ->
          let h = H.create () in
          Hashtbl.replace tbl key h;
          h
      in
      H.observe h (Float.max 0.0 sp.Obs.sp_dur))
    snap.Obs.spans;
  if !sessions = [] then
    print_endline "no spans in this trace"
  else begin
    let sessions = List.sort C.compare_session !sessions in
    let names_of session =
      Hashtbl.fold
        (fun (s, name) _ acc -> if String.equal s session then name :: acc else acc)
        tbl []
      |> List.sort String.compare
    in
    let row name (h : H.t) =
      let s = H.summarize h in
      [ name;
        string_of_int s.H.s_count;
        Report.seconds s.H.s_sum;
        Report.seconds s.H.s_p50;
        Report.seconds s.H.s_p95;
        Report.seconds s.H.s_max ]
    in
    let header = [ "span"; "count"; "total"; "p50"; "p95"; "max" ] in
    List.iter
      (fun session ->
        Report.section
          (if String.equal session "-" then "Session: (unattributed)"
           else Printf.sprintf "Session %s" session);
        Report.print_table ~header
          (List.map
             (fun name -> row name (Hashtbl.find tbl (session, name)))
             (names_of session)))
      sessions;
    (* the run-wide view: per-name merge across every session *)
    let all_names =
      Hashtbl.fold (fun (_, name) _ acc -> name :: acc) tbl []
      |> List.sort_uniq String.compare
    in
    Report.section "All sessions (merged)";
    Report.print_table ~header
      (List.map
         (fun name ->
           let merged =
             Hashtbl.fold
               (fun (_, n) h acc ->
                 if String.equal n name then H.merge acc h else acc)
               tbl (H.create ())
           in
           row name merged)
         all_names);
    if snap.Obs.counters <> [] then
      Report.note
        "(counters are process-global; per-session attribution above is \
         span-based)\n"
  end

(** Print the span tree of a snapshot (roots at the margin), for drilling
    into one run's structure. *)
let print_tree (snap : Obs.snapshot) =
  let rec go depth (sp : Obs.span) =
    Printf.printf "%s%s %s%s\n" (String.make (2 * depth) ' ') sp.Obs.sp_name
      (Report.seconds (Float.max 0.0 sp.Obs.sp_dur))
      (match sp.Obs.sp_attrs with
      | [] -> ""
      | attrs ->
        " ["
        ^ String.concat ", "
            (List.rev_map (fun (k, v) -> k ^ "=" ^ v) attrs)
        ^ "]");
    List.iter (go (depth + 1))
      (List.sort
         (fun (a : Obs.span) b -> compare a.Obs.sp_id b.Obs.sp_id)
         (Obs.children snap sp.Obs.sp_id))
  in
  List.iter (go 0) (Obs.roots snap)

(* The overhead ledger and cluster/tx trace propagation: exclusive
   phase attribution with measured obs-self, streaming per-phase
   histograms, trace-carrying ship frames, replica applies joining the
   originating trace, linked tx.attempt retry chains, torn-sink
   tolerance, and the regression gates covering the new span names. *)

open Ldv_core
module Obs = Ldv_obs
module L = Ldv_obs.Ledger
module H = Ldv_obs.Histogram
module P = Ldv_obs.Profile
module R = Dbclient.Replication

(* Same harness as test_contention: clean in-memory collector,
   deterministic clock ticking 1.0 s per reading. *)
let with_memory f =
  Obs.set_sink Obs.Memory;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Null;
      Obs.set_clock Unix.gettimeofday;
      Obs.reset ();
      Obs.set_ring_capacity 65536)
    f

let tick_clock () =
  let t = ref 0.0 in
  Obs.set_clock (fun () ->
      let v = !t in
      t := v +. 1.0;
      v)

let hist_sum (snap : Obs.snapshot) name =
  match List.assoc_opt name snap.Obs.histograms with
  | Some s -> s.H.s_sum
  | None -> 0.0

let hist_count (snap : Obs.snapshot) name =
  match List.assoc_opt name snap.Obs.histograms with
  | Some s -> s.H.s_count
  | None -> 0

let attr (sp : Obs.span) key =
  match List.assoc_opt key sp.Obs.sp_attrs with
  | Some v -> v
  | None -> Alcotest.failf "span %s misses attr %s" sp.Obs.sp_name key

let feq = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Exclusive phase attribution under the deterministic clock.          *)

let test_ledger_attribution () =
  with_memory @@ fun () ->
  tick_clock ();
  (* clock reads, in order (each read advances 1 s):
     stmt_begin t=0;
     parse frame t0=1 t1=2 t2=3 t3=4          -> parse 1, self 2
     plan  frame t0=5 t1=6
       exec frame t0=7 t1=8 t2=9 t3=10        -> exec 1, self +2, sub 3
     plan  t2=11 t3=12 -> body 11-6-3=2 (one boundary tick each side
                          of the nested frame), self +2
     stmt_end t=13 -> total 13 *)
  L.stmt_begin ();
  L.time L.Parse (fun () -> ());
  L.time L.Plan (fun () -> L.time L.Exec (fun () -> ()));
  L.stmt_end ();
  let snap = Obs.snapshot () in
  Alcotest.(check int) "one statement accounted" 1 (hist_count snap L.stmt_hist);
  feq "stmt total" 13.0 (hist_sum snap L.stmt_hist);
  feq "parse exclusive" 1.0 (hist_sum snap (L.hist_of_phase L.Parse));
  feq "plan keeps only its boundary ticks" 2.0
    (hist_sum snap (L.hist_of_phase L.Plan));
  feq "exec exclusive" 1.0 (hist_sum snap (L.hist_of_phase L.Exec));
  feq "obs-self measured" 6.0 (hist_sum snap (L.hist_of_phase L.Obs_self));
  feq "other is the remainder" 3.0 (hist_sum snap L.other_hist);
  (* every phase histogram counts every statement (zeros included) *)
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "phase %s counts the statement" (L.phase_name p))
        1
        (hist_count snap (L.hist_of_phase p)))
    L.phases;
  (* attribution telescopes: phases + other = total *)
  let attributed =
    List.fold_left
      (fun acc p -> acc +. hist_sum snap (L.hist_of_phase p))
      (hist_sum snap L.other_hist)
      L.phases
  in
  feq "phases + other = stmt total" (hist_sum snap L.stmt_hist) attributed

let test_ledger_disabled_is_noop () =
  Obs.set_sink Obs.Null;
  Obs.reset ();
  L.stmt_begin ();
  Alcotest.(check bool) "no account opened while disabled" false
    !L.current.L.l_active;
  Alcotest.(check int) "time is exactly a call to f" 41
    (L.time L.Exec (fun () -> 41));
  L.stmt_end ();
  (* an exception in the body still pops the frame *)
  Obs.set_sink Obs.Memory;
  Obs.reset ();
  L.stmt_begin ();
  (try L.time L.Exec (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "frame popped on exception" 0
    (List.length !L.current.L.l_stack);
  L.stmt_end ();
  Obs.set_sink Obs.Null;
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* A real concurrent audit fills the ledger, one account per statement. *)

let test_ledger_covers_audited_run () =
  with_memory @@ fun () ->
  ignore (Concurrent.audited ~replicas:2 ~sessions:4 ~statements:8 ~seed:42 ());
  let snap = Obs.snapshot () in
  Alcotest.(check int) "one account per statement" 32
    (hist_count snap L.stmt_hist);
  Alcotest.(check bool) "obs-self cost is measured and nonzero" true
    (hist_sum snap (L.hist_of_phase L.Obs_self) > 0.0);
  Alcotest.(check bool) "audit phases did work" true
    (hist_sum snap (L.hist_of_phase L.Provenance) > 0.0
    && hist_sum snap (L.hist_of_phase L.Audit_record) > 0.0);
  let attributed =
    List.fold_left
      (fun acc p -> acc +. hist_sum snap (L.hist_of_phase p))
      0.0 L.phases
  in
  Alcotest.(check bool) "attributed work fits inside statement wall time" true
    (attributed <= hist_sum snap L.stmt_hist +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Ship frames carry the originating trace id.                         *)

let test_ship_frame_roundtrip () =
  let rec_ =
    { Dbclient.Wal.seq = 9; kind = Dbclient.Wal.Stmt; sid = 3;
      sql = "UPDATE notes SET body = 'x' WHERE id = 1" }
  in
  List.iter
    (fun tr ->
      let msg = { R.rec_; at = 17; tr } in
      match R.decode_ship (R.encode_ship msg) with
      | Some got ->
        Alcotest.(check int) "clock survives" 17 got.R.at;
        Alcotest.(check int) "trace id survives" tr got.R.tr;
        Alcotest.(check string) "payload survives" rec_.Dbclient.Wal.sql
          got.R.rec_.Dbclient.Wal.sql
      | None -> Alcotest.fail "ship frame did not decode")
    [ 0; 1; 42 ];
  (* a garbled frame is rejected, not misparsed *)
  Alcotest.(check bool) "garbage rejected" true
    (R.decode_ship "!not a frame" = None)

let test_replica_apply_joins_originating_trace () =
  with_memory @@ fun () ->
  ignore (Concurrent.audited ~replicas:2 ~sessions:4 ~statements:8 ~seed:42 ());
  let snap = Obs.snapshot () in
  let stmts = Obs.find_spans snap "db.stmt" in
  let applies = Obs.find_spans snap "repl.apply" in
  let ships = Obs.find_spans snap "repl.ship" in
  Alcotest.(check bool) "writes were shipped" true (ships <> []);
  Alcotest.(check bool) "replicas applied" true (applies <> []);
  let stmt_traces =
    List.sort_uniq compare
      (List.map (fun sp -> attr sp Obs.Trace.trace_attr) stmts)
  in
  List.iter
    (fun sp ->
      Alcotest.(check bool) "apply joins an originating statement trace" true
        (List.mem (attr sp Obs.Trace.trace_attr) stmt_traces);
      let node = int_of_string (attr sp "repl.node") in
      Alcotest.(check bool) "apply names its replica" true
        (node >= 0 && node < 2))
    applies;
  List.iter
    (fun sp ->
      ignore (attr sp "repl.node");
      ignore (attr sp Obs.Trace.trace_attr))
    ships

(* ------------------------------------------------------------------ *)
(* Retried transactions form one linked tx.attempt chain.              *)

let test_tx_attempt_chain () =
  with_memory @@ fun () ->
  (* seed 3 is the conflict-heavy interleaving test_tx pins down *)
  ignore (Concurrent.audited_tx ~sessions:4 ~rounds:6 ~seed:3 ());
  let snap = Obs.snapshot () in
  let attempts = Obs.find_spans snap "tx.attempt" in
  Alcotest.(check bool) "transactions ran under tx.attempt spans" true
    (attempts <> []);
  let by_id =
    List.map (fun (sp : Obs.span) -> (sp.Obs.sp_id, sp)) attempts
  in
  let retried =
    List.filter
      (fun (sp : Obs.span) -> List.mem_assoc "retry_of" sp.Obs.sp_attrs)
      attempts
  in
  Alcotest.(check bool) "the seed produced retries" true (retried <> []);
  List.iter
    (fun sp ->
      let prev_id = int_of_string (attr sp "retry_of") in
      match List.assoc_opt prev_id by_id with
      | None -> Alcotest.failf "retry_of %d is not a tx.attempt span" prev_id
      | Some prev ->
        Alcotest.(check string) "chain stays within one session"
          (attr prev Obs.Trace.session_attr)
          (attr sp Obs.Trace.session_attr);
        Alcotest.(check int) "attempt numbers are consecutive"
          (int_of_string (attr prev "tx.try") + 1)
          (int_of_string (attr sp "tx.try")))
    retried;
  (* first attempts carry no retry link *)
  List.iter
    (fun (sp : Obs.span) ->
      if int_of_string (attr sp "tx.try") = 1 then
        Alcotest.(check bool) "first attempt has no retry_of" false
          (List.mem_assoc "retry_of" sp.Obs.sp_attrs))
    attempts

(* ------------------------------------------------------------------ *)
(* Torn JSONL sink: a crash-truncated trailing line is a typed warning. *)

let test_torn_sink_tail () =
  let jsonl =
    with_memory @@ fun () ->
    tick_clock ();
    Obs.with_span "db.stmt" (fun () -> Obs.with_span "db.plan" (fun () -> ()));
    Obs.counter "db.stmt.select";
    Obs.to_jsonl (Obs.snapshot ())
  in
  let full = Obs.of_jsonl jsonl in
  let n_spans = List.length full.Obs.spans in
  (* truncate mid-way through the last line, as a crash would *)
  let torn = String.sub jsonl 0 (String.length jsonl - 8) in
  let warnings = ref [] in
  let prev = !Ldv_errors.on_warning in
  Ldv_errors.on_warning := (fun e -> warnings := e :: !warnings);
  Fun.protect ~finally:(fun () -> Ldv_errors.on_warning := prev) @@ fun () ->
  let snap = Obs.of_jsonl torn in
  (match !warnings with
  | [ Ldv_errors.Sink_torn { line; _ } ] ->
    let lines = List.length (String.split_on_char '\n' jsonl) - 1 in
    Alcotest.(check int) "warning names the torn line" lines line
  | ws ->
    Alcotest.failf "expected one Sink_torn warning, got %d" (List.length ws));
  Alcotest.(check bool) "the prefix decodes" true
    (List.length snap.Obs.spans >= n_spans - 1)

(* ------------------------------------------------------------------ *)
(* The regression gates cover the new span names.                      *)

let test_diff_budget_covers_tx_and_repl_spans () =
  with_memory @@ fun () ->
  tick_clock ();
  Obs.with_span "db.stmt" (fun () -> ());
  let snap_a = Obs.snapshot () in
  Obs.reset ();
  tick_clock ();
  Obs.with_span "db.stmt" (fun () -> ());
  Obs.with_span "tx.attempt" (fun () -> ());
  Obs.with_span "repl.apply" (fun () -> ());
  let snap_b = Obs.snapshot () in
  let rows = P.diff (P.of_snapshot snap_a) (P.of_snapshot snap_b) in
  List.iter
    (fun name ->
      match List.find_opt (fun (d : P.diff_row) -> d.P.d_name = name) rows with
      | None -> Alcotest.failf "diff misses the %s span" name
      | Some row ->
        Alcotest.(check bool)
          (Printf.sprintf "%s appearing with measurable time regresses" name)
          true
          (P.regressed ~budget_pct:10.0 row))
    [ "tx.attempt"; "repl.apply" ]

(* ------------------------------------------------------------------ *)
(* Same seed, byte-identical trace (and thus identical overhead and
   cluster-timeline reports, which are pure functions of the snapshot). *)

let test_same_seed_byte_identical () =
  let collect () =
    with_memory @@ fun () ->
    tick_clock ();
    ignore
      (Concurrent.audited ~replicas:2 ~sessions:4 ~statements:6 ~seed:42 ());
    Obs.to_jsonl (Obs.snapshot ())
  in
  let a = collect () in
  let b = collect () in
  Alcotest.(check bool) "replicated audit trace is byte-stable" true
    (String.equal a b)

let suite =
  [ Alcotest.test_case "ledger: exclusive attribution telescopes" `Quick
      test_ledger_attribution;
    Alcotest.test_case "ledger: disabled is a no-op; frames survive raises"
      `Quick test_ledger_disabled_is_noop;
    Alcotest.test_case "ledger: audited run fills every phase" `Quick
      test_ledger_covers_audited_run;
    Alcotest.test_case "replication: ship frames carry the trace id" `Quick
      test_ship_frame_roundtrip;
    Alcotest.test_case "replication: applies join the originating trace"
      `Quick test_replica_apply_joins_originating_trace;
    Alcotest.test_case "transactions: retries form a linked attempt chain"
      `Quick test_tx_attempt_chain;
    Alcotest.test_case "obs: torn sink tail warns and decodes the prefix"
      `Quick test_torn_sink_tail;
    Alcotest.test_case "obs diff: budget covers tx.* and repl.* spans" `Quick
      test_diff_budget_covers_tx_and_repl_spans;
    Alcotest.test_case "determinism: same seed, byte-identical trace" `Quick
      test_same_seed_byte_identical ]

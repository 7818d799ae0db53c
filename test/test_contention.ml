(* Contention-aware tracing: per-quantum telemetry, trace-ID propagation
   with cross-session latch causality, exact blocked-vs-running
   telescoping, byte-stable seeded traces, the streaming JSONL sink, and
   group-commit stall attribution. *)

open Ldv_core
module Obs = Ldv_obs
module C = Ldv_obs.Contention
module H = Ldv_obs.Histogram
module P = Ldv_obs.Profile

let audited = Concurrent.audited

(* Same harness as test_obs: clean in-memory collector, deterministic
   clock ticking 1.0 s per reading. *)
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

let counter_of (snap : Obs.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name snap.Obs.counters)

(* ------------------------------------------------------------------ *)
(* Per-quantum telemetry: the kernel hook samples the registered gauges
   exactly once per scheduling round.                                   *)

let test_quantum_sampling () =
  with_memory @@ fun () ->
  tick_clock ();
  ignore (audited ~sessions:4 ~statements:6 ~seed:42 ());
  let snap = Obs.snapshot () in
  let rounds = counter_of snap "sched.rounds" in
  Alcotest.(check bool) "the scheduler ran rounds" true (rounds > 0);
  Alcotest.(check int) "one quantum record per round" rounds
    (List.length snap.Obs.quanta);
  List.iteri
    (fun i (q : Obs.quantum) ->
      Alcotest.(check int) "rounds are 1-based and consecutive" (i + 1)
        q.Obs.q_round;
      Alcotest.(check bool) "run-queue gauge sampled" true
        (List.mem_assoc "sched.run_queue" q.Obs.q_gauges);
      Alcotest.(check bool) "snapshot-age gauge sampled" true
        (List.mem_assoc "db.snapshot_age" q.Obs.q_gauges);
      Alcotest.(check bool) "gauges sorted by name" true
        (let names = List.map fst q.Obs.q_gauges in
         names = List.sort compare names))
    snap.Obs.quanta;
  (* the run queue drains monotonically to empty-but-last *)
  let first = List.hd snap.Obs.quanta in
  Alcotest.(check (float 1e-9)) "round 1 sees all four sessions" 4.0
    (List.assoc "sched.run_queue" first.Obs.q_gauges)

(* ------------------------------------------------------------------ *)
(* Trace-ID propagation and cross-session latch causality.             *)

let test_trace_ids_and_latch_causality () =
  with_memory @@ fun () ->
  ignore (audited ~sessions:4 ~statements:6 ~seed:42 ());
  let snap = Obs.snapshot () in
  let stmts = Obs.find_spans snap "db.stmt" in
  Alcotest.(check bool) "statements were traced" true (stmts <> []);
  List.iter
    (fun (sp : Obs.span) ->
      let attr k =
        match List.assoc_opt k sp.Obs.sp_attrs with
        | Some v -> v
        | None -> Alcotest.failf "db.stmt span misses %s" k
      in
      Alcotest.(check bool) "trace id set" true (attr "trace.id" <> "");
      Alcotest.(check bool) "session id numeric" true
        (int_of_string_opt (attr Obs.Trace.session_attr) <> None);
      Alcotest.(check bool) "statement id numeric" true
        (int_of_string_opt (attr Obs.Trace.stmt_attr) <> None))
    stmts;
  let model = P.of_snapshot snap in
  let nodes name = (Option.get (P.find model.P.names name)).P.r_nodes in
  Alcotest.(check bool) "several sessions appear" true
    (List.length
       (List.sort_uniq compare
          (List.map (fun (n : P.node) -> n.P.n_session) (nodes "db.stmt")))
    > 2);
  (* the in-latch yield makes real contention: some session waited, and
     every wait names a holder that is not the waiter itself *)
  Alcotest.(check bool) "latch waits happened" true
    (counter_of snap "latch.waits" > 0);
  let waits = Obs.find_spans snap C.latch_wait_span in
  Alcotest.(check int) "one wait.latch span per wait"
    (counter_of snap "latch.waits")
    (List.length waits);
  List.iter
    (fun (n : P.node) ->
      match List.assoc_opt C.holder_attr n.P.n_span.Obs.sp_attrs with
      | None -> Alcotest.fail "wait.latch span misses latch.holder"
      | Some holder ->
        Alcotest.(check bool) "holder is another session" false
          (String.equal holder (P.id_label n.P.n_session)))
    (nodes C.latch_wait_span);
  (* and the report pins the blame on real sessions *)
  let rep = C.contention model in
  Alcotest.(check bool) "holder report non-empty" true (rep.C.c_holders <> []);
  List.iter
    (fun (h : C.holder) ->
      Alcotest.(check bool) "holder ids are sessions" true
        (int_of_string_opt h.C.h_session <> None))
    rep.C.c_holders

(* ------------------------------------------------------------------ *)
(* Wait-span telescoping: per session, blocked + running = wall,
   exactly, because adjacent quantum and wait spans share their boundary
   timestamps.                                                          *)

let test_telescoping () =
  with_memory @@ fun () ->
  tick_clock ();
  ignore (audited ~sessions:4 ~statements:6 ~seed:42 ());
  let rows = C.attribution (P.of_snapshot (Obs.snapshot ())) in
  let numbered =
    List.filter (fun (a : C.session_attr) ->
        int_of_string_opt a.C.a_session <> None)
      rows
  in
  Alcotest.(check int) "every session attributed" 4 (List.length numbered);
  List.iter
    (fun (a : C.session_attr) ->
      Alcotest.(check bool)
        (Printf.sprintf "session %s ran and waited" a.C.a_session)
        true
        (a.C.a_quanta > 0 && a.C.a_waits > 0);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "session %s: blocked + running = wall" a.C.a_session)
        a.C.a_wall
        (a.C.a_running +. a.C.a_blocked))
    numbered

(* ------------------------------------------------------------------ *)
(* Determinism: two identically-seeded runs produce byte-identical
   JSONL traces (spans, quanta, metrics — everything).                  *)

let test_byte_stable () =
  let collect () =
    Obs.set_sink Obs.Memory;
    Obs.reset ();
    tick_clock ();
    ignore (audited ~sessions:4 ~statements:6 ~seed:7 ());
    Obs.to_jsonl (Obs.snapshot ())
  in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Null;
      Obs.set_clock Unix.gettimeofday;
      Obs.reset ())
    (fun () ->
      let a = collect () in
      let b = collect () in
      Alcotest.(check bool) "trace is non-trivial" true
        (String.length a > 1000);
      Alcotest.(check bool) "same seed, same trace bytes" true
        (String.equal a b))

(* ------------------------------------------------------------------ *)
(* Streaming sink: records hit the file while the run is still going,
   not only at the end.                                                 *)

let test_streaming_incremental () =
  let path = Filename.temp_file "ldv_stream" ".jsonl" in
  let oc = open_out path in
  let closed = ref false in
  Obs.set_sink (Obs.Jsonl oc);
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.Null;
      if not !closed then close_out_noerr oc;
      Sys.remove path;
      Obs.set_clock Unix.gettimeofday;
      Obs.reset ())
  @@ fun () ->
  (* a gauge provider reads the trace file's own size each round: the
     quantum records then carry proof of how much had already been
     written mid-run *)
  Obs.register_quantum_gauge "zz.trace_bytes" (fun () ->
      float_of_int (Unix.stat path).Unix.st_size);
  ignore (audited ~sessions:8 ~statements:6 ~seed:42 ());
  let snap = Obs.snapshot () in
  Obs.set_sink Obs.Null;
  Obs.output_metrics oc snap;
  close_out oc;
  closed := true;
  let last_round =
    List.fold_left (fun m (q : Obs.quantum) -> max m q.Obs.q_round) 0
      snap.Obs.quanta
  in
  Alcotest.(check bool) "several rounds ran" true (last_round > 2);
  List.iter
    (fun (q : Obs.quantum) ->
      if q.Obs.q_round > 1 && q.Obs.q_round < last_round then
        Alcotest.(check bool)
          (Printf.sprintf "round %d saw a non-empty file" q.Obs.q_round)
          true
          (List.assoc "zz.trace_bytes" q.Obs.q_gauges > 0.0))
    snap.Obs.quanta;
  (* and the finished file round-trips through the reader *)
  let ic = open_in path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let decoded = Obs.of_jsonl data in
  Alcotest.(check bool) "spans stream" true (decoded.Obs.spans <> []);
  Alcotest.(check int) "every quantum streams"
    (List.length snap.Obs.quanta)
    (List.length decoded.Obs.quanta);
  Alcotest.(check int) "dropped counter streams in the meta record"
    snap.Obs.dropped_spans decoded.Obs.dropped_spans

(* ------------------------------------------------------------------ *)
(* Bounded memory: the ring caps resident spans and quanta, and the
   dropped counters account exactly for what was evicted.               *)

let test_dropped_counters () =
  with_memory @@ fun () ->
  tick_clock ();
  Obs.set_ring_capacity 8;
  for _ = 1 to 20 do
    Obs.with_span "s" (fun () -> ())
  done;
  for round = 1 to 13 do
    Obs.sample_quantum ~round ()
  done;
  let snap = Obs.snapshot () in
  Alcotest.(check int) "resident spans capped" 8 (List.length snap.Obs.spans);
  Alcotest.(check int) "dropped = emitted - resident" 12 snap.Obs.dropped_spans;
  (* the histogram saw every completion, so the accounting telescopes *)
  let hist = List.assoc "span:s" snap.Obs.histograms in
  Alcotest.(check int) "histogram keeps the true count" 20 hist.H.s_count;
  Alcotest.(check int) "resident quanta capped" 8
    (List.length snap.Obs.quanta);
  Alcotest.(check int) "dropped quanta counted" 5 snap.Obs.dropped_quanta;
  (* the survivors are the newest ones, still in order *)
  Alcotest.(check (list int)) "newest quanta survive"
    [ 6; 7; 8; 9; 10; 11; 12; 13 ]
    (List.map (fun (q : Obs.quantum) -> q.Obs.q_round) snap.Obs.quanta)

(* ------------------------------------------------------------------ *)
(* Group commit: deferred fsyncs surface as wait.group-commit spans, a
   stall histogram, and a rounds-deferred counter.                      *)

let test_group_commit_stalls () =
  with_memory @@ fun () ->
  tick_clock ();
  let kernel = Minios.Kernel.create () in
  let db = Minidb.Database.create () in
  let server = Dbclient.Server.attach db in
  let proc = Minios.Kernel.start_process kernel ~name:"minidb-server" () in
  let d = Dbclient.Durable.start kernel server ~pid:proc.Minios.Kernel.pid in
  Dbclient.Durable.enable_group_commit d;
  ignore (Dbclient.Durable.exec d "CREATE TABLE t (a INT)");
  let rounds = 6 and sessions = 4 in
  for round = 1 to rounds do
    for sid = 0 to sessions - 1 do
      ignore
        (Dbclient.Durable.exec d
           (Printf.sprintf "INSERT INTO t VALUES (%d)" ((round * 100) + sid)))
    done;
    Minios.Kernel.run_quantum_hooks kernel
  done;
  Dbclient.Durable.flush d;
  let snap = Obs.snapshot () in
  (* every quantum flushed a batch that was deferred within that round *)
  Alcotest.(check int) "rounds deferred" rounds
    (counter_of snap "wal.group_commit.rounds_deferred");
  Alcotest.(check int) "all statements were batched"
    (1 + (rounds * sessions))
    (counter_of snap "wal.group_commit.batched");
  let stall = List.assoc "wal.group_commit.stall" snap.Obs.histograms in
  Alcotest.(check int) "one stall sample per group commit"
    (counter_of snap "wal.group_commit")
    stall.H.s_count;
  let spans = Obs.find_spans snap C.group_commit_wait_span in
  Alcotest.(check int) "one wait span per flushed batch" rounds
    (List.length spans);
  List.iter
    (fun (sp : Obs.span) ->
      match List.assoc_opt "wal.batch" sp.Obs.sp_attrs with
      | None -> Alcotest.fail "wait.group-commit span misses wal.batch"
      | Some n ->
        Alcotest.(check bool) "batch size positive" true
          (match int_of_string_opt n with Some k -> k > 0 | None -> false))
    spans;
  (* the fsync-barrier gauge is sampled into each round's record *)
  Alcotest.(check int) "one quantum per round" rounds
    (List.length snap.Obs.quanta);
  let final = List.nth snap.Obs.quanta (rounds - 1) in
  Alcotest.(check (float 1e-9)) "barrier gauge tracks the WAL"
    (float_of_int (Dbclient.Durable.fsync_barriers d))
    (List.assoc "wal.fsync_barriers" final.Obs.q_gauges)

let suite =
  [ Alcotest.test_case "quantum gauges sampled once per round" `Quick
      test_quantum_sampling;
    Alcotest.test_case "trace ids propagate; latch blame is cross-session"
      `Quick test_trace_ids_and_latch_causality;
    Alcotest.test_case "blocked + running = wall, exactly" `Quick
      test_telescoping;
    Alcotest.test_case "same seed, same trace bytes" `Quick test_byte_stable;
    Alcotest.test_case "jsonl sink streams mid-run" `Quick
      test_streaming_incremental;
    Alcotest.test_case "ring bounds memory; dropped counters exact" `Quick
      test_dropped_counters;
    Alcotest.test_case "group-commit stalls attributed" `Quick
      test_group_commit_stalls ]

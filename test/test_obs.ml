(* Ldv_obs: spans, metrics, histograms, JSONL round-trip, and the span
   tree an instrumented audit emits. *)

module Obs = Ldv_obs
module H = Ldv_obs.Histogram
module P = Ldv_obs.Profile

(* Run [f] against a clean in-memory collector, restoring the disabled
   sink and the wall clock afterwards so the other suites see no
   instrumentation. *)
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

(* Deterministic clock: each reading is 1.0 s after the previous one. *)
let tick_clock () =
  let t = ref 0.0 in
  Obs.set_clock (fun () ->
      let v = !t in
      t := v +. 1.0;
      v)

let span_names snap = List.map (fun sp -> sp.Obs.sp_name) snap.Obs.spans

(* ------------------------------------------------------------------ *)
(* Disabled path.                                                      *)

let test_disabled_noop () =
  Obs.set_sink Obs.Null;
  Obs.reset ();
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  let r = Obs.with_span "x" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span passes result through" 42 r;
  Obs.counter "c";
  Obs.gauge "g" 1.0;
  Obs.observe "h" 1.0;
  Obs.add_attr "k" "v";
  let snap = Obs.snapshot () in
  Alcotest.(check int) "no spans" 0 (List.length snap.Obs.spans);
  Alcotest.(check int) "no counters" 0 (List.length snap.Obs.counters);
  Alcotest.(check int) "no gauges" 0 (List.length snap.Obs.gauges);
  Alcotest.(check int) "no histograms" 0 (List.length snap.Obs.histograms)

(* ------------------------------------------------------------------ *)
(* Span nesting, ordering, timing, attributes.                         *)

let test_span_nesting () =
  with_memory @@ fun () ->
  tick_clock ();
  (* clock readings: outer start=0, inner start=1, inner end=2 (dur 1),
     leaf start=3, leaf end=4 (dur 1), outer end=5 (dur 5) *)
  Obs.with_span ~attrs:[ ("who", "outer") ] "outer" (fun () ->
      Obs.with_span "inner" (fun () -> ());
      Obs.with_span "leaf" (fun () -> Obs.add_attr "late" "yes"));
  let snap = Obs.snapshot () in
  Alcotest.(check (list string))
    "completion order: children close before the parent"
    [ "inner"; "leaf"; "outer" ] (span_names snap);
  let find name = List.hd (Obs.find_spans snap name) in
  let outer = find "outer" and inner = find "inner" and leaf = find "leaf" in
  Alcotest.(check int) "outer is a root" 0 outer.Obs.sp_parent;
  Alcotest.(check int) "inner nests under outer" outer.Obs.sp_id
    inner.Obs.sp_parent;
  Alcotest.(check int) "leaf nests under outer" outer.Obs.sp_id
    leaf.Obs.sp_parent;
  Alcotest.(check (float 0.0)) "inner duration" 1.0 inner.Obs.sp_dur;
  Alcotest.(check (float 0.0)) "outer duration" 5.0 outer.Obs.sp_dur;
  Alcotest.(check (float 0.0)) "inner starts inside outer" 1.0
    inner.Obs.sp_start;
  Alcotest.(check (list (pair string string)))
    "static attr" [ ("who", "outer") ] outer.Obs.sp_attrs;
  Alcotest.(check (list (pair string string)))
    "add_attr reaches the innermost open span" [ ("late", "yes") ]
    leaf.Obs.sp_attrs;
  let forest = (P.of_snapshot snap).P.forest in
  Alcotest.(check int) "roots" 1 (List.length forest);
  Alcotest.(check int) "children of outer" 2
    (List.length (List.hd forest).P.n_children)

let test_span_exception () =
  with_memory @@ fun () ->
  (try Obs.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  let snap = Obs.snapshot () in
  Alcotest.(check (list string))
    "span closed by Fun.protect on exception" [ "boom" ] (span_names snap)

let test_ring_eviction () =
  with_memory @@ fun () ->
  Obs.set_ring_capacity 2;
  List.iter (fun n -> Obs.with_span n (fun () -> ())) [ "a"; "b"; "c"; "d" ];
  let snap = Obs.snapshot () in
  Alcotest.(check (list string)) "ring keeps the newest" [ "c"; "d" ]
    (span_names snap);
  Alcotest.(check int) "dropped count" 2 snap.Obs.dropped_spans;
  (* the per-stage histograms survive eviction *)
  let hist name = List.assoc ("span:" ^ name) snap.Obs.histograms in
  Alcotest.(check int) "evicted span still counted" 1 (hist "a").H.s_count

let test_metrics () =
  with_memory @@ fun () ->
  Obs.counter "hits";
  Obs.counter ~by:5 "hits";
  Obs.counter "misses";
  Obs.gauge "size" 1.0;
  Obs.gauge "size" 7.5;
  let snap = Obs.snapshot () in
  Alcotest.(check (list (pair string int)))
    "counters accumulate, sorted by name"
    [ ("hits", 6); ("misses", 1) ]
    snap.Obs.counters;
  Alcotest.(check (list (pair string (float 0.0))))
    "gauge keeps the last value" [ ("size", 7.5) ] snap.Obs.gauges

(* ------------------------------------------------------------------ *)
(* Histogram percentiles on known distributions.                       *)

(* gamma = 2^(1/16) buckets: any quantile is within ~3% of the true
   sample value. *)
let within_3pct = Alcotest.testable Fmt.float (fun expect got ->
    Float.abs (got -. expect) <= 0.03 *. Float.abs expect)

let test_histogram_uniform () =
  let h = H.create () in
  for v = 1 to 1000 do
    H.observe h (float_of_int v)
  done;
  let s = H.summarize h in
  Alcotest.(check int) "count" 1000 s.H.s_count;
  Alcotest.(check (float 1e-6)) "min exact" 1.0 s.H.s_min;
  Alcotest.(check (float 1e-6)) "max exact" 1000.0 s.H.s_max;
  Alcotest.(check within_3pct) "p50 of 1..1000" 500.0 s.H.s_p50;
  Alcotest.(check within_3pct) "p95 of 1..1000" 950.0 s.H.s_p95;
  Alcotest.(check within_3pct) "p99 of 1..1000" 990.0 s.H.s_p99;
  Alcotest.(check (float 1e-3)) "sum" 500500.0 s.H.s_sum

let test_histogram_skewed () =
  (* 99 fast samples and one slow outlier: p50 stays fast, p99 and max
     see the outlier (the reason summaries use percentiles, not means) *)
  let h = H.create () in
  for _ = 1 to 99 do
    H.observe h 0.001
  done;
  H.observe h 10.0;
  let s = H.summarize h in
  Alcotest.(check within_3pct) "p50 ignores the outlier" 0.001 s.H.s_p50;
  Alcotest.(check within_3pct) "p99 rank hits the last fast sample" 0.001
    s.H.s_p99;
  Alcotest.(check (float 1e-6)) "max is the outlier" 10.0 s.H.s_max;
  Alcotest.(check within_3pct) "p100 = max" 10.0 (H.percentile h 1.0)

let test_histogram_single_and_underflow () =
  let h = H.create () in
  H.observe h 42.0;
  let s = H.summarize h in
  (* clamping into [min,max] makes a single sample exact *)
  Alcotest.(check (float 1e-9)) "single sample p50" 42.0 s.H.s_p50;
  Alcotest.(check (float 1e-9)) "single sample p99" 42.0 s.H.s_p99;
  let u = H.create () in
  H.observe u 0.0;
  H.observe u (-3.0);
  H.observe u 5.0;
  Alcotest.(check (float 1e-9)) "non-positive samples report as 0" 0.0
    (H.percentile u 0.5);
  Alcotest.(check within_3pct) "positive tail still resolves" 5.0
    (H.percentile u 1.0);
  Alcotest.(check bool) "empty histogram has NaN percentiles" true
    (Float.is_nan (H.percentile (H.create ()) 0.5))

let test_histogram_merge () =
  let a = H.create () and b = H.create () in
  for v = 1 to 100 do
    H.observe a (float_of_int v)
  done;
  for v = 200 to 260 do
    H.observe b (float_of_int v)
  done;
  H.observe b (-1.0);
  let s = H.summarize (H.merge a b) in
  (* moments and extremes merge exactly: buckets add, no resampling *)
  Alcotest.(check int) "count adds" 162 s.H.s_count;
  Alcotest.(check (float 1e-6)) "sum adds"
    (5050.0 +. 14030.0 -. 1.0) s.H.s_sum;
  Alcotest.(check (float 1e-9)) "min is the joint min" (-1.0) s.H.s_min;
  Alcotest.(check (float 1e-9)) "max is the joint max" 260.0 s.H.s_max;
  (* merge with an empty histogram changes nothing *)
  let id = H.summarize (H.merge a (H.create ())) in
  Alcotest.(check int) "empty merge: count" 100 id.H.s_count;
  Alcotest.(check (float 1e-9)) "empty merge: p95"
    (H.summarize a).H.s_p95 id.H.s_p95;
  (* inputs are untouched *)
  Alcotest.(check int) "merge leaves a alone" 100 (H.summarize a).H.s_count;
  Alcotest.(check int) "merge leaves b alone" 62 (H.summarize b).H.s_count

(* A merged percentile lies between the inputs' percentiles: buckets add
   exactly, so the mixture's quantile cannot escape the envelope of the
   components' quantiles by more than one bucket (a factor of gamma). *)
let prop_merge_percentile_bound =
  let gamma = Float.pow 2.0 (1.0 /. 16.0) in
  let samples =
    QCheck.(
      list_of_size
        Gen.(int_range 1 50)
        (map (fun i -> float_of_int (i + 1) /. 7.0) (int_range 0 1_000_000)))
  in
  QCheck.Test.make ~name:"merged percentiles bound the inputs" ~count:200
    (QCheck.pair samples samples)
    (fun (xs, ys) ->
      let mk l =
        let h = H.create () in
        List.iter (H.observe h) l;
        h
      in
      let a = mk xs and b = mk ys in
      let m = H.merge a b in
      List.for_all
        (fun q ->
          let pa = H.percentile a q
          and pb = H.percentile b q
          and pm = H.percentile m q in
          pm >= (Float.min pa pb /. gamma) -. 1e-9
          && pm <= (Float.max pa pb *. gamma) +. 1e-9)
        [ 0.5; 0.95; 0.99 ])

(* ------------------------------------------------------------------ *)
(* JSONL round-trip (the `ldv stats` reader).                          *)

let test_jsonl_roundtrip () =
  with_memory @@ fun () ->
  tick_clock ();
  Obs.with_span ~attrs:[ ("q", "Q1-1"); ("esc", "a\"b\\c\n") ] "outer"
    (fun () -> Obs.with_span "inner" (fun () -> ()));
  Obs.counter ~by:3 "events";
  Obs.gauge "bytes" 123.5;
  Obs.observe "lat" 1.0;
  Obs.observe "lat" 2.0;
  let snap = Obs.snapshot () in
  let decoded = Obs.of_jsonl (Obs.to_jsonl snap) in
  Alcotest.(check (list string))
    "span names and order survive" (span_names snap) (span_names decoded);
  let outer = List.hd (Obs.find_spans decoded "outer") in
  let inner = List.hd (Obs.find_spans decoded "inner") in
  Alcotest.(check int) "parent links survive (src/dst)" outer.Obs.sp_id
    inner.Obs.sp_parent;
  Alcotest.(check (float 1e-9)) "durations survive (b..e interval)" 1.0
    inner.Obs.sp_dur;
  Alcotest.(check bool) "attrs survive, including escapes" true
    (List.mem ("esc", "a\"b\\c\n") outer.Obs.sp_attrs
    && List.mem ("q", "Q1-1") outer.Obs.sp_attrs);
  Alcotest.(check (list (pair string int)))
    "counters survive" [ ("events", 3) ] decoded.Obs.counters;
  Alcotest.(check (list (pair string (float 1e-9))))
    "gauges survive" [ ("bytes", 123.5) ] decoded.Obs.gauges;
  let lat = List.assoc "lat" decoded.Obs.histograms in
  Alcotest.(check int) "histogram count survives" 2 lat.H.s_count;
  Alcotest.(check (float 1e-9)) "histogram max survives" 2.0 lat.H.s_max;
  (* unknown record types are skipped, not fatal *)
  let with_junk =
    Obs.to_jsonl snap ^ "{\"t\":\"future-record\",\"name\":\"x\"}\n"
  in
  Alcotest.(check int) "unknown record types are skipped"
    (List.length snap.Obs.spans)
    (List.length (Obs.of_jsonl with_junk).Obs.spans)

(* ------------------------------------------------------------------ *)
(* The instrumented pipeline: an audited run emits the expected tree.  *)

let test_audit_span_tree () =
  with_memory @@ fun () ->
  let audit =
    Ldv_fixtures.audit_at ~n_insert:5 ~n_update:2 ~n_select:2
      Ldv_core.Audit.Included
  in
  let snap = Obs.snapshot () in
  let root =
    match Obs.find_spans snap "audit.run" with
    | [ sp ] -> sp
    | spans ->
      Alcotest.failf "expected exactly one audit.run span, got %d"
        (List.length spans)
  in
  Alcotest.(check int) "audit.run is a root span" 0 root.Obs.sp_parent;
  Alcotest.(check (option string))
    "packaging attribute" (Some "included")
    (List.assoc_opt "packaging" root.Obs.sp_attrs);
  Alcotest.(check (option string))
    "app attribute" (Some audit.Ldv_core.Audit.app_name)
    (List.assoc_opt "app" root.Obs.sp_attrs);
  let root_node =
    List.find
      (fun (n : P.node) -> n.P.n_span == root)
      (P.of_snapshot snap).P.forest
  in
  let child_names =
    List.map (fun (c : P.node) -> c.P.n_span.Obs.sp_name) root_node.P.n_children
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (expected ^ " under audit.run") true
        (List.mem expected child_names))
    [ "audit.app"; "audit.build_trace"; "audit.collect_outputs" ];
  (* statements execute inside the application phase *)
  let app = List.hd (Obs.find_spans snap "audit.app") in
  let stmts = Obs.find_spans snap "db.stmt" in
  Alcotest.(check int) "one db.stmt span per statement" 9 (List.length stmts);
  List.iter
    (fun sp ->
      Alcotest.(check int) "db.stmt nests under audit.app" app.Obs.sp_id
        sp.Obs.sp_parent)
    stmts;
  Alcotest.(check (option int))
    "audit.statements counter" (Some 9)
    (List.assoc_opt "audit.statements" snap.Obs.counters);
  let positive name =
    match List.assoc_opt name snap.Obs.counters with
    | Some n -> n > 0
    | None -> false
  in
  List.iter
    (fun c -> Alcotest.(check bool) (c ^ " > 0") true (positive c))
    [ "db.rows_scanned"; "db.tuples_emitted"; "db.plans";
      "os.syscall.spawn"; "tracer.events" ]

let suite =
  [ Alcotest.test_case "disabled sink is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "span nesting and timing" `Quick test_span_nesting;
    Alcotest.test_case "span closes on exception" `Quick test_span_exception;
    Alcotest.test_case "ring buffer eviction" `Quick test_ring_eviction;
    Alcotest.test_case "counters and gauges" `Quick test_metrics;
    Alcotest.test_case "histogram: uniform 1..1000" `Quick
      test_histogram_uniform;
    Alcotest.test_case "histogram: skewed latencies" `Quick
      test_histogram_skewed;
    Alcotest.test_case "histogram: single sample and underflow" `Quick
      test_histogram_single_and_underflow;
    Alcotest.test_case "histogram: merge" `Quick test_histogram_merge;
    QCheck_alcotest.to_alcotest prop_merge_percentile_bound;
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "audit emits the expected span tree" `Slow
      test_audit_span_tree ]

(* Ldv_obs.Profile: self/total attribution, critical paths, collapsed
   stacks, the obs-diff regression gate, meta-record round-trips, typed
   decode errors, and histogram accuracy. *)

module Obs = Ldv_obs
module H = Ldv_obs.Histogram
module P = Ldv_obs.Profile

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

let feq msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

(* Hand-built spans/snapshots for the pure-data tests (diff etc.). *)
let mkspan ?(attrs = []) ~id ~parent ~name ~dur () : Obs.span =
  { Obs.sp_id = id;
    sp_parent = parent;
    sp_name = name;
    sp_attrs = attrs;
    sp_start = 0.0;
    sp_dur = dur }

let mksnap spans : Obs.snapshot =
  { Obs.spans;
    dropped_spans = 0;
    ring_capacity = 0;
    quanta = [];
    dropped_quanta = 0;
    counters = [];
    gauges = [];
    histograms = [] }

(* ------------------------------------------------------------------ *)
(* Self vs total on a live-collected forest.                           *)

let test_self_total () =
  with_memory @@ fun () ->
  tick_clock ();
  (* readings: outer start=0, inner 1..2 (dur 1), leaf 3..4 (dur 1),
     outer end=5 (dur 5) *)
  Obs.with_span "outer" (fun () ->
      Obs.with_span "inner" (fun () -> ());
      Obs.with_span "leaf" (fun () -> Obs.add_attr "prov.file" "file:/out"));
  let p = P.of_snapshot (Obs.snapshot ()) in
  Alcotest.(check int) "one root" 1 (List.length p.P.forest);
  Alcotest.(check int) "no orphans" 0 p.P.orphans;
  let root = List.hd p.P.forest in
  feq "root total" 5.0 root.P.n_total;
  feq "root self = total - children" 3.0 root.P.n_self;
  feq "wall = sum of roots" 5.0 p.P.wall;
  Alcotest.(check int) "two children" 2 (List.length root.P.n_children);
  List.iter
    (fun (c : P.node) ->
      feq (c.P.n_span.Obs.sp_name ^ " total") 1.0 c.P.n_total;
      feq (c.P.n_span.Obs.sp_name ^ " self") 1.0 c.P.n_self)
    root.P.n_children;
  (* per-name aggregation, heaviest self first *)
  let rows = P.rows p in
  Alcotest.(check (list string))
    "rows sorted by self" [ "outer"; "inner"; "leaf" ]
    (List.map (fun (r : P.row) -> r.P.r_name) rows);
  let leaf =
    List.find
      (fun (n : P.node) -> n.P.n_span.Obs.sp_name = "leaf")
      root.P.n_children
  in
  Alcotest.(check (list string))
    "prov refs surface on the span" [ "file:/out" ]
    (Obs.prov_refs leaf.P.n_span)

(* ------------------------------------------------------------------ *)
(* Critical path: descends into the heaviest child, step costs
   telescope to the root's duration.                                   *)

let test_critical_path () =
  with_memory @@ fun () ->
  tick_clock ();
  (* root start=0; light 1..2 (dur 1); heavy start=3 with grand 4..5
     (dur 1), heavy end=6 (dur 3); root end=7 (dur 7) *)
  Obs.with_span "root" (fun () ->
      Obs.with_span "light" (fun () -> ());
      Obs.with_span "heavy" (fun () -> Obs.with_span "grand" (fun () -> ())));
  let p = P.of_snapshot (Obs.snapshot ()) in
  let root, steps = List.hd (P.critical_paths p) in
  Alcotest.(check (list string))
    "path follows heaviest children" [ "root"; "heavy"; "grand" ]
    (List.map (fun (st : P.step) -> st.P.st_span.Obs.sp_name) steps);
  let sum =
    List.fold_left (fun acc (st : P.step) -> acc +. st.P.st_step) 0.0 steps
  in
  feq "step costs telescope to the root duration" root.P.n_total sum;
  (* root: 7 total, heaviest child 3 -> step 4 (self 5 + non-critical 1 - 2?
     no: step = total - heaviest child = 7 - 3 = 4) *)
  feq "root step" 4.0 (List.nth steps 0).P.st_step;
  feq "heavy step" 2.0 (List.nth steps 1).P.st_step;
  feq "grand step" 1.0 (List.nth steps 2).P.st_step

let test_unbalanced_and_orphans () =
  with_memory @@ fun () ->
  tick_clock ();
  (* Unbalanced finish: the outer span is closed while its child is
     still open; the child escapes and closes later. *)
  let a = Obs.start_span "a" in
  let b = Obs.start_span "b" in
  Obs.finish_span a;
  (* a: 0..2, dur 2 *)
  Obs.finish_span b;
  (* b: 1..3, dur 2, parent a *)
  let p = P.of_snapshot (Obs.snapshot ()) in
  Alcotest.(check int) "escaped child still attaches" 1
    (List.length p.P.forest);
  let root, steps = List.hd (P.critical_paths p) in
  Alcotest.(check string) "root is a" "a" root.P.n_span.Obs.sp_name;
  feq "telescoping survives child >= parent" root.P.n_total
    (List.fold_left (fun acc (st : P.step) -> acc +. st.P.st_step) 0.0 steps);
  (* Orphan promotion: the parent is evicted from a cap-1 ring before the
     snapshot, leaving the child with a dangling parent id. *)
  Obs.reset ();
  Obs.set_ring_capacity 1;
  tick_clock ();
  let p1 = Obs.start_span "parent" in
  let c1 = Obs.start_span "child" in
  Obs.finish_span p1;
  Obs.finish_span c1;
  let snap = Obs.snapshot () in
  Alcotest.(check int) "eviction counted" 1 snap.Obs.dropped_spans;
  let prof = P.of_snapshot snap in
  Alcotest.(check int) "orphan promoted to root" 1 prof.P.orphans;
  Alcotest.(check (list string))
    "forest holds the surviving child" [ "child" ]
    (List.map (fun (n : P.node) -> n.P.n_span.Obs.sp_name) prof.P.forest)

(* ------------------------------------------------------------------ *)
(* Collapsed-stack output.                                             *)

let test_collapsed () =
  with_memory @@ fun () ->
  tick_clock ();
  Obs.with_span "outer" (fun () ->
      Obs.with_span "inner" (fun () -> ());
      Obs.with_span "le;af x" (fun () -> ()));
  let folded = P.to_collapsed (P.of_snapshot (Obs.snapshot ())) in
  (* outer self 3 s, children 1 s each; names sanitized, µs units *)
  Alcotest.(check string) "collapsed golden"
    "outer 3000000\nouter;inner 1000000\nouter;le_af_x 1000000\n" folded

(* ------------------------------------------------------------------ *)
(* Meta record round-trip and typed decode errors.                     *)

let test_meta_roundtrip () =
  with_memory @@ fun () ->
  Obs.set_ring_capacity 2;
  tick_clock ();
  for _ = 1 to 4 do
    Obs.with_span "s" (fun () -> ())
  done;
  let snap = Obs.snapshot () in
  Alcotest.(check int) "two evictions" 2 snap.Obs.dropped_spans;
  let decoded = Obs.of_jsonl (Obs.to_jsonl snap) in
  Alcotest.(check int) "dropped_spans survives the round-trip" 2
    decoded.Obs.dropped_spans;
  Alcotest.(check int) "ring capacity survives the round-trip" 2
    decoded.Obs.ring_capacity;
  Alcotest.(check int) "surviving spans decode" 2
    (List.length decoded.Obs.spans)

let check_decode_error ~line data =
  match Obs.of_jsonl data with
  | (_ : Obs.snapshot) -> Alcotest.failf "expected a decode error"
  | exception Ldv_errors.Error (Ldv_errors.Decode_error e) ->
    Alcotest.(check int) "1-based line number" line e.line
  | exception e ->
    Alcotest.failf "expected Decode_error, got %s" (Printexc.to_string e)

(* a failing line that is *not* the last non-empty line still raises:
   torn-tail tolerance (see test_ledger) covers only the trailing record *)
let meta_line = "{\"t\":\"meta\",\"dropped\":0,\"ring_cap\":4}"

let test_decode_errors () =
  check_decode_error ~line:1 ("not json at all\n" ^ meta_line);
  check_decode_error ~line:2
    (meta_line ^ "\n{\"t\":\"span\",\n" ^ meta_line);
  (* well-formed JSON that is not a valid record *)
  check_decode_error ~line:1 ("{\"t\":\"counter\"}\n" ^ meta_line)

(* ------------------------------------------------------------------ *)
(* The obs-diff regression gate.                                       *)

let diff a b = P.diff (P.of_snapshot a) (P.of_snapshot b)

let test_diff_gate () =
  let a = mksnap [ mkspan ~id:1 ~parent:0 ~name:"x" ~dur:1.0 () ] in
  let b = mksnap [ mkspan ~id:1 ~parent:0 ~name:"x" ~dur:2.0 () ] in
  (* x doubled: +100% regresses past a 50% budget *)
  let rows = diff a b in
  Alcotest.(check int) "one row" 1 (List.length rows);
  let row = List.hd rows in
  feq "delta" 100.0 (P.delta_pct row);
  Alcotest.(check bool) "regression caught" true
    (P.regressed ~budget_pct:50.0 row);
  Alcotest.(check bool) "within a looser budget" false
    (P.regressed ~budget_pct:150.0 row);
  (* the reverse direction (a speedup) never regresses *)
  let rows_rev = diff b a in
  Alcotest.(check bool) "speedup is not a regression" false
    (P.regressed ~budget_pct:50.0 (List.hd rows_rev));
  (* self-comparison is clean *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "self diff clean" false
        (P.regressed ~budget_pct:0.0 r))
    (diff a a);
  (* a new span with measurable time counts as a regression *)
  let b' =
    mksnap
      [ mkspan ~id:1 ~parent:0 ~name:"x" ~dur:1.0 ();
        mkspan ~id:2 ~parent:0 ~name:"y" ~dur:0.5 () ]
  in
  let y =
    List.find (fun (r : P.diff_row) -> r.P.d_name = "y") (diff a b')
  in
  Alcotest.(check bool) "new span delta is +inf" true
    (P.delta_pct y = Float.infinity);
  Alcotest.(check bool) "new span regresses" true
    (P.regressed ~budget_pct:50.0 y)

(* Spans present in only one run must surface as added/removed rows —
   including when they only survive in a [span:<name>] histogram because
   the ring evicted every instance. *)
let test_diff_one_sided () =
  let a = mksnap [ mkspan ~id:1 ~parent:0 ~name:"x" ~dur:1.0 () ] in
  let hx = H.create () in
  H.observe hx 2.0;
  H.observe hx 2.5;
  let b =
    { (mksnap []) with
      Obs.dropped_spans = 2;
      histograms = [ ("span:x", H.summarize hx) ] }
  in
  (* b's ring is empty, but span:x saw two completions: diff must trust
     the histogram, not report x as removed *)
  let row = List.find (fun (r : P.diff_row) -> r.P.d_name = "x") (diff a b) in
  Alcotest.(check int) "evicted count from histogram" 2 row.P.d_count_b;
  feq "evicted total from histogram" 4.5 row.P.d_total_b;
  Alcotest.(check bool) "evicted regression caught" true
    (P.regressed ~budget_pct:100.0 row);
  (* present only in A -> removed (count_b = 0), never a regression *)
  let gone = List.find (fun (r : P.diff_row) -> r.P.d_name = "x") (diff a (mksnap [])) in
  Alcotest.(check int) "removed span keeps a row" 1 gone.P.d_count_a;
  Alcotest.(check int) "removed span has no B count" 0 gone.P.d_count_b;
  Alcotest.(check bool) "removed span is not a regression" false
    (P.regressed ~budget_pct:0.0 gone);
  (* present only in B -> added, exit-4 material when it has time *)
  let added = List.find (fun (r : P.diff_row) -> r.P.d_name = "x") (diff (mksnap []) a) in
  Alcotest.(check int) "added span has no A count" 0 added.P.d_count_a;
  Alcotest.(check bool) "added span regresses the budget" true
    (P.regressed ~budget_pct:50.0 added)

(* ------------------------------------------------------------------ *)
(* Histogram: NaN guard and percentile accuracy.                       *)

let test_histogram_nan () =
  let h = H.create () in
  H.observe h 1.0;
  H.observe h Float.nan;
  H.observe h 3.0;
  let s = H.summarize h in
  Alcotest.(check int) "NaN still counted" 3 s.H.s_count;
  feq "sum unpoisoned" 4.0 s.H.s_sum;
  feq "min unpoisoned" 1.0 s.H.s_min;
  feq "max unpoisoned" 3.0 s.H.s_max;
  Alcotest.(check bool) "p95 is a number" false (Float.is_nan s.H.s_p95);
  (* a NaN-only histogram reports like all-underflow *)
  let h2 = H.create () in
  H.observe h2 Float.nan;
  feq "NaN-only p50 reports 0" 0.0 (H.summarize h2).H.s_p50

(* percentile stays within the DDSketch bound (sqrt gamma - 1 ~ 2.2%)
   of the exact rank statistic, for any positive sample set *)
let prop_percentile_accuracy =
  let arb =
    QCheck.(
      list_of_size
        Gen.(int_range 1 60)
        (map (fun i -> float_of_int (i + 1) /. 7.0) (int_range 0 1_000_000)))
  in
  QCheck.Test.make ~name:"percentile within 2.25% of exact rank"
    ~count:200 arb (fun samples ->
      let h = H.create () in
      List.iter (H.observe h) samples;
      let sorted = List.sort compare samples in
      let n = List.length samples in
      List.for_all
        (fun q ->
          let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
          let exact = List.nth sorted (rank - 1) in
          let approx = H.percentile h q in
          Float.abs (approx -. exact) <= (0.0225 *. exact) +. 1e-12)
        [ 0.5; 0.95; 0.99; 1.0 ])

(* ------------------------------------------------------------------ *)
(* The tree of a torn trace: a root that never closed leaves its
   children's parent out of the snapshot, so the tree printer must
   promote them to roots, as the profile does.                          *)

(* What [f] prints on stdout. *)
let stdout_of f =
  let path = Filename.temp_file "ldv_tree" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let ic = open_in path in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  out

(* root (still open) > a > a1, and root > b; a1, a and b closed *)
let torn_snapshot () =
  tick_clock ();
  let (_ : Obs.span) = Obs.start_span "root" in
  Obs.with_span "a" (fun () -> Obs.with_span "a1" (fun () -> ()));
  Obs.with_span "b" (fun () -> ());
  Obs.snapshot ()

let check_torn_tree snap =
  Alcotest.(check string) "a and b printed as roots, the note counts them"
    "a 3.000 s\n\
    \  a1 1.000 s\n\
     b 1.000 s\n\
     (2 span(s) had no parent in the trace \xe2\x80\x94 evicted or escaped \
     \xe2\x80\x94 and were promoted to roots)\n"
    (stdout_of (fun () -> Ldv_core.Obs_report.print_tree (P.of_snapshot snap)))

let test_torn_tree () =
  with_memory @@ fun () -> check_torn_tree (torn_snapshot ())

let test_torn_tree_jsonl () =
  with_memory @@ fun () ->
  check_torn_tree (Obs.of_jsonl (Obs.to_jsonl (torn_snapshot ())))

let suite =
  [ Alcotest.test_case "self vs total attribution" `Quick test_self_total;
    Alcotest.test_case "critical path telescopes" `Quick test_critical_path;
    Alcotest.test_case "unbalanced spans and orphan promotion" `Quick
      test_unbalanced_and_orphans;
    Alcotest.test_case "collapsed-stack golden output" `Quick test_collapsed;
    Alcotest.test_case "meta record round-trip" `Quick test_meta_roundtrip;
    Alcotest.test_case "typed decode errors with line numbers" `Quick
      test_decode_errors;
    Alcotest.test_case "obs diff budget gate" `Quick test_diff_gate;
    Alcotest.test_case "obs diff added/removed/evicted spans" `Quick
      test_diff_one_sided;
    Alcotest.test_case "histogram NaN guard" `Quick test_histogram_nan;
    QCheck_alcotest.to_alcotest prop_percentile_accuracy;
    Alcotest.test_case "torn trace: the tree lists the closed children"
      `Quick test_torn_tree;
    Alcotest.test_case "torn trace: the tree after a JSONL round trip"
      `Quick test_torn_tree_jsonl ]

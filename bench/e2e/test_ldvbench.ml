(* Smoke test of the benchmark: the tail-percentile rule, quartiles and
   compare verdicts on synthetic inputs, then every workload at --quick
   size with tracing on. Exits 1 on the first failed check. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let summary median q1 q3 = { Stats.median; q1; q3; n = 10 }

let () =
  (* the highest of p99/p95/p90/p75/p50 with at least ten samples beyond *)
  List.iter
    (fun (n, want) ->
      check (Printf.sprintf "tail_percentile %d" n) (Stats.tail_percentile n = want))
    [ (9, None); (19, None); (20, Some 50); (40, Some 75); (99, Some 75);
      (100, Some 90); (200, Some 95); (999, Some 95); (1000, Some 99) ];
  (* each workload's tails, against the samples the fewest measured
     iterations of a run pool *)
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (what, per_iter) ->
          let n = Harness.min_iters * per_iter in
          let p = Harness.tail_of ~iterations:Harness.min_iters per_iter in
          check
            (Printf.sprintf "%s %s tail p%d has ten samples beyond it" w.Workloads.name
               what p)
            (Stats.beyond p n >= 10))
        [ ("read", Workloads.reads_per_iter w); ("write", Workloads.writes_per_iter w) ])
    Workloads.all;
  (* a latency percentile is taken over the samples of every iteration *)
  let per_iter = List.init 5 (fun i -> List.init 10 (fun j -> float_of_int ((10 * i) + j + 1) *. 1e-6)) in
  let p = Harness.tail_of ~iterations:5 10 in
  let l = Harness.latency_summary ~p per_iter in
  check "pooled tail is p75" (p = 75);
  check "pooled tail over 50 samples" (l.Stats.n = 50);
  check "pooled tail value" (Float.abs (l.Stats.median -. 38.0) < 1e-6);
  check "pooled tail has ten beyond" (Stats.beyond p l.Stats.n >= 10);
  (* quartiles as Python's statistics.quantiles(range(1, 11), n=4) *)
  let s = Stats.summarize (List.init 10 (fun i -> float_of_int (i + 1))) in
  check "median" (s.Stats.median = 5.5);
  check "quartiles" (s.Stats.q1 = 2.75 && s.Stats.q3 = 8.25);
  check "percentile" (Stats.percentile (Stats.sorted [ 3.; 1.; 2.; 4. ]) 50 = 2.);
  (* the reference scales times, and its blocks die young *)
  check "speed factor" (Speed.factor [ Speed.reference_s; 2.0 *. Speed.reference_s; 0.5 *. Speed.reference_s ] = 1.0);
  Gc.compact ();
  let promoted () = (Gc.quick_stat ()).Gc.promoted_words in
  let before = promoted () in
  ignore (Speed.time ());
  check "reference promotes little" (promoted () -. before < 20_000.0);
  let v ?(lower_is_better = true) ?(bound = 0.10) a b =
    Stats.verdict ~lower_is_better ~bound a b
  in
  let base = summary 1.0 0.98 1.02 in
  check "same" (v base (summary 1.05 1.03 1.07) = Stats.Same);
  check "regressed" (v base (summary 1.2 1.18 1.22) = Stats.Regressed);
  check "improved" (v base (summary 0.8 0.78 0.82) = Stats.Improved);
  check "median, not quartiles, decides"
    (v base (summary 1.09 1.04 1.13) = Stats.Same
    && v base (summary 1.11 1.07 1.15) = Stats.Regressed);
  check "higher is better"
    (v ~lower_is_better:false base (summary 0.8 0.78 0.82) = Stats.Regressed);
  check "unresolved" (v base (summary 1.2 0.9 1.5) = Stats.Unresolved);
  let zero = summary 0.0 0.0 0.0 in
  check "failures rise" (v ~bound:0.0 zero (summary 0.01 0.01 0.01) = Stats.Regressed);
  check "no failures" (v ~bound:0.0 zero zero = Stats.Same);
  (* compare reads what the summaries file holds *)
  let file ?(seed = 1) ?(speed = 1.0) audit =
    Results.file_json ~seed ~seconds:1.0 ~trace:false
      [ ( "w",
          Ldv_obs.Json.Obj
            [ ("speed", Ldv_obs.Json.Float speed);
              ( "metrics",
                Results.metrics_json
                  [ ("audit_s", summary audit (audit *. 0.99) (audit *. 1.01));
                    ("failed_frac", zero) ] ) ] ) ]
    |> Ldv_obs.Json.to_string |> Ldv_obs.Json.of_string |> Results.of_file_json
  in
  let verdicts ?speed a b =
    List.map
      (fun (r : Results.row) -> r.Results.verdict)
      (Results.compare (file a) (file ?speed b))
  in
  check "compare same" (verdicts 1.0 1.02 = [ Stats.Same; Stats.Same ]);
  check "compare regressed" (verdicts 1.0 1.5 = [ Stats.Regressed; Stats.Same ]);
  check "times of runs at speeds 30% apart are unresolved"
    (verdicts ~speed:0.7 1.0 1.5 = [ Stats.Unresolved; Stats.Same ]);
  check "compare refuses different seeds"
    (match Results.compare (file 1.0) (file ~seed:2 1.0) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  let per_layer = List.map fst Metrics.per_layer in
  List.iter
    (fun (w : Workloads.t) ->
      let r = Harness.run ~quick:true w ~seed:42 ~seconds:0.0 ~trace:true in
      let name = w.Workloads.name in
      List.iter (fun p -> Printf.printf "%s: %s\n" name p) r.Harness.problems;
      check (name ^ " correct") (Harness.correct r);
      check (name ^ " attempted") (r.Harness.attempted > 0);
      check (name ^ " one untraced + one traced iteration") (r.Harness.iterations = 2);
      List.iter
        (fun (d : Metrics.def) ->
          match List.assoc_opt d.Metrics.name r.Harness.e2e with
          | Some s -> check (name ^ " " ^ d.Metrics.name ^ " finite") (Float.is_finite s.Stats.median)
          | None -> check (name ^ " reports " ^ d.Metrics.name) false)
        Metrics.end_to_end;
      check (name ^ " reports every per-layer metric")
        (List.map fst r.Harness.layers = per_layer);
      check (name ^ " result line")
        (match
           Ldv_obs.Json.of_string
             (Results.result_line ~correct:true ~attempted:r.Harness.attempted
                ~failed:0 (Results.line_metrics r))
         with
        | Ldv_obs.Json.Obj [ ("correct", _); ("attempted", _); ("failed", _); ("metrics", Ldv_obs.Json.Obj ms) ] ->
          List.map fst ms = per_layer
        | _ -> false);
      check (name ^ " untraced result line")
        (List.map fst (Results.line_metrics { r with Harness.traced = false })
        = List.filter_map
            (fun (d : Metrics.def) ->
              if List.mem d.Metrics.name Metrics.off_line then None else Some d.Metrics.name)
            Metrics.end_to_end))
    Workloads.all;
  if !failures > 0 then exit 1

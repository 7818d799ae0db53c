(* ldvbench: the tracked end-to-end benchmark of the LDV pipeline.

     ldvbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                  [--out FILE] [--quick]
     ldvbench compare BASE.json NEW.json

   [run] prints every metric with its unit, median, quartiles and sample
   count, and ends its standard output with one JSON line:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
   — the medians of the end-to-end metrics, or with [--trace 1] of the
   per-layer ones. Without [--workload] every workload runs, each in its
   own child process, one after another, and the line's metric names are
   workload-qualified ("q1-included/audit_s"). [--out] writes the full
   summaries that [compare] reads. [--trace 1] also writes each
   workload's spans as JSONL to [ldvbench-out/spans-<workload>.jsonl].

   [compare] prints, per workload and end-to-end metric, both sides'
   medians and quartiles and a verdict, and exits 1 when a metric
   regresses beyond its bound or the failure fraction rises. *)

module Json = Ldv_obs.Json

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

let print_metrics title ms =
  Printf.printf "  %-30s %-6s %14s %14s %14s %6s\n" title "unit" "median" "q1" "q3" "n";
  List.iter
    (fun (name, (s : Stats.summary)) ->
      Printf.printf "  %-30s %-6s %14.6g %14.6g %14.6g %6d\n" name (Metrics.unit_of name)
        s.Stats.median s.Stats.q1 s.Stats.q3 s.Stats.n)
    ms

let print_result (r : Harness.result) =
  Printf.printf
    "%s  seed %d  %d iterations  speed factor %.3f  read tail p%d  write tail p%d  \
     attempted %d  failed %d  %s\n"
    r.Harness.workload r.Harness.seed r.Harness.iterations r.Harness.speed
    r.Harness.read_tail_p r.Harness.write_tail_p r.Harness.attempted r.Harness.failed
    (if Harness.correct r then "correct" else "INCORRECT");
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) r.Harness.problems;
  print_metrics "end-to-end metric" r.Harness.e2e;
  if r.Harness.traced then begin
    print_metrics "per-layer metric" r.Harness.layers;
    Printf.printf "  %-44s %6s %12s %12s\n" "span" "count" "total s" "self s";
    List.iter
      (fun (name, n, tot, slf) ->
        Printf.printf "  %-44s %6d %12.6f %12.6f\n" name n tot slf)
      (Spans.table r.Harness.spans)
  end;
  flush stdout

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let spans_dir = "ldvbench-out"

let write_spans (r : Harness.result) =
  if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
  Out_channel.with_open_bin
    (Filename.concat spans_dir ("spans-" ^ r.Harness.workload ^ ".jsonl"))
    (fun oc -> Spans.write_jsonl oc ~workload:r.Harness.workload r.Harness.spans)

let results_file ~seed ~seconds ~trace ws =
  Json.to_string (Results.file_json ~seed ~seconds ~trace ws) ^ "\n"

(* Run every workload in a child process of its own, one after another;
   each child ends its output with its workload's summaries. *)
let run_children ~seed ~seconds ~trace ~quick =
  List.map
    (fun (w : Workloads.t) ->
      let args =
        [ "run"; "--child"; "--workload"; w.Workloads.name;
          "--seed"; string_of_int seed;
          "--seconds"; Printf.sprintf "%g" seconds;
          "--trace"; (if trace then "1" else "0") ]
        @ if quick then [ "--quick" ] else []
      in
      let r, wr = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process Sys.executable_name
          (Array.of_list (Sys.executable_name :: args))
          Unix.stdin wr Unix.stderr
      in
      Unix.close wr;
      let out = In_channel.input_all (Unix.in_channel_of_descr r) in
      Unix.close r;
      let _, status = Unix.waitpid [] pid in
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
      List.iter print_endline (List.filteri (fun i _ -> i < List.length lines - 1) lines);
      match (status, List.rev lines) with
      | Unix.WEXITED 0, last :: _ -> (w.Workloads.name, Json.of_string last)
      | _ -> failwith ("workload " ^ w.Workloads.name ^ " failed"))
    Workloads.all

let run args =
  let workload = ref "" and seed = ref 42 and seconds = ref Harness.run_seconds in
  let trace = ref false and out = ref "" in
  let quick = ref false and child = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "W  run one workload");
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ( "--seconds",
        Arg.Set_float seconds,
        Printf.sprintf "S  measured time per workload (default %g)" Harness.run_seconds );
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun v -> trace := v = "1"),
        "  1 = traced run: per-layer metrics, spans in " ^ spans_dir );
      ("--out", Arg.Set_string out, "FILE  write the summaries as JSON");
      ("--quick", Arg.Set quick, "  smoke-test sizes, one iteration");
      ("--child", Arg.Set child, "  (internal) end with the workload's summaries") ]
  in
  Arg.parse_argv ~current:(ref 0) args spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ldvbench run [options]";
  if !workload = "" then begin
    let ws = run_children ~seed:!seed ~seconds:!seconds ~trace:!trace ~quick:!quick in
    if !out <> "" then
      write_file !out (results_file ~seed:!seed ~seconds:!seconds ~trace:!trace ws);
    let int_of k j = Option.fold ~none:0 ~some:Json.to_int (Json.member k j) in
    let attempted = List.fold_left (fun acc (_, j) -> acc + int_of "attempted" j) 0 ws in
    let failed = List.fold_left (fun acc (_, j) -> acc + int_of "failed" j) 0 ws in
    let correct =
      List.for_all (fun (_, j) -> Json.member "correct" j = Some (Json.Bool true)) ws
    in
    print_endline
      (Results.result_line ~correct ~attempted ~failed
         (List.concat_map (Results.qualified_line_metrics ~traced:!trace) ws));
    if correct then 0 else 1
  end
  else
    match Workloads.find !workload with
    | None ->
      Printf.eprintf "ldvbench: unknown workload %s\n" !workload;
      2
    | Some w ->
      let r = Harness.run ~quick:!quick w ~seed:!seed ~seconds:!seconds ~trace:!trace in
      print_result r;
      if !trace then write_spans r;
      if !out <> "" then
        write_file !out
          (results_file ~seed:!seed ~seconds:!seconds ~trace:!trace
             [ (w.Workloads.name, Results.workload_json r) ]);
      if !child then print_endline (Json.to_string (Results.workload_json r))
      else
        print_endline
          (Results.result_line ~correct:(Harness.correct r)
             ~attempted:r.Harness.attempted ~failed:r.Harness.failed
             (Results.line_metrics r));
      0

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let compare_files base_path new_path =
  let load path =
    Results.of_file_json
      (Json.of_string (In_channel.with_open_bin path In_channel.input_all))
  in
  let base = load base_path and next = load new_path in
  match Results.compare base next with
  | exception Invalid_argument m ->
    prerr_endline ("ldvbench " ^ m);
    2
  | rows ->
    List.iter
      (fun (w, (b : Results.workload_summaries)) ->
        match List.assoc_opt w (snd next) with
        | Some n ->
          Printf.printf "%-12s speed factor %.3f -> %.3f (gap %.0f%%)\n" w b.Results.speed
            n.Results.speed
            (100.0 *. Results.speed_gap b.Results.speed n.Results.speed)
        | None -> ())
      (snd base);
    let cell (s : Stats.summary) =
      Printf.sprintf "%.4g [%.4g, %.4g]" s.Stats.median s.Stats.q1 s.Stats.q3
    in
    Printf.printf "%-12s %-14s %-6s %32s %32s %8s  %s\n" "workload" "metric" "unit"
      "base median [q1, q3]" "new median [q1, q3]" "change" "verdict";
    List.iter
      (fun (r : Results.row) ->
        let a = r.Results.base.Stats.median and b = r.Results.next.Stats.median in
        Printf.printf "%-12s %-14s %-6s %32s %32s %8s  %s\n" r.Results.workload
          r.Results.def.Metrics.name r.Results.def.Metrics.unit_ (cell r.Results.base)
          (cell r.Results.next)
          (if a = 0.0 then "-" else Printf.sprintf "%+.1f%%" (100.0 *. (b -. a) /. a))
          (Stats.verdict_name r.Results.verdict))
      rows;
    if List.exists (fun (r : Results.row) -> r.Results.verdict = Stats.Regressed) rows
    then 1
    else 0

let usage () =
  prerr_endline
    "usage: ldvbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
    \                    [--out FILE] [--quick]\n\
    \       ldvbench compare BASE.json NEW.json";
  2

let () =
  let argv = Sys.argv in
  let code =
    match Array.to_list argv with
    | _ :: "run" :: _ -> (
      try run (Array.sub argv 1 (Array.length argv - 1)) with
      | Arg.Bad m | Arg.Help m ->
        prerr_string m;
        2)
    | [ _; "compare"; a; b ] -> compare_files a b
    | _ -> usage ()
  in
  exit code

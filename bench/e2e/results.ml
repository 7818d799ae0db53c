(* Result formats: the summaries file [--out] writes and [compare]
   reads, the one-line result a run ends with, and the comparison of two
   summaries files. *)

module Json = Ldv_obs.Json

let summary_json unit_ (s : Stats.summary) =
  Json.Obj
    [ ("unit", Json.Str unit_);
      ("median", Json.Float s.Stats.median);
      ("q1", Json.Float s.Stats.q1);
      ("q3", Json.Float s.Stats.q3);
      ("n", Json.Int s.Stats.n) ]

let metrics_json ms =
  Json.Obj
    (List.map (fun (name, s) -> (name, summary_json (Metrics.unit_of name) s)) ms)

(** One workload's entry in a summaries file. *)
let workload_json (r : Harness.result) =
  Json.Obj
    [ ("seed", Json.Int r.Harness.seed);
      ("traced", Json.Bool r.Harness.traced);
      ("iterations", Json.Int r.Harness.iterations);
      ("speed", Json.Float r.Harness.speed);
      ("attempted", Json.Int r.Harness.attempted);
      ("failed", Json.Int r.Harness.failed);
      ("correct", Json.Bool (Harness.correct r));
      ("read_tail", Json.Str (Printf.sprintf "p%d" r.Harness.read_tail_p));
      ("write_tail", Json.Str (Printf.sprintf "p%d" r.Harness.write_tail_p));
      ("problems", Json.List (List.map (fun p -> Json.Str p) r.Harness.problems));
      ("metrics", metrics_json r.Harness.e2e);
      ("layers", metrics_json r.Harness.layers) ]

let file_json ~seed ~seconds ~trace (ws : (string * Json.t) list) =
  Json.Obj
    [ ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ("workloads", Json.Obj ws) ]

let summary_of_json j : Stats.summary =
  let f k = Option.fold ~none:Float.nan ~some:Json.to_float (Json.member k j) in
  { Stats.median = f "median";
    q1 = f "q1";
    q3 = f "q3";
    n = Option.fold ~none:0 ~some:Json.to_int (Json.member "n" j) }

(** One workload's entry as [compare] reads it. *)
type workload_summaries = {
  speed : float;  (** [Harness.result.speed] *)
  metrics : (string * Stats.summary) list;  (** end-to-end *)
}

(** The seed of a summaries file and its workloads' summaries. *)
let of_file_json j : int * (string * workload_summaries) list =
  let seed =
    match Json.member "seed" j with
    | Some s -> Json.to_int s
    | None -> failwith "no \"seed\""
  in
  match Json.member "workloads" j with
  | Some (Json.Obj ws) ->
    ( seed,
      List.map
        (fun (name, w) ->
          let speed = Option.fold ~none:Float.nan ~some:Json.to_float (Json.member "speed" w) in
          match Json.member "metrics" w with
          | Some (Json.Obj ms) ->
            (name, { speed; metrics = List.map (fun (m, s) -> (m, summary_of_json s)) ms })
          | _ -> (name, { speed; metrics = [] }))
        ws )
  | _ -> failwith "no \"workloads\" object"

(** The last line of a run, read by benchmark tooling:
    [{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}]. *)
let result_line ~correct ~attempted ~failed (metrics : (string * float) list) =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, v) ->
                  ( name,
                    Json.Obj
                      [ ("value", Json.Float v);
                        ("unit", Json.Str (Metrics.unit_of name)) ] ))
                metrics) ) ])

(** The values a run's last line carries: the medians of the end-to-end
    metrics but those of [Metrics.off_line], or the medians of the
    per-layer metrics of a traced run. *)
let line_metrics (r : Harness.result) =
  if r.Harness.traced then
    List.map (fun (n, (s : Stats.summary)) -> (n, s.Stats.median)) r.Harness.layers
  else
    List.filter_map
      (fun (n, (s : Stats.summary)) ->
        if List.mem n Metrics.off_line then None else Some (n, s.Stats.median))
      r.Harness.e2e

(** The same from a workload's entry in a summaries file, under
    workload-qualified names ("q1-included/audit_s"): the last line of
    a run of every workload. *)
let qualified_line_metrics ~traced (workload, j) =
  let key = if traced then "layers" else "metrics" in
  match Json.member key j with
  | Some (Json.Obj ms) ->
    List.filter_map
      (fun (n, s) ->
        if (not traced) && List.mem n Metrics.off_line then None
        else Some (workload ^ "/" ^ n, (summary_of_json s).Stats.median))
      ms
  | _ -> []

type row = {
  workload : string;
  def : Metrics.def;
  base : Stats.summary;
  next : Stats.summary;
  verdict : Stats.verdict;
}

(** The gap between the machine speeds of two runs, as a share of the
    faster. Scaling to reference speed corrects most of it but not all:
    a stage and the reference slow down by different shares (by 1.2 and
    1.5 times in one case), so a gap beyond a bound leaves the scaled
    times unresolved. *)
let speed_gap a b = Float.abs (a -. b) /. Float.max a b

(** Every (workload, end-to-end metric) present in both files. Files of
    different seeds hold different inputs, so they are refused. *)
let compare (base_seed, base) (next_seed, next) : row list =
  if base_seed <> next_seed then
    invalid_arg
      (Printf.sprintf "compare: the files have different seeds (%d and %d)"
         base_seed next_seed);
  List.concat_map
    (fun (workload, bw) ->
      match List.assoc_opt workload next with
      | None -> []
      | Some nw ->
        let bm = bw.metrics and nm = nw.metrics in
        let gap = speed_gap bw.speed nw.speed in
        List.filter_map
          (fun (def : Metrics.def) ->
            match
              (List.assoc_opt def.Metrics.name bm, List.assoc_opt def.Metrics.name nm)
            with
            | Some a, Some b ->
              Some
                { workload;
                  def;
                  base = a;
                  next = b;
                  verdict =
                    Stats.verdict
                      ~noise:(if def.Metrics.scaled then gap else 0.0)
                      ~lower_is_better:def.Metrics.lower_is_better ~bound:def.Metrics.bound a b }
            | _ -> None)
          Metrics.end_to_end)
    base

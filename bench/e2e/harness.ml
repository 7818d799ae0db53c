(* One workload run: set-up, a warm-up iteration whose timings are
   dropped, then measured iterations of the whole pipeline until
   [--seconds] have passed —
   audit → package build + encode → decode + prepare → replay → verify.

   A traced run alternates untraced and traced iterations. The untraced
   ones give the end-to-end metrics and the baseline for the tracing
   overhead. The run ends on a traced iteration, which is followed by
   probes: they measure layers reachable only inside another call by
   calling them again on that iteration's inputs, under their own
   [probe.*] root spans. Probing only at the end keeps the heap the
   probes grow from slowing the iterations that are measured. *)

open Ldv_core
module I = Dbclient.Interceptor
module W = Workloads

let now = Clock.now

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Reference times (see [Speed]) taken during the current iteration. *)
let reference_times = ref []
let time_reference () = reference_times := Speed.time () :: !reference_times

(* A timed stage: stopwatch outside, span inside, so a traced stage's
   time includes what its spans cost. Each stage starts from a collected
   heap, as it would in a process of its own; otherwise the garbage of
   the stages before it decides how much collector work it pays for.
   The reference is timed before each stage, so the iteration's speed
   is sampled across its whole length. *)
let stage ?(compact = true) name f =
  if compact then Gc.compact ();
  time_reference ();
  let t0 = now () in
  let x = Spans.with_span name f in
  (x, now () -. t0)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let us xs = 1e6 *. mean xs

(* Measured time per run, unless [--seconds] says otherwise; the same
   value is [run_seconds] in BENCHMARK.json. *)
let run_seconds = 20.0

(* Measured iterations that run even past [--seconds]. *)
let min_iters = 5

(* Set-up repetitions per run (one with [--quick]). *)
let setup_reps = 5

let pipeline_stages =
  [ "audit"; "package"; "replay.init"; "replay.run"; "replay.verify" ]

type iteration = {
  traced : bool;
  speed : float;  (** [Speed.factor] of the iteration *)
  e2e : (string * float) list;  (** times at reference speed *)
  layers : (string * float) list;  (** traced iterations only *)
  audit_calls : Apps.recorder;
  attempted : int;
  failed : int;
  problems : string list;
}

type ctx = { w : W.t; fx : W.fixture; progs : W.programs }

(* ------------------------------------------------------------------ *)
(* Cluster counters: WAL records and fsync barriers over every durable
   handle (leader and replicas), and frames shipped.                   *)

let cluster_counters (e : W.env) =
  match e.W.cluster with
  | None -> (0, 0, 0)
  | Some cl ->
    let durables =
      Dbclient.Replication.leader cl
      :: List.map
           (fun (r : Dbclient.Replication.replica) -> r.Dbclient.Replication.rep_durable)
           (Array.to_list cl.Dbclient.Replication.replicas)
    in
    let sum f = List.fold_left (fun acc d -> acc + f d) 0 durables in
    ( sum (fun d -> Dbclient.Durable.next_seq d - 1),
      sum Dbclient.Durable.fsync_barriers,
      Dbclient.Replication.ship_seq cl )

(* The durable and replication layers over one audit; all 0 without a
   cluster. *)
let cluster_layers (wal0, sync0, ship0) (e : W.env) ~writes (audit : Audit.t) =
  let wal1, sync1, ship1 = cluster_counters e in
  let reads =
    List.filter (fun (s : I.stmt_event) -> s.I.kind = I.Squery) (Audit.stmts audit)
  in
  let served = List.filter (fun (s : I.stmt_event) -> s.I.replica >= 0) reads in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  [ ("wal.records", float_of_int (wal1 - wal0));
    ("wal.fsync_barriers", float_of_int (sync1 - sync0));
    ("wal.barriers_per_write", ratio (sync1 - sync0) writes);
    ("repl.frames_shipped", float_of_int (ship1 - ship0));
    ("repl.replica_read_frac", ratio (List.length served) (List.length reads));
    ("repl.max_lag", float_of_int !Apps.max_lag) ]

let max_replica_lag cl () =
  let ship = Dbclient.Replication.ship_seq cl in
  let lag = ref 0 in
  for i = 0 to Dbclient.Replication.replica_count cl - 1 do
    lag := max !lag (ship - Dbclient.Replication.replica_applied cl i)
  done;
  !lag

(* ------------------------------------------------------------------ *)
(* Probes.                                                             *)

(* Probes measure their layer on every workload, also where the pipeline
   bypasses it (server-excluded): there they show what the layer would
   cost, and the span table shows that the pipeline does not pay it. *)

(* minidb and perm: re-issue the audited statement stream, in global
   order, on a fresh copy of the fixture, timing parse / plan / execute,
   lineage capture and update reenactment. *)
let probe_reissue ctx (stmts : I.stmt_event list) =
  let db = W.fresh_db ctx.fx in
  let parse = ref [] and plan = ref [] and select = ref [] and write = ref [] in
  let lineage = ref [] and reenact = ref [] and tuples = ref 0 in
  List.iter
    (fun (s : I.stmt_event) ->
      let ast, dt = timed (fun () -> Minidb.Sql_parser.parse s.I.sql) in
      parse := dt :: !parse;
      match ast with
      | Minidb.Sql_ast.Select q ->
        let _, p = timed (fun () -> Minidb.Database.plan db q) in
        let _, total = timed (fun () -> Minidb.Database.run_select db q) in
        plan := p :: !plan;
        select := (total -. p) :: !select;
        (* the first execution after writes also pays deferred index
           maintenance; the lineage query is judged against a second one *)
        let _, plain = timed (fun () -> Minidb.Database.run_select db q) in
        let prov, l =
          timed (fun () -> Perm.Provenance_sql.query_lineage db s.I.sql)
        in
        lineage := (l -. plain) :: !lineage;
        tuples :=
          !tuples
          + Minidb.Tid.Set.cardinal (Perm.Provenance_sql.total_lineage prov)
      | _ ->
        (match ast with
        | Minidb.Sql_ast.Update _ | Minidb.Sql_ast.Delete _ ->
          let _, r = timed (fun () -> Perm.Reenact.capture db ast) in
          reenact := r :: !reenact
        | _ -> ());
        let _, dt = timed (fun () -> Minidb.Database.exec_ast db ast) in
        write := dt :: !write)
    stmts;
  [ ("minidb.parse_us", us !parse);
    ("minidb.plan_us", us !plan);
    ("minidb.exec_select_us", us !select);
    ("minidb.exec_write_us", us !write);
    ("perm.lineage_us", us !lineage);
    ("perm.reenact_us", us !reenact);
    ("perm.lineage_tuples", float_of_int !tuples) ]

(* dbclient.server: one traced start + stop on a fresh copy. *)
let probe_server ctx =
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel (W.fresh_db ctx.fx) in
  let _, dt =
    timed (fun () ->
        ignore (Dbclient.Server.start_traced kernel server);
        Dbclient.Server.stop_traced kernel server)
  in
  let vfs = Minios.Kernel.vfs kernel in
  let bytes =
    List.fold_left
      (fun acc p -> acc + Minios.Vfs.size vfs p)
      0
      (Minios.Vfs.paths_under vfs (Dbclient.Server.data_dir server))
  in
  [ ("server.lifecycle_s", dt); ("server.data_dir_bytes", float_of_int bytes) ]

(* prov: rebuild the combined and the compact trace from the audit's
   own syscall stream and statement log. *)
let probe_prov (audit : Audit.t) =
  let _, build =
    timed (fun () -> Audit.build_trace audit.Audit.tracer (Audit.stmts audit))
  in
  let _, compact = timed (fun () -> Audit.compact_trace audit) in
  [ ("prov.build_trace_s", build);
    ("prov.compact_trace_s", compact);
    ("prov.trace_nodes", float_of_int (Prov.Trace.node_count audit.Audit.trace));
    ("prov.trace_edges", float_of_int (Prov.Trace.edge_count audit.Audit.trace));
    ( "minios.os_events",
      float_of_int (Minios.Tracer.event_count audit.Audit.tracer) ) ]

(* ldv_core.slice: the relevant set and its CSV materialization; also
   cross-checks the lineage table against a walk of the trace. *)
let probe_slice (audit : Audit.t) ~problem =
  let rel, t_rel = timed (fun () -> Slice.relevant audit) in
  let db = Dbclient.Server.db audit.Audit.server in
  let csvs, t_csv = timed (fun () -> Slice.to_csvs db rel) in
  if not (Minidb.Tid.Set.equal rel (Slice.relevant_via_trace audit.Audit.trace))
  then problem "Slice.relevant differs from Slice.relevant_via_trace";
  let catalog = Minidb.Database.catalog db in
  let live =
    List.fold_left
      (fun acc t ->
        match Minidb.Catalog.find_opt catalog t with
        | Some tbl -> acc + Minidb.Table.row_count tbl
        | None -> acc)
      0
      (Slice.accessed_tables audit rel)
  in
  let n = Minidb.Tid.Set.cardinal rel in
  [ ("slice.relevant_s", t_rel);
    ("slice.to_csvs_s", t_csv);
    ("slice.tuples", float_of_int n);
    ("slice.csv_bytes", float_of_int (Slice.subset_bytes_of_csvs csvs));
    ("slice.keep_ratio", float_of_int n /. float_of_int (max 1 live)) ]

(* Whether decoding gave back the package that was encoded. Decoding
   regroups file entries by kind, so entries compare as a set. *)
let same_package (a : Package.t) (b : Package.t) =
  let entries (p : Package.t) =
    List.sort compare
      (List.map (fun (e : Package.entry) -> (e.Package.e_path, e.Package.e_content)) p.Package.entries)
  in
  a.Package.kind = b.Package.kind
  && a.Package.app_name = b.Package.app_name
  && a.Package.app_binary = b.Package.app_binary
  && entries a = entries b
  && a.Package.db_subset = b.Package.db_subset
  && a.Package.db_schemas = b.Package.db_schemas
  && String.equal
       (Dbclient.Recorder.encode a.Package.recording)
       (Dbclient.Recorder.encode b.Package.recording)
  && String.equal a.Package.trace_data b.Package.trace_data
  && a.Package.metadata = b.Package.metadata

let restored_tuples (pkg : Package.t) =
  List.fold_left
    (fun acc (_, csv) -> acc + List.length (Minidb.Csv.decode_versions csv))
    0 pkg.Package.db_subset

(* ------------------------------------------------------------------ *)
(* One iteration.                                                      *)

let span_dur spans name =
  List.fold_left
    (fun acc (s : Spans.span) -> if s.Spans.name = name then acc +. Spans.dur s else acc)
    0.0 spans

(* The probes on one traced iteration's inputs, with the problems they
   found. *)
let probes ctx (audit : Audit.t) (pkg : Package.t) ~prepare_s =
  let problems = ref [] in
  let problem m = problems := m :: !problems in
  let probe name f = Spans.with_span ("probe." ^ name) f in
  Spans.on := true;
  let metrics =
    Fun.protect ~finally:(fun () -> Spans.on := false) @@ fun () ->
    let reissue = probe "minidb" (fun () -> probe_reissue ctx (Audit.stmts audit)) in
    let server = probe "server" (fun () -> probe_server ctx) in
    let prov = probe "prov" (fun () -> probe_prov audit) in
    let slice = probe "slice" (fun () -> probe_slice audit ~problem) in
    let restored = probe "replay" (fun () -> restored_tuples pkg) in
    reissue @ server @ prov @ slice
    @ [ ( "replay.restore_tuples_per_s",
          if prepare_s > 0.0 then float_of_int restored /. prepare_s else 0.0 ) ]
  in
  (metrics, List.rev !problems)

(* One iteration, and for a traced one the probes on its inputs, to run
   when no measured iteration follows. *)
let iteration ctx ~traced =
  incr Spans.iteration;
  let problems = ref [] in
  let problem m = problems := m :: !problems in
  let native_calls = Apps.recorder () in
  let audit_calls = Apps.recorder () in
  let replay_calls = Apps.recorder () in
  reference_times := [];
  Spans.on := traced;
  let run () =
    Spans.with_span "iteration" @@ fun () ->
    let native_env = W.deploy ctx.w ctx.fx ctx.progs in
    Apps.sink := native_calls;
    let (), native_s =
      stage "native" (fun () -> W.run_native ctx.progs native_env)
    in
    let env = W.deploy ctx.w ctx.fx ctx.progs in
    let counters = cluster_counters env in
    Apps.sink := audit_calls;
    Apps.max_lag := 0;
    if traced then Apps.lag_probe := Option.map max_replica_lag env.W.cluster;
    let audit, audit_s =
      Fun.protect
        ~finally:(fun () -> Apps.lag_probe := None)
        (fun () -> stage "audit" (fun () -> W.run_audit ctx.w ctx.progs env))
    in
    let env_layers =
      cluster_layers counters env ~writes:(List.length (Apps.writes audit_calls)) audit
    in
    let (pkg, bytes), package_s =
      stage "package" (fun () ->
          let pkg = Spans.with_span "package.build" (fun () -> Package.build audit) in
          (pkg, Spans.with_span "package.encode" (fun () -> Package.to_bytes pkg)))
    in
    let prepared, init_s =
      stage "replay.init" (fun () ->
          let pkg = Spans.with_span "package.decode" (fun () -> Package.of_bytes bytes) in
          Spans.with_span "replay.prepare" (fun () -> Replay.prepare pkg))
    in
    Apps.sink := replay_calls;
    let result, run_s = stage "replay.run" (fun () -> Replay.run prepared) in
    let divergences, verify_s =
      stage ~compact:false "replay.verify" (fun () -> Replay.verify ~audit result)
    in
    time_reference ();
    List.iter problem divergences;
    if not (same_package prepared.Replay.pkg pkg) then
      problem "package does not survive an encode/decode round trip";
    let pipeline_s = audit_s +. package_s +. init_s +. run_s +. verify_s in
    let speed = Speed.factor !reference_times in
    ( audit,
      pkg,
      env_layers,
      pipeline_s,
      speed,
      [ ("native_s", speed *. native_s);
        ("audit_s", speed *. audit_s);
        ("package_s", speed *. package_s);
        ("replay_init_s", speed *. init_s);
        ("replay_run_s", speed *. run_s);
        ("pipeline_s", speed *. pipeline_s);
        ("pkg_bytes", float_of_int (String.length bytes)) ] )
  in
  let outcome = try Ok (run ()) with e -> Error (Printexc.to_string e) in
  Spans.on := false;
  let layers, probe =
    match outcome with
    | Ok (audit, pkg, env_layers, pipeline_s, _, e2e) when traced ->
      let it = !Spans.iteration in
      let spans =
        List.filter (fun (s : Spans.span) -> s.Spans.iter = it) !Spans.recorded
      in
      let self = Spans.self_times spans in
      let stage_roots =
        List.filter (fun (s : Spans.span) -> List.mem s.Spans.name pipeline_stages) spans
      in
      let self_sum =
        List.fold_left
          (fun acc s -> acc +. Spans.self_of self s)
          0.0
          (Spans.subtrees spans stage_roots)
      in
      if Float.abs (self_sum -. pipeline_s) > 0.02 *. pipeline_s then
        problem
          (Printf.sprintf "span self times add to %.4fs but pipeline_s is %.4fs"
             self_sum pipeline_s);
      let audit_self =
        List.fold_left
          (fun acc (s : Spans.span) ->
            if s.Spans.name = "audit" then acc +. Spans.self_of self s else acc)
          0.0 spans
      in
      let n_stmts = Apps.stmts audit_calls in
      let client_time r =
        List.fold_left ( +. ) 0.0 (r.Apps.selects @ Apps.writes r)
      in
      let prepare_s = span_dur spans "replay.prepare" in
      ( [ ("client.insert_us", us audit_calls.Apps.inserts);
          ("client.update_us", us audit_calls.Apps.updates);
          ("client.select_us", us audit_calls.Apps.selects);
          ("client.stmts", float_of_int n_stmts);
          ( "interceptor.audit_overhead_us",
            1e6
            *. (client_time audit_calls -. client_time native_calls)
            /. float_of_int (max 1 n_stmts) );
          ("audit.fixed_s", audit_self);
          ("package.build_s", span_dur spans "package.build");
          ("package.encode_s", span_dur spans "package.encode");
          ("package.decode_s", span_dur spans "package.decode");
          ("package.subset_bytes", float_of_int (Package.db_subset_bytes pkg));
          ("package.recording_bytes", float_of_int (Package.recording_bytes pkg));
          ("package.trace_bytes", float_of_int (Package.trace_bytes pkg));
          ("package.paper_bytes", float_of_int (Package.total_bytes pkg));
          ("package.wire_bytes", List.assoc "pkg_bytes" e2e);
          ("replay.prepare_s", prepare_s);
          ("replay.client_select_us", us replay_calls.Apps.selects);
          ("replay.client_write_us", us (Apps.writes replay_calls));
          ("replay.verify_s", span_dur spans "replay.verify");
          ("minios.file_io_us", us audit_calls.Apps.file_io) ]
        @ env_layers,
        Some (fun () -> probes ctx audit pkg ~prepare_s) )
    | _ -> ([], None)
  in
  let all_calls = [ native_calls; audit_calls; replay_calls ] in
  let stmt_count = List.fold_left (fun acc r -> acc + Apps.stmts r) 0 all_calls in
  let stmt_failed = List.fold_left (fun acc r -> acc + r.Apps.failed) 0 all_calls in
  (match outcome with Error m -> problem ("iteration raised: " ^ m) | Ok _ -> ());
  ( { traced;
      speed = (match outcome with Ok (_, _, _, _, speed, _) -> speed | Error _ -> Float.nan);
      e2e = (match outcome with Ok (_, _, _, _, _, e2e) -> e2e | Error _ -> []);
      layers;
      audit_calls;
      attempted = stmt_count + 1;
      failed = stmt_failed + (if !problems = [] then 0 else 1);
      problems = List.rev !problems },
    probe )

(* ------------------------------------------------------------------ *)
(* A whole run and its summaries.                                      *)

type result = {
  workload : string;
  seed : int;
  traced : bool;
  iterations : int;  (** measured iterations, traced ones included *)
  attempted : int;
  failed : int;
  speed : float;  (** median [Speed.factor] of the measured iterations *)
  read_tail_p : int;  (** which percentile [read_tail_us] is *)
  write_tail_p : int;  (** which percentile [write_tail_us] is *)
  e2e : (string * Stats.summary) list;
  layers : (string * Stats.summary) list;
  problems : string list;
  spans : Spans.span list;
}

(* A latency metric in microseconds: percentile [p] of the samples of
   every measured iteration pooled, over [n] samples. Its quartiles are
   those of the same percentile taken per iteration: how much it moves
   from one iteration to the next. *)
let latency_summary ~p (per_iter : float list list) : Stats.summary =
  let per =
    List.filter_map
      (fun xs ->
        if xs = [] then None else Some (1e6 *. Stats.percentile (Stats.sorted xs) p))
      per_iter
  in
  let pooled = Stats.sorted (List.concat per_iter) in
  { (Stats.summarize per) with
    Stats.median = 1e6 *. Stats.percentile pooled p;
    n = Array.length pooled }

(* The tail percentile of a latency metric with [per_iter] samples an
   iteration: the highest candidate with ten samples beyond it among the
   samples the fewest measured iterations of a run pool, so it is the
   same whatever number of iterations fits into [--seconds]. *)
let tail_of ~iterations per_iter =
  Option.value ~default:50 (Stats.tail_percentile (iterations * per_iter))

let summarize_keys keys (rows : (string * float) list list) =
  List.map (fun k -> (k, Stats.summarize (List.filter_map (List.assoc_opt k) rows))) keys

let run ?(quick = false) (w : W.t) ~seed ~seconds ~trace : result =
  Spans.reset ();
  Spans.iteration := 0;
  let w = if quick then W.quick w else w in
  (* Set-up runs before the warm-up and again after each of the first
     measured iterations, so that its samples spread over the run like
     the iterations' do: slow phases of the machine last seconds, and
     back-to-back repetitions would all fall into the same one. *)
  let setup_times = ref [] in
  let setup () =
    Gc.compact ();
    let before = Speed.time () in
    let fx, dt = timed (fun () -> W.load w ~seed) in
    setup_times := (dt *. Speed.factor [ before; Speed.time () ]) :: !setup_times;
    fx
  in
  let setups = if quick then 1 else setup_reps in
  let fx = setup () in
  let ctx = { w; fx; progs = W.programs w ~seed fx } in
  (* the warm-up's timings are dropped, its checks count *)
  let warm_up = if quick then [] else [ fst (iteration ctx ~traced:false) ] in
  let t0 = now () in
  let guaranteed = if quick then 1 else min_iters in
  (* three untraced and three traced iterations carry the per-layer
     medians, which have no bound *)
  let needed =
    match (quick, trace) with
    | true, _ -> if trace then 2 else 1
    | false, true -> 6
    | false, false -> min_iters
  in
  (* Peak heap is read once the set-ups and the fewest measured
     iterations of a run are done. The collector paces itself by
     allocation, so the value is exact for a seed, whatever number of
     iterations fits into [--seconds]. *)
  let heap_words = ref 0 in
  let pending_probe = ref None in
  let rec loop k acc =
    let done_ = k >= needed && (quick || now () -. t0 >= seconds) in
    if done_ && ((not trace) || k mod 2 = 0) then List.rev acc
    else begin
      (* drop the previous traced iteration's inputs before measuring *)
      pending_probe := None;
      let it, probe = iteration ctx ~traced:(trace && k mod 2 = 1) in
      pending_probe := probe;
      if List.length !setup_times < setups then ignore (setup ());
      if k + 1 = guaranteed then heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
      loop (k + 1) (it :: acc)
    end
  in
  let iters = loop 0 [] in
  let probe_layers, probe_problems =
    match !pending_probe with Some p -> p () | None -> ([], [])
  in
  pending_probe := None;
  let untraced = List.filter (fun (i : iteration) -> not i.traced) iters in
  let traced = List.filter (fun (i : iteration) -> i.traced) iters in
  let checked = warm_up @ iters in
  let attempted = List.fold_left (fun acc (i : iteration) -> acc + i.attempted) 0 checked in
  let failed =
    List.fold_left (fun acc (i : iteration) -> acc + i.failed) 0 checked
    + if probe_problems = [] then 0 else 1
  in
  let read_tail_p = tail_of ~iterations:guaranteed (W.reads_per_iter w) in
  let write_tail_p = tail_of ~iterations:guaranteed (W.writes_per_iter w) in
  let at_speed (i : iteration) = List.map (( *. ) i.speed) in
  let reads = List.map (fun i -> at_speed i i.audit_calls.Apps.selects) untraced in
  let writes = List.map (fun i -> at_speed i (Apps.writes i.audit_calls)) untraced in
  let timed_keys =
    [ "audit_s"; "native_s"; "package_s"; "replay_init_s"; "replay_run_s";
      "pipeline_s"; "pkg_bytes" ]
  in
  let one x = { Stats.median = x; q1 = x; q3 = x; n = 1 } in
  let e2e =
    (("setup_s", Stats.summarize !setup_times)
     :: summarize_keys timed_keys (List.map (fun (i : iteration) -> i.e2e) untraced))
    @ [ ("read_p50_us", latency_summary ~p:50 reads);
        ("read_tail_us", latency_summary ~p:read_tail_p reads);
        ("write_p50_us", latency_summary ~p:50 writes);
        ("write_tail_us", latency_summary ~p:write_tail_p writes);
        ("peak_heap_mb", one (float_of_int (!heap_words * (Sys.word_size / 8)) /. 1e6));
        ( "failed_frac",
          one (float_of_int failed /. float_of_int (max 1 attempted)) ) ]
  in
  let layers =
    if not trace then []
    else
      let audit_median is =
        (Stats.summarize
           (List.filter_map (fun (i : iteration) -> List.assoc_opt "audit_s" i.e2e) is))
          .Stats.median
      in
      summarize_keys
        (List.filter (fun k -> k <> "trace.overhead_frac") (List.map fst Metrics.per_layer))
        (probe_layers :: List.map (fun (i : iteration) -> i.layers) traced)
      @ [ ( "trace.overhead_frac",
            one ((audit_median traced /. audit_median untraced) -. 1.0) ) ]
  in
  { workload = w.W.name;
    seed;
    traced = trace;
    iterations = List.length iters;
    speed =
      (Stats.summarize (List.map (fun (i : iteration) -> i.speed) iters)).Stats.median;
    attempted;
    failed;
    read_tail_p;
    write_tail_p;
    e2e;
    layers;
    problems = List.concat_map (fun (i : iteration) -> i.problems) checked @ probe_problems;
    spans = List.rev !Spans.recorded }

let correct r = r.failed = 0 && r.problems = []

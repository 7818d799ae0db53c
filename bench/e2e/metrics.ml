(* Metric definitions. [compare] judges every end-to-end metric of two
   runs of one seed, median against median, by the bound given here.
   BENCHMARK.json holds the medians over ten seeds to 25% for times:
   between runs, the speed of a shared machine moves them by more than
   10% even at reference speed (see README.md). *)

type def = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float;  (** regression bound as a share of the base median *)
  scaled : bool;  (** a time at reference speed (see [Speed]) *)
}

let time name = { name; unit_ = "s"; lower_is_better = true; bound = 0.10; scaled = true }

let latency name =
  { name; unit_ = "us"; lower_is_better = true; bound = 0.10; scaled = true }

let end_to_end =
  [ time "setup_s";
    time "audit_s";
    time "native_s";
    time "package_s";
    time "replay_init_s";
    time "replay_run_s";
    time "pipeline_s";
    { name = "pkg_bytes"; unit_ = "B"; lower_is_better = true; bound = 0.005; scaled = false };
    latency "read_p50_us";
    latency "read_tail_us";
    latency "write_p50_us";
    latency "write_tail_us";
    { name = "peak_heap_mb"; unit_ = "MB"; lower_is_better = true; bound = 0.10; scaled = false };
    { name = "failed_frac"; unit_ = "ratio"; lower_is_better = true; bound = 0.0; scaled = false } ]

let find name = List.find (fun d -> d.name = name) end_to_end

(** End-to-end metrics that a run's last line leaves out; the line
    carries the others, the [end_to_end] list of BENCHMARK.json, which
    tooling compares over ten seeds. [failed_frac] is carried by the
    line's [attempted]/[failed] counts, because its healthy value is 0.
    The others do not repeat over ten seeds within a bound that still
    means something, so they are not tracked there; runs still print
    them and [compare], which requires one seed on both sides, still
    judges them. [pkg_bytes] is exact for a seed but differs by 0.4-4%
    between seeds, which pick the data; traced runs report it as
    [package.wire_bytes]. The tails of statement latencies spread by
    7-32% over ten seeds: collector pauses and short bursts of
    contention land in them. *)
let off_line = [ "pkg_bytes"; "read_tail_us"; "write_tail_us"; "failed_frac" ]

(** Per-layer metrics of the traced run, with their units. Every traced
    run reports all of them; a layer the workload bypasses reads 0. *)
let per_layer =
  [ ("client.insert_us", "us");
    ("client.update_us", "us");
    ("client.select_us", "us");
    ("client.stmts", "count");
    ("interceptor.audit_overhead_us", "us");
    ("minidb.parse_us", "us");
    ("minidb.plan_us", "us");
    ("minidb.exec_select_us", "us");
    ("minidb.exec_write_us", "us");
    ("perm.lineage_us", "us");
    ("perm.reenact_us", "us");
    ("perm.lineage_tuples", "count");
    ("server.lifecycle_s", "s");
    ("server.data_dir_bytes", "B");
    ("audit.fixed_s", "s");
    ("prov.build_trace_s", "s");
    ("prov.compact_trace_s", "s");
    ("prov.trace_nodes", "count");
    ("prov.trace_edges", "count");
    ("minios.os_events", "count");
    ("slice.relevant_s", "s");
    ("slice.to_csvs_s", "s");
    ("slice.tuples", "count");
    ("slice.csv_bytes", "B");
    ("slice.keep_ratio", "ratio");
    ("package.build_s", "s");
    ("package.encode_s", "s");
    ("package.decode_s", "s");
    ("package.subset_bytes", "B");
    ("package.recording_bytes", "B");
    ("package.trace_bytes", "B");
    ("package.paper_bytes", "B");
    ("package.wire_bytes", "B");
    ("replay.prepare_s", "s");
    ("replay.restore_tuples_per_s", "1/s");
    ("replay.client_select_us", "us");
    ("replay.client_write_us", "us");
    ("replay.verify_s", "s");
    ("wal.records", "count");
    ("wal.fsync_barriers", "count");
    ("wal.barriers_per_write", "ratio");
    ("repl.frames_shipped", "count");
    ("repl.replica_read_frac", "ratio");
    ("repl.max_lag", "count");
    ("minios.file_io_us", "us");
    ("trace.overhead_frac", "ratio") ]

(** Unit of a metric, also of a workload-qualified name
    ("q1-included/audit_s"). *)
let unit_of name =
  let name =
    match String.rindex_opt name '/' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  match List.assoc_opt name per_layer with
  | Some u -> u
  | None -> (find name).unit_

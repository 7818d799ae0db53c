(** Critical-path and self/total-time analysis over collected span forests.

    [Ldv_obs] answers "what happened"; this module answers "where did the
    time go". It reconstructs the span forest of a snapshot (in-memory or
    re-read from exported JSONL), attributes each span's {e self} time
    (total minus the time spent in its children), extracts the
    {e critical path} of each root (the chain of heaviest children, with
    per-step cost attribution that telescopes exactly to the root's
    duration), renders collapsed-stack output consumable by flamegraph.pl
    and speedscope, overlays span timings and their provenance-node
    correlations onto a [Prov.Dot]-style graphviz rendering, and diffs two
    runs per span name for the [ldv obs diff] regression gate. *)

(** One span placed in the reconstructed forest. *)
type node = {
  n_span : Obs_types.span;
  n_children : node list;  (** in span-id order *)
  n_total : float;  (** the span's own duration, clamped at 0 *)
  n_self : float;  (** [n_total] minus the children's totals, clamped at 0 *)
}

type t = {
  forest : node list;  (** root spans in completion order *)
  orphans : int;
      (** spans whose parent is not in the snapshot (evicted from the
          ring, or an escaped/unbalanced finish); they are promoted to
          roots *)
  wall : float;  (** sum of root totals *)
}

val of_snapshot : Obs_types.snapshot -> t

(* ------------------------------------------------------------------ *)
(* Self/total aggregation.                                             *)

(** Per-span-name aggregate over the whole forest. *)
type row = {
  r_name : string;
  r_count : int;
  r_total : float;
  r_self : float;
  r_max : float;  (** largest single total *)
}

(** Aggregated rows, heaviest self time first. *)
val rows : t -> row list

(* ------------------------------------------------------------------ *)
(* Critical path.                                                      *)

(** One step of a critical path. [st_step] is the time attributable to
    this step alone: the span's total minus the total of the (heaviest)
    child the path descends into — i.e. its self time plus its
    non-critical children. Step costs telescope: their sum over a path
    equals the root span's duration up to float associativity. *)
type step = {
  st_span : Obs_types.span;
  st_total : float;
  st_self : float;
  st_step : float;
}

(** The chain of heaviest children starting at [node]. *)
val critical_path : node -> step list

(** One critical path per root, in forest order. *)
val critical_paths : t -> (node * step list) list

(* ------------------------------------------------------------------ *)
(* Export formats.                                                     *)

(** Collapsed-stack output ("root;child;leaf <self-µs>" per line, sorted,
    identical stacks merged) — the input format of flamegraph.pl and
    speedscope. Frames with zero rounded self time are omitted. *)
val to_collapsed : t -> string

(** Graphviz rendering of the span forest in the visual vocabulary of
    [Prov.Dot]: spans are boxes colored by self-time heat and labelled
    with self/total timings, parent→child edges carry the [b .. e]
    interval, and every [prov.*] span attribute materializes the named
    provenance node (proc:PID / stmt:QID / file:PATH, shaped and colored
    as in the trace-graph rendering) with a dashed gray correlation
    edge — the span timing overlay for a provenance trace graph. *)
val to_dot : t -> string

(* ------------------------------------------------------------------ *)
(* Run-to-run diff (the regression gate).                              *)

(** Per-span-name comparison of two runs. [d_p95_*] come from the
    [span:<name>] duration histograms when the snapshots carry them
    (NaN otherwise). *)
type diff_row = {
  d_name : string;
  d_count_a : int;
  d_count_b : int;
  d_total_a : float;
  d_total_b : float;
  d_p95_a : float;
  d_p95_b : float;
}

(** Change of the total, in percent of run [a]'s total ([infinity] for a
    span new in [b], [neg_infinity] for one that disappeared, 0 when both
    are absent/zero). *)
val delta_pct : diff_row -> float

(** True when the row's total grew beyond [budget_pct] percent (new spans
    with measurable time count as regressions; sub-microsecond jitter is
    ignored). *)
val regressed : budget_pct:float -> diff_row -> bool

(** Rows for every span name in either snapshot, sorted by decreasing
    total delta. Span names whose ring entries were evicted but whose
    [span:<name>] histograms survived are still compared (using the
    histogram's count and sum), so a span present in only one run is
    reported as added/removed rather than silently skipped. *)
val diff : Obs_types.snapshot -> Obs_types.snapshot -> diff_row list

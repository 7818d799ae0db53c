(** The loaded-trace model and the analyses over it.

    [Ldv_obs] answers "what happened"; this module answers "where did the
    time go". It builds the one model of a snapshot (in-memory or re-read
    from exported JSONL) that every trace reader projects from: the span
    forest with each span's {e self} time (total minus the time spent in
    its children) and trace identity, per-name and per-session rows, and
    the ledger's per-phase sums. It extracts the {e critical path} of each
    root (the chain of heaviest children, with per-step cost attribution
    that telescopes exactly to the root's duration), renders
    collapsed-stack output (flamegraph.pl, speedscope) and a
    [Prov.Dot]-style graphviz overlay of span timings and their
    provenance-node correlations, and diffs two runs per span name for
    the [ldv obs diff] regression gate. *)

(** One span placed in the reconstructed forest. *)
type node = {
  n_span : Obs_types.span;
  n_children : node list;  (** in span-id order *)
  n_total : float;  (** the span's own duration, clamped at 0 *)
  n_self : float;  (** [n_total] minus the children's totals, clamped at 0 *)
  n_session : int;  (** [trace.session]; -1 when the span carries none *)
  n_trace : int;  (** [trace.id]; -1 when absent *)
  n_stmt : int;  (** [trace.stmt]; -1 when absent *)
  n_repl_node : int;  (** [repl.node]; -1 when absent *)
}

(** The spans of one name, across the run or within one session. *)
type row = {
  r_name : string;
  r_nodes : node list;  (** completion order *)
  r_count : int;
  r_total : float;
  r_self : float;
  r_max : float;  (** largest single total *)
  r_hist : Histogram.t;  (** the totals *)
}

(** One phase of the overhead ledger ({!Ledger}): the count and summed
    seconds of its [ledger:<phase>] histogram (0 when absent), or of
    [ledger:other], the unattributed remainder. *)
type phase_sum = {
  p_name : string;
  p_audit : bool;  (** an audit-attributable phase ({!Ledger.is_audit_phase}) *)
  p_count : int;
  p_sum : float;
}

type t = {
  snap : Obs_types.snapshot;  (** what the model was built from *)
  forest : node list;  (** root spans in completion order *)
  orphans : int;
      (** spans whose parent is not in the snapshot (evicted from the
          ring, or never closed), or started after them (a hand-edited
          trace); they are promoted to roots *)
  wall : float;  (** sum of root totals *)
  names : row list;  (** one per span name, in first completion order *)
  sessions : (int * row list) list;
      (** per [trace.session] value (-1 gathers the spans without one),
          in {!compare_session} order: its rows, sorted by name *)
  span_hists : (string * Histogram.summary) list;
      (** the per-name duration histograms the collector keeps beside the
          ring ([span:<name>], so they survive eviction), keyed by span
          name *)
  metric_hists : (string * Histogram.summary) list;
      (** every other histogram, by name *)
  ledger : (Histogram.summary * phase_sum list) option;
      (** [ledger:stmt] (one sample per statement) and every phase, in
          {!Ledger.phases} order then "other"; [None] without
          [ledger:stmt] *)
}

(** The one function that builds the model. *)
val of_snapshot : Obs_types.snapshot -> t

(** The [span:<name>] histogram of span [name], if the snapshot has it. *)
val span_hist : t -> string -> Histogram.summary option

(** The row of [name], if any. *)
val find : row list -> string -> row option

(** The nodes of [name]'s row, none without one. *)
val nodes : row list -> string -> node list

(** The earliest start and the latest end of [nodes]. *)
val extent : node list -> float * float

(** An integer attribute of the span (an id); -1 when absent or not a
    number. *)
val int_attr : Obs_types.span -> string -> int

(** [nodes] split by [key]: groups in first-seen order, each holding its
    nodes in their input order. *)
val group_by : (node -> 'k) -> node list -> ('k * node list) list

(** Session ids in numeric order, the unattributed (-1) last. *)
val compare_session : int -> int -> int

(** A decoded id as the reports print it: "-" for one the span does not
    carry (-1). *)
val id_label : int -> string

(* ------------------------------------------------------------------ *)
(* Self/total aggregation.                                             *)

(** The per-name rows, heaviest self time first. *)
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

(** Rows for every span name in either run, sorted by decreasing total
    delta. Span names whose ring entries were evicted but whose
    [span:<name>] histograms survived are still compared (using the
    histogram's count and sum), so a span present in only one run is
    reported as added/removed rather than silently skipped. *)
val diff : t -> t -> diff_row list

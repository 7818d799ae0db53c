(** The overhead ledger: phase-attributed statement cost accounting.

    The paper's promise is that audited execution stays *light-weight*;
    this module is what turns that claim into a number. Every statement's
    wall time is decomposed into phases — parse, plan, execute, WAL
    append, fsync, audit recording, provenance computation — plus
    [Obs_self], the measured cost of this instrumentation itself: each
    {!time} frame reads the clock on entry and exit of its own
    bookkeeping, and those slivers accumulate into the obs-self slot
    instead of polluting the phase they wrap.

    Attribution is *exclusive*: a nested frame's whole footprint
    (including its metering cost) is subtracted from the enclosing frame,
    so the per-phase values of one statement telescope — their sum plus
    obs-self plus the unattributed remainder ("other") equals the
    statement's wall time.

    Aggregation is streaming: at statement end the per-phase totals are
    pushed into the collector's bounded log-scale histograms
    ([ledger:<phase>], [ledger:stmt], [ledger:other]) through the
    {!set_observer} hook and the accumulator is reset — whole runs are
    never buffered, matching the JSONL sink's incremental discipline.

    Like {!Trace}, the accumulator lives in a per-job context: sequential
    code mutates the ambient root, and [Minios.Sched] swaps a per-job
    context in around every quantum ({!use}) so concurrent sessions do
    not corrupt each other's frames. This module is a sibling of the
    [Ldv_obs] collector root and cannot call it; the root installs the
    clock, the enable flag, and the histogram observer at load time. *)

type phase =
  | Parse  (** SQL text to AST *)
  | Plan  (** plan selection (planner) *)
  | Exec  (** plan execution (executor) *)
  | Wal_append  (** WAL record encode + buffered append *)
  | Fsync  (** durability barriers: WAL and ship-log fsync *)
  | Audit_record  (** recording statements/results/tuples into the audit *)
  | Provenance  (** lineage queries and reenactment capture *)
  | Obs_self  (** the ledger's own metering cost, measured *)

let phases =
  [ Parse; Plan; Exec; Wal_append; Fsync; Audit_record; Provenance; Obs_self ]

let phase_name = function
  | Parse -> "parse"
  | Plan -> "plan"
  | Exec -> "exec"
  | Wal_append -> "wal-append"
  | Fsync -> "fsync"
  | Audit_record -> "audit-record"
  | Provenance -> "provenance"
  | Obs_self -> "obs-self"

let tag = function
  | Parse -> 0
  | Plan -> 1
  | Exec -> 2
  | Wal_append -> 3
  | Fsync -> 4
  | Audit_record -> 5
  | Provenance -> 6
  | Obs_self -> 7

let n_phases = 8

(** Histogram naming shared with the readers ([ldv overhead], bench). *)
let hist_prefix = "ledger:"

let hist_of_phase p = hist_prefix ^ phase_name p
let stmt_hist = hist_prefix ^ "stmt"
let other_hist = hist_prefix ^ "other"

(** The audit-attributable phases: what an unaudited (native) execution
    of the same statement would not pay. [Obs_self] counts against the
    audit — the native baseline runs with observability off. *)
let audit_phases = [ Audit_record; Provenance; Obs_self ]

let is_audit_phase p = List.mem p audit_phases

(* ------------------------------------------------------------------ *)
(* Hooks installed by the collector root (ldv_obs.ml) at load time.    *)

let enabled = ref false
let set_enabled b = enabled := b

let clock : (unit -> float) ref = ref Unix.gettimeofday
let set_clock f = clock := f

(* Where finished per-statement phase totals go: the collector's
   histogram registry. Default drops, so the ledger is inert until the
   root wires it. *)
let observer : (string -> float -> unit) ref = ref (fun _ _ -> ())
let set_observer f = observer := f

(* ------------------------------------------------------------------ *)
(* Per-job accumulator context.                                        *)

type frame = {
  fr_tag : int;  (** phase slot this frame attributes to *)
  mutable fr_sub : float;
      (** wall time of nested frames (including their metering cost),
          subtracted so attribution stays exclusive *)
}

type ctx = {
  mutable l_active : bool;  (** a statement is being accounted *)
  mutable l_stmt_start : float;
  l_acc : float array;  (** per-phase seconds, indexed by [tag] *)
  mutable l_self : float;  (** accumulated metering cost *)
  mutable l_stack : frame list;  (** open frames, innermost first *)
}

let make () =
  { l_active = false;
    l_stmt_start = 0.0;
    l_acc = Array.make n_phases 0.0;
    l_self = 0.0;
    l_stack = [] }

let root = make ()
let current = ref root

(** Install [c] as the ambient accumulator and return the previous one
    (the scheduler's swap-in/swap-out primitive, mirroring [Trace.use]). *)
let use (c : ctx) : ctx =
  let prev = !current in
  current := c;
  prev

(** Restore the pristine root context (called by [Ldv_obs.reset]). *)
let reset () =
  root.l_active <- false;
  root.l_stmt_start <- 0.0;
  Array.fill root.l_acc 0 n_phases 0.0;
  root.l_self <- 0.0;
  root.l_stack <- [];
  current := root

(* ------------------------------------------------------------------ *)
(* Statement lifecycle.                                                *)

(** Open a statement account: zero the accumulator and stamp the start.
    A no-op when the ledger is disabled. *)
let stmt_begin () =
  if !enabled then begin
    let c = !current in
    c.l_active <- true;
    Array.fill c.l_acc 0 n_phases 0.0;
    c.l_self <- 0.0;
    c.l_stack <- [];
    c.l_stmt_start <- !clock ()
  end

(** Close the account and stream one observation per phase (zeros
    included, so every ledger histogram counts every statement and
    per-statement means divide by the same denominator), plus the
    statement total and the unattributed remainder. *)
let stmt_end () =
  if !enabled then begin
    let c = !current in
    if c.l_active then begin
      let t_end = !clock () in
      c.l_active <- false;
      c.l_stack <- [];
      c.l_acc.(tag Obs_self) <- c.l_self;
      let total = Float.max 0.0 (t_end -. c.l_stmt_start) in
      let emit = !observer in
      emit stmt_hist total;
      let attributed = ref 0.0 in
      List.iter
        (fun p ->
          let v = c.l_acc.(tag p) in
          attributed := !attributed +. v;
          emit (hist_of_phase p) v)
        phases;
      emit other_hist (Float.max 0.0 (total -. !attributed))
    end
  end

(* ------------------------------------------------------------------ *)
(* Phase frames.                                                       *)

(* Close the frame opened at [t0] whose body started at [t1] and ended
   at [t2]: attribute the exclusive body time, meter the bookkeeping
   slivers into obs-self, and charge the whole footprint to the parent's
   subtraction. *)
let close_frame (c : ctx) (fr : frame) ~t0 ~t1 ~t2 =
  (match c.l_stack with
  | top :: rest when top == fr -> c.l_stack <- rest
  | _ -> c.l_stack <- List.filter (fun f -> f != fr) c.l_stack);
  let body = t2 -. t1 -. fr.fr_sub in
  c.l_acc.(fr.fr_tag) <- c.l_acc.(fr.fr_tag) +. Float.max 0.0 body;
  let t3 = !clock () in
  c.l_self <- c.l_self +. (t1 -. t0) +. (t3 -. t2);
  match c.l_stack with
  | parent :: _ -> parent.fr_sub <- parent.fr_sub +. (t3 -. t0)
  | [] -> ()

(** Run [f] and attribute its exclusive wall time to [phase]. Outside an
    open statement account (or with the ledger disabled) this is exactly
    a call to [f]: background work — group-commit flushes, recovery,
    catch-up — is not attributed to whichever statement ran last. *)
let time phase f =
  if not !enabled then f ()
  else begin
    let c = !current in
    if not c.l_active then f ()
    else begin
      let t0 = !clock () in
      let fr = { fr_tag = tag phase; fr_sub = 0.0 } in
      c.l_stack <- fr :: c.l_stack;
      let t1 = !clock () in
      match f () with
      | r ->
        close_frame c fr ~t0 ~t1 ~t2:(!clock ());
        r
      | exception e ->
        close_frame c fr ~t0 ~t1 ~t2:(!clock ());
        raise e
    end
  end

(** Attribute an already-measured duration to [phase] (for sites that
    time across non-lexical boundaries). *)
let record phase dur =
  if !enabled then begin
    let c = !current in
    if c.l_active then
      c.l_acc.(tag phase) <- c.l_acc.(tag phase) +. Float.max 0.0 dur
  end

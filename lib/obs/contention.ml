(** Contention analysis over the loaded-trace model ({!Profile}):
    blocked-vs-running attribution per session and a latch-holder
    report.

    The analyzer is pure — it reads the wait-state span vocabulary the
    instrumented stack emits from the model's per-session and per-name
    rows and never touches the live collector, so it runs identically
    over an in-memory snapshot and a re-parsed JSONL trace:

    - ["sched.quantum"]: one span per scheduler step of a job;
    - ["wait.sched"]: the park-to-resume gap before that step;
    - ["wait.latch"]: time spin-waiting on the interceptor's write
      latch, with a [latch.holder] attribute naming the session that
      held it (cross-session causality);
    - ["wait.group-commit"]: time a batch of statements sat with its
      fsync deferred by group commit, with a [wal.batch] attribute.

    Quantum and scheduler-wait spans of one session tile the interval
    between its first and last activity with shared endpoints, so per
    session [running + blocked = wall] holds exactly; latch waits happen
    *inside* quanta and are reported as an overlay, not added to the
    wall time. *)

let quantum_span = "sched.quantum"
let sched_wait_span = "wait.sched"
let latch_wait_span = "wait.latch"
let group_commit_wait_span = "wait.group-commit"
let holder_attr = "latch.holder"

(* ------------------------------------------------------------------ *)
(* Blocked-vs-running attribution.                                     *)

type session_attr = {
  a_session : string;
  a_wall : float;  (** last activity end - first activity start *)
  a_running : float;  (** total [sched.quantum] time *)
  a_blocked : float;  (** total [wait.sched] time *)
  a_latch_wait : float;  (** overlay: [wait.latch] time inside quanta *)
  a_quanta : int;
  a_waits : int;
  a_stall : Histogram.t;  (** wait durations (sched + latch) *)
}

let attribution (t : Profile.t) : session_attr list =
  List.filter_map
    (fun (session, rows) ->
      let row name = Option.to_list (Profile.find rows name) in
      match (row quantum_span, row sched_wait_span, row latch_wait_span) with
      | [], [], [] -> None
      | run, blocked, latch ->
        let total = List.fold_left (fun acc r -> acc +. r.Profile.r_total) 0.0 in
        let count = List.fold_left (fun acc r -> acc + r.Profile.r_count) 0 in
        (* quanta and scheduler waits tile the session's activity *)
        let first, last =
          Profile.extent
            (List.concat_map (fun (r : Profile.row) -> r.r_nodes) (run @ blocked))
        in
        Some
          { a_session = Profile.id_label session;
            a_wall = (if last > first then last -. first else 0.0);
            a_running = total run;
            a_blocked = total blocked;
            a_latch_wait = total latch;
            a_quanta = count run;
            a_waits = count (blocked @ latch);
            a_stall =
              List.fold_left
                (fun h (r : Profile.row) -> Histogram.merge h r.r_hist)
                (Histogram.create ()) (blocked @ latch) })
    t.Profile.sessions

(* ------------------------------------------------------------------ *)
(* Latch holders: who made everyone else wait.                         *)

type holder = {
  h_session : string;  (** the session that held the latch *)
  h_waited : float;  (** total time other sessions waited on it *)
  h_waiters : int;  (** number of waits it caused *)
}

let holders (t : Profile.t) : holder list =
  let holder (n : Profile.node) = Profile.int_attr n.Profile.n_span holder_attr in
  Profile.group_by holder (Profile.nodes t.Profile.names latch_wait_span)
  |> List.sort (fun (a, _) (b, _) -> Profile.compare_session a b)
  |> List.map (fun (session, (nodes : Profile.node list)) ->
         { h_session = Profile.id_label session;
           h_waited =
             List.fold_left (fun acc n -> acc +. n.Profile.n_total) 0.0 nodes;
           h_waiters = List.length nodes })
  |> List.stable_sort (fun x y -> compare y.h_waited x.h_waited)

(* ------------------------------------------------------------------ *)
(* The full report.                                                    *)

type report = {
  c_sessions : session_attr list;
  c_holders : holder list;
  c_latch_share : float;
      (** total latch-wait time over total per-session wall time *)
  c_blocked_share : float;  (** total blocked over total wall *)
  c_stall : Histogram.summary;
      (** all sessions' wait durations, merged ([Histogram.merge]) *)
}

let contention (t : Profile.t) : report =
  let sessions = attribution t in
  let wall, latch, blocked =
    List.fold_left
      (fun (w, l, b) a ->
        (w +. a.a_wall, l +. a.a_latch_wait, b +. a.a_blocked))
      (0.0, 0.0, 0.0) sessions
  in
  let merged =
    List.fold_left
      (fun m a -> Histogram.merge m a.a_stall)
      (Histogram.create ()) sessions
  in
  { c_sessions = sessions;
    c_holders = holders t;
    c_latch_share = (if wall > 0.0 then latch /. wall else 0.0);
    c_blocked_share = (if wall > 0.0 then blocked /. wall else 0.0);
    c_stall = Histogram.summarize merged }

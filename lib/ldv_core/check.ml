(** Seeded verification campaigns: one scenario record, one runner.

    Every campaign has the same shape. It derives a reproducible seed
    from a root PRNG, arms a fault plan, runs an experiment under it with
    a fault-free control arm, and judges the finished run with a list of
    equivalence checks. A {!scenario} supplies only what differs:

    - {!faults} drives the audit -> package -> (corrupt?) -> parse ->
      replay -> verify loop for every package kind under a fault profile
      rotated by campaign ([ldv check faults]);
    - {!crash} power-fails the durable minidb at a rotating crash site,
      recovers from checkpoint + durable WAL suffix, resumes the workload
      past the restored prefix, and demands the control's exact state:
      tables, rows (rids, versions, values), row-id allocators and logical
      clock ([ldv check crash]);
    - {!tx} crashes inside transactions interleaved across sessions and
      demands the control's state minus exactly the transactions without
      a durable COMMIT, plus an identical composed reenactment
      ({!Gprom.Tx_reenact}) for every transaction recovery committed
      ([ldv check tx]);
    - {!replica} runs a leader + N read replicas under WAL-ship faults and
      replica crashes, and demands byte-identical convergence after a
      fault-free quiesce, a leader identical with the control, and every
      served read reproducible on the control [AS OF] the version it was
      served at ([ldv check replica]).

    The runner owns the rest: seeds, plan installation, the robustness
    contract (typed errors and DB errors are expected ways to fail; any
    other exception is a violation), injection tallies, spans, counters
    and the report. Reports hold no wall-clock and no hash order, so the
    same seed always prints the identical report. *)

open Dbclient
module Prng = Ldv_faults.Prng
module Database = Minidb.Database
module Fingerprint = Minidb.Fingerprint

(* ------------------------------------------------------------------ *)
(* Outcomes.                                                           *)

type outcome =
  | Verified of string  (** every check passed; what was checked *)
  | No_crash  (** the armed site was never reached; states still equal *)
  | Degraded of string
      (** corrupt package sections were dropped; replay still completed *)
  | Diverged of string  (** the run differs from its control *)
  | Read_diverged of string  (** a served read the control cannot reproduce *)
  | Not_converged of string  (** a replica differs from the leader *)
  | Leader_diverged of string  (** the leader differs from the control *)
  | Failed of Ldv_errors.t  (** typed failure — the expected way to fail *)
  | Db_failed of string  (** the simulated DB refused a statement *)
  | Uncaught of string  (** contract violation: untyped exception *)

let label = function
  | Verified _ -> "verified"
  | No_crash -> "no-crash"
  | Degraded _ -> "degraded"
  | Diverged _ -> "diverged"
  | Read_diverged _ -> "read-diverged"
  | Not_converged _ -> "not-converged"
  | Leader_diverged _ -> "leader-diverged"
  | Failed _ -> "typed-failure"
  | Db_failed _ -> "db-error"
  | Uncaught _ -> "uncaught"

(* the order outcome counts are reported in, for every scenario *)
let labels =
  [ "verified"; "no-crash"; "degraded"; "diverged"; "read-diverged";
    "not-converged"; "leader-diverged"; "typed-failure"; "db-error";
    "uncaught" ]

let detail = function
  | Verified d | Degraded d | Diverged d | Read_diverged d | Not_converged d
  | Leader_diverged d | Db_failed d ->
    d
  | No_crash -> "site never reached; states equal"
  | Failed e -> Ldv_errors.to_string e
  | Uncaught msg -> "UNCAUGHT " ^ msg

let divergent = function
  | Diverged _ | Read_diverged _ | Not_converged _ | Leader_diverged _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Scenarios and the runner.                                           *)

(** One run of a campaign. *)
type 'r arm = {
  a_columns : string;  (** report columns between campaign and outcome *)
  a_attrs : (string * string) list;  (** attributes of the run's span *)
  a_plan : Ldv_faults.plan;  (** installed around [a_exec] and the checks *)
  a_exec : unit -> 'r;  (** the experiment, control arm included *)
}

(** What one kind of campaign does differently; the runner does the rest.
    ['r] is a finished run, as the checks see it. *)
type 'r scenario = {
  s_name : string;  (** span and counter prefix *)
  s_header : campaigns:int -> seed:int -> string;  (** first report line *)
  s_attrs : (string * string) list;
      (** root-span attributes beyond campaigns and seed *)
  s_label_width : int;  (** width of the report's outcome column *)
  s_strict : bool;
      (** divergence breaks the contract: it is counted in the report and
          fails the check *)
  s_arms : campaign:int -> Prng.t -> 'r arm list;
      (** draw one campaign's arms from the root PRNG *)
  s_checks : ('r -> outcome option) list;
      (** equivalence checks in order; the first to object decides *)
  s_verified : 'r -> outcome;  (** the outcome when no check objects *)
}

type run = { campaign : int; columns : string; outcome : outcome }

type report = {
  r_header : string;
  r_label_width : int;
  r_strict : bool;
  r_runs : run list;  (** campaign-major, then arm order *)
  r_injected : (string * int) list;  (** aggregate fault tallies *)
  r_uncaught : int;  (** contract violations (want 0) *)
  r_divergent : int;  (** runs that differ from their control (want 0) *)
}

(** Derive the next seed from the root stream: independent, non-negative,
    and reproducible from the root seed alone. *)
let derive_seed (root : Prng.t) : int =
  Int64.to_int (Prng.next_int64 root) land max_int

(* one seed and PRNG per campaign, for scenarios with one arm each *)
let campaign_prng root =
  let seed = derive_seed root in
  (seed, Prng.create ~seed)

(* Run one arm and judge it under the robustness contract.
   [Ldv_faults.Crash] is not handled here: a scenario catches its own
   power failure, so one that escapes is a harness bug, classified as
   uncaught. A divergent replay can only escape the faults loop, the one
   scenario that goes through the interceptor. *)
let judge (s : 'r scenario) (a : 'r arm) : outcome =
  match
    let r = a.a_exec () in
    match List.find_map (fun check -> check r) s.s_checks with
    | Some o -> o
    | None -> s.s_verified r
  with
  | o -> o
  | exception Ldv_errors.Error e -> Failed e
  | exception Minidb.Errors.Db_error k -> Db_failed (Minidb.Errors.to_string k)
  | exception Interceptor.Replay_divergence msg ->
    Diverged ("1 divergence(s): " ^ msg)
  | exception e -> Uncaught (Printexc.to_string e)

let run (s : 'r scenario) ~campaigns ~seed : report =
  Ldv_obs.with_span
    ~attrs:
      (("campaigns", string_of_int campaigns)
      :: ("seed", string_of_int seed) :: s.s_attrs)
    s.s_name
  @@ fun () ->
  let root = Prng.create ~seed in
  (* a fresh plan's tallies are all zero *)
  let injected = ref (Ldv_faults.injected (Ldv_faults.make ~seed:0 ())) in
  let runs = ref [] in
  for campaign = 0 to campaigns - 1 do
    List.iter
      (fun a ->
        let outcome =
          Ldv_obs.with_span
            ~attrs:(("campaign", string_of_int campaign) :: a.a_attrs)
            (s.s_name ^ ".run")
          @@ fun () -> Ldv_faults.with_plan a.a_plan (fun () -> judge s a)
        in
        Ldv_obs.counter (s.s_name ^ ".outcome." ^ label outcome);
        injected :=
          List.map2
            (fun (name, total) (_, n) -> (name, total + n))
            !injected
            (Ldv_faults.injected a.a_plan);
        runs := { campaign; columns = a.a_columns; outcome } :: !runs)
      (s.s_arms ~campaign root)
  done;
  let runs = List.rev !runs in
  let count p = List.length (List.filter (fun r -> p r.outcome) runs) in
  { r_header = s.s_header ~campaigns ~seed;
    r_label_width = s.s_label_width;
    r_strict = s.s_strict;
    r_runs = runs;
    r_injected = !injected;
    r_uncaught = count (function Uncaught _ -> true | _ -> false);
    r_divergent = count divergent }

(** The check fails: an untyped exception escaped, or a strict scenario
    diverged from its control. *)
let failed (r : report) = r.r_uncaught > 0 || (r.r_strict && r.r_divergent > 0)

let to_string (r : report) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  line "%s" r.r_header;
  List.iter
    (fun run ->
      line "  c%03d %s %-*s %s" run.campaign run.columns r.r_label_width
        (label run.outcome) (detail run.outcome))
    r.r_runs;
  let count l =
    List.length (List.filter (fun run -> label run.outcome = l) r.r_runs)
  in
  line "outcomes:";
  List.iter (fun l -> if count l > 0 then line "  %-13s %d" l (count l)) labels;
  line "injected faults:";
  List.iter
    (fun (name, n) -> if n > 0 then line "  %-13s %d" name n)
    r.r_injected;
  if List.for_all (fun (_, n) -> n = 0) r.r_injected then line "  (none)";
  if r.r_strict then line "divergent runs: %d" r.r_divergent;
  Printf.bprintf b "uncaught exceptions: %d%s" r.r_uncaught
    (if r.r_uncaught = 0 then " (robustness contract holds)" else "");
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* faults: the whole loop under rotating fault profiles.               *)

(* (name, p_syscall, p_conn, p_corrupt), rotated by campaign index *)
let profiles =
  [| ("control", 0.0, 0.0, 0.0); ("syscalls", 0.05, 0.0, 0.0);
     ("transport", 0.0, 0.3, 0.0); ("corrupt", 0.0, 0.0, 1.0);
     ("mixed", 0.02, 0.15, 0.5) |]

let kinds =
  [ (Audit.Included, "server-included"); (Audit.Excluded, "server-excluded");
    (Audit.Ptu_baseline, "ptu") ]

(* Audit one kind, package it, maybe corrupt the bytes, parse and replay:
   the count of sections parsing skipped, and verification's findings. *)
let replay_loop ~audit kind : int * string list =
  let a = audit kind in
  let bytes = Package.to_bytes (Package.build a) in
  let bytes =
    match Ldv_faults.corrupt_package bytes with
    | Some (corrupted, _what) -> corrupted
    | None -> bytes
  in
  match Package.of_bytes_result bytes with
  | Error e -> raise (Ldv_errors.Error e)
  | Ok { Package.r_pkg; r_skipped } ->
    (List.length r_skipped, Replay.verify ~audit:a (Replay.execute r_pkg))

(** Under any injected fault mix, every run of the loop completes
    (possibly degraded) or fails typed. [audit] runs the workload under a
    packaging mode; the plan is installed around the whole loop, so
    injections fire during the audit as well as the replay. *)
let faults ~(audit : Audit.packaging -> Audit.t) : (int * string list) scenario
    =
  { s_name = "faultcheck";
    s_header =
      (fun ~campaigns ~seed ->
        Printf.sprintf "faultcheck: %d campaigns x %d kinds, seed %d" campaigns
          (List.length kinds) seed);
    s_attrs = [];
    s_label_width = 13;
    s_strict = false;
    s_arms =
      (fun ~campaign root ->
        let profile, p_syscall, p_conn, p_corrupt =
          profiles.(campaign mod Array.length profiles)
        in
        List.map
          (fun (kind, kind_name) ->
            (* one seed per (campaign, kind) *)
            let seed = derive_seed root in
            { a_columns = Printf.sprintf "%-15s %-9s" kind_name profile;
              a_attrs = [ ("kind", kind_name); ("profile", profile) ];
              a_plan = Ldv_faults.make ~p_syscall ~p_conn ~p_corrupt ~seed ();
              a_exec = (fun () -> replay_loop ~audit kind) })
          kinds);
    s_checks =
      [ (fun (skipped, problems) ->
          if skipped = 0 then None
          else
            Some
              (Degraded
                 (Printf.sprintf "%d section(s) skipped, %d divergence(s)"
                    skipped (List.length problems))));
        (function
        | _, (first :: _ as problems) ->
          Some
            (Diverged
               (Printf.sprintf "%d divergence(s): %s" (List.length problems)
                  first))
        | _, [] -> None) ];
    s_verified = (fun _ -> Verified "replay verified") }

(* ------------------------------------------------------------------ *)
(* Workloads over accounts (and a ledger).                             *)

(** A workload item: a write from session [sid], tagged with that
    session's transaction ordinal ([txn = 0] outside tracked
    transactions); a read, which only replica campaigns send; or a
    server checkpoint. Every write consumes exactly one WAL sequence
    number, so write ordinals map 1:1 to sequence numbers. *)
type item =
  | Write of { sql : string; sid : int; txn : int }
  | Read of string
  | Ckpt

let write ?(sid = 0) ?(txn = 0) sql = Write { sql; sid; txn }

let insert_account prng id =
  Printf.sprintf "INSERT INTO accounts VALUES (%d, 'owner%d', %d)" id id
    (100 + Prng.int prng 900)

let set_balance prng id =
  Printf.sprintf "UPDATE accounts SET balance = %d WHERE id = %d"
    (Prng.int prng 1000) id

let add_balance prng id =
  Printf.sprintf "UPDATE accounts SET balance = balance + %d WHERE id = %d"
    (1 + Prng.int prng 50) id

let delete_account id = Printf.sprintf "DELETE FROM accounts WHERE id = %d" id

let read_sql prng ~max_id : string =
  match Prng.int prng 5 with
  | 0 -> "SELECT COUNT(*) FROM accounts"
  | 1 ->
    Printf.sprintf "SELECT owner, balance FROM accounts WHERE id = %d"
      (1 + Prng.int prng (max 1 max_id))
  | 2 -> "SELECT SUM(delta) FROM ledger"
  | 3 -> "SELECT COUNT(*) FROM ledger"
  | _ -> "SELECT SUM(balance) FROM accounts"

(** One session: accounts and a ledger, a few seed rows, then inserts,
    updates, deletes and multi-statement transactions (committed ~2/3 of
    the time), with checkpoints only between complete operations, never
    inside an open transaction. No write is a SELECT: each ticks the
    clock exactly once, so clock parity with the control is exact. With
    [reads], up to two reads follow each operation — never inside a
    transaction, where a routed read could observe (or a control re-read
    miss) uncommitted state. *)
let gen_accounts ~reads (prng : Prng.t) : item list =
  let items = ref [] in
  let push i = items := i :: !items in
  let next_id = ref 0 in
  let fresh_id () =
    incr next_id;
    !next_id
  in
  let existing_id () = 1 + Prng.int prng !next_id in
  let next_entry = ref 0 in
  let ledger () =
    incr next_entry;
    push
      (write
         (Printf.sprintf "INSERT INTO ledger VALUES (%d, %d)" !next_entry
            (Prng.int prng 200 - 100)))
  in
  push (write "CREATE TABLE accounts (id INT, owner TEXT, balance INT)");
  push (write "CREATE TABLE ledger (entry INT, delta INT)");
  push (write "CREATE INDEX accounts_id ON accounts (id)");
  for _ = 1 to 3 + Prng.int prng 3 do
    push (write (insert_account prng (fresh_id ())))
  done;
  push Ckpt;
  let op () =
    match Prng.int prng 10 with
    | 0 | 1 | 2 -> push (write (insert_account prng (fresh_id ())))
    | 3 | 4 -> push (write (set_balance prng (existing_id ())))
    | 5 -> push (write (delete_account (existing_id ())))
    | 6 | 7 -> ledger ()
    | _ ->
      push (write "BEGIN");
      for _ = 1 to 2 + Prng.int prng 2 do
        match Prng.int prng 3 with
        | 0 -> push (write (insert_account prng (fresh_id ())))
        | 1 -> push (write (add_balance prng (existing_id ())))
        | _ -> ledger ()
      done;
      push (write (if Prng.int prng 3 < 2 then "COMMIT" else "ROLLBACK"))
  in
  let ops = 18 + Prng.int prng 11 in
  let since_ckpt = ref 0 in
  for _ = 1 to ops do
    op ();
    if reads then
      for _ = 1 to Prng.int prng 3 do
        push (Read (read_sql prng ~max_id:!next_id))
      done;
    incr since_ckpt;
    if !since_ckpt >= 6 + Prng.int prng 2 then begin
      push Ckpt;
      since_ckpt := 0
    end
  done;
  List.rev !items

(* Row ids of session [sid]'s range, disjoint from every other session's:
   a fresh one, or (drawn) one already handed out. *)
let session_ids prng ~sid =
  let next_id = ref 0 in
  ( (fun () ->
      incr next_id;
      (sid * 1000) + !next_id),
    fun () -> (sid * 1000) + 1 + Prng.int prng (max 1 !next_id) )

(** An autocommit session stream: inserts, updates and deletes. *)
let autocommit_stream (prng : Prng.t) ~sid : item list =
  let fresh_id, existing_id = session_ids prng ~sid in
  List.init (8 + Prng.int prng 5) (fun _ ->
      match Prng.int prng 6 with
      | 0 | 1 | 2 -> write ~sid (insert_account prng (fresh_id ()))
      | 3 | 4 -> write ~sid (set_balance prng (existing_id ()))
      | _ -> write ~sid (delete_account (existing_id ())))

(** A transactional session stream: autocommit DML and multi-statement
    transactions (committed ~3/4, rolled back ~1/4). *)
let tx_stream (prng : Prng.t) ~sid : item list =
  let fresh_id, existing_id = session_ids prng ~sid in
  let items = ref [] in
  let next_txn = ref 0 in
  let push ~txn sql = items := write ~sid ~txn sql :: !items in
  let dml ~txn =
    match Prng.int prng 5 with
    | 0 | 1 -> push ~txn (insert_account prng (fresh_id ()))
    | 2 | 3 -> push ~txn (add_balance prng (existing_id ()))
    | _ ->
      push ~txn
        (Printf.sprintf "UPDATE accounts SET owner = 'o%d' WHERE id = %d"
           (Prng.int prng 100) (existing_id ()))
  in
  for _ = 1 to 5 + Prng.int prng 4 do
    if Prng.int prng 3 = 0 then dml ~txn:0
    else begin
      incr next_txn;
      let txn = !next_txn in
      push ~txn "BEGIN";
      for _ = 1 to 2 + Prng.int prng 3 do
        dml ~txn
      done;
      push ~txn (if Prng.int prng 4 < 3 then "COMMIT" else "ROLLBACK")
    end
  done;
  List.rev !items

(** Shared DDL and one seed row per session, then [sessions] streams
    interleaved round-robin one write at a time — the flattened order a
    cooperative scheduler produces, so transactions from different
    sessions genuinely interleave in the WAL while the control and crash
    runs execute the identical sequence. A checkpoint follows a round
    once [cadence * sessions] writes have passed since the last one and
    every session's transaction is closed. *)
let gen_interleaved (prng : Prng.t) ~sessions ~cadence ~stream : item list =
  let items = ref [] in
  let push i = items := i :: !items in
  push (write "CREATE TABLE accounts (id INT, owner TEXT, balance INT)");
  push (write "CREATE INDEX accounts_id ON accounts (id)");
  for s = 0 to sessions - 1 do
    push
      (write ~sid:s
         (Printf.sprintf "INSERT INTO accounts VALUES (%d, 'seed%d', %d)"
            ((s * 1000) + 999) s
            (100 + Prng.int prng 900)))
  done;
  push Ckpt;
  let streams =
    Array.init sessions (fun s -> ref (stream (Prng.split prng) ~sid:s))
  in
  let open_tx = Array.make sessions false in
  let since_ckpt = ref 0 in
  while Array.exists (fun r -> !r <> []) streams do
    Array.iteri
      (fun s r ->
        match !r with
        | [] -> ()
        | item :: rest ->
          r := rest;
          push item;
          incr since_ckpt;
          (match item with
          | Write { sql = "BEGIN"; _ } -> open_tx.(s) <- true
          | Write { sql = "COMMIT" | "ROLLBACK"; _ } -> open_tx.(s) <- false
          | _ -> ()))
      streams;
    if !since_ckpt >= cadence * sessions && not (Array.exists Fun.id open_tx)
    then begin
      push Ckpt;
      since_ckpt := 0
    end
  done;
  List.rev !items

(* ------------------------------------------------------------------ *)
(* Execution: run_items, the control arm, crash + torn tail + recover.  *)

let db (d : Durable.t) = Server.db (Durable.server d)

(** Execute the writes whose 1-based ordinal exceeds [from] (recovery
    restored the rest), each under its session's sid, except those of
    the crash-aborted transactions in [skip] ([(sid, txn)] pairs: the
    application treats them as aborted and does not re-submit them);
    checkpoint once past the restored prefix. [group = Some g] commits
    under the WAL's group-commit policy with one fsync barrier every [g]
    executed writes (a scheduler quantum's worth), so a power failure can
    drop a whole unflushed batch. *)
let run_items ?group ?(skip = []) (d : Durable.t) (items : item list) ~from :
    unit =
  if group <> None then Durable.set_policy d Durable.Grouped;
  let ord = ref 0 and executed = ref 0 in
  List.iter
    (function
      | Write { sql; sid; txn } ->
        incr ord;
        if !ord > from && not (txn <> 0 && List.mem (sid, txn) skip) then begin
          ignore (Durable.exec ~sid d sql);
          incr executed;
          match group with
          | Some g when !executed mod g = 0 -> Durable.flush d
          | _ -> ()
        end
      | Read _ -> ()
      | Ckpt -> if !ord >= from then Durable.checkpoint d)
    items;
  if group <> None then Durable.flush d

(** The control arm: the workload minus [skip] on a fresh machine, with
    no fault plan installed. *)
let control ?skip (items : item list) : Durable.t =
  Ldv_faults.without_plan @@ fun () ->
  let _kernel, d = Durable.boot () in
  run_items ?skip d items ~from:0;
  d

(** A crash campaign's finished run. *)
type recovered = {
  got : Database.t;  (** the run's final state, recovered if it crashed *)
  control : Database.t;  (** the workload minus the crash-aborted txs *)
  stats : Durable.recovery option;  (** [None]: the site was never reached *)
  aborted : int;  (** transactions the crash aborted *)
}

(* the (sid, txn) transactions whose WAL records recovery dropped as
   unterminated *)
let aborted_txs (items : item list) (stats : Durable.recovery) =
  let writes =
    Array.of_list
      (List.filter_map
         (function Write { sid; txn; _ } -> Some (sid, txn) | _ -> None)
         items)
  in
  List.filter_map
    (fun (r : Wal.record) ->
      if r.Wal.seq >= 1 && r.Wal.seq <= Array.length writes then
        match writes.(r.Wal.seq - 1) with _, 0 -> None | tx -> Some tx
      else None)
    stats.Durable.dropped_records
  |> List.sort_uniq compare

(** Run [items] on a fresh machine under the installed plan. When the
    armed site fires, the power failure keeps a PRNG-chosen torn prefix
    of the unsynced WAL tail for [wal.append] crashes and drops every
    other unsynced byte; the database recovers from checkpoint + durable
    WAL suffix (skipping the redo unless [apply]) and the workload
    resumes past the restored prefix. The control then runs the workload
    minus the transactions the crash aborted. *)
let crash_and_recover ?group ~apply ~cprng (items : item list) () : recovered =
  let kernel, d = Durable.boot () in
  let final, stats, aborted =
    match run_items ?group d items ~from:0 with
    | () -> (d, None, [])
    | exception Ldv_faults.Crash site ->
      let wal = Durable.wal_path (Durable.server d) in
      let keep =
        if String.equal site "wal.append" then
          let unsynced =
            Minios.Vfs.unsynced_bytes (Minios.Kernel.vfs kernel) wal
          in
          if unsynced > 0 then [ (wal, Prng.int cprng (unsynced + 1)) ] else []
        else []
      in
      Minios.Kernel.crash kernel ~keep ();
      let d', stats =
        Durable.recover ~apply kernel
          ~data_dir:(Server.data_dir (Durable.server d)) ()
      in
      let aborted = aborted_txs items stats in
      run_items ?group ~skip:aborted d' items ~from:stats.Durable.redo_upto;
      (d', Some stats, aborted)
  in
  { got = db final;
    control = db (control ~skip:aborted items);
    stats;
    aborted = List.length aborted }

(* The run's state equals the control's; [right] names the run's side. *)
let same_state right (r : recovered) =
  let want = Fingerprint.state r.control and got = Fingerprint.state r.got in
  if String.equal want got then None
  else
    Some
      (Diverged
         (Fingerprint.first_diff ~left:"control" ~right:(right r) want got))

let crash_arm ~width ~site ~occurrence ~seed exec =
  { a_columns = Printf.sprintf "%-*s occ %d " width site occurrence;
    a_attrs = [ ("site", site); ("occurrence", string_of_int occurrence) ];
    a_plan = Ldv_faults.make ~crash:(site, occurrence) ~seed ();
    a_exec = exec }

(* ------------------------------------------------------------------ *)
(* crash: statement-level crash consistency.                           *)

(* the statement path's crash windows, then the checkpoint protocol's *)
let crash_sites =
  [| "wal.append"; "wal.pre_fsync"; "stmt.post_exec"; "ckpt.image";
     "ckpt.pre_rename"; "ckpt.pre_gc" |]

(** [sessions > 1] interleaves autocommit streams (crashing inside
    interleaved transactions is {!tx}'s job) and commits the crash run
    under group commit. [recover:false] skips the redo while still
    resuming: the debug mode proving the checks catch lost work. *)
let crash ~recover ~sessions : recovered scenario =
  if sessions < 1 then invalid_arg "Check.crash: sessions must be >= 1";
  let group = if sessions > 1 then Some sessions else None in
  { s_name = "crashcheck";
    s_header =
      (fun ~campaigns ~seed ->
        Printf.sprintf "crashcheck: %d campaigns, seed %d%s%s" campaigns seed
          (if sessions > 1 then
             Printf.sprintf ", %d concurrent sessions (group commit)" sessions
           else "")
          (if recover then "" else ", recovery DISABLED (--no-recover)"));
    s_attrs =
      [ ("sessions", string_of_int sessions);
        ("recover", string_of_bool recover) ];
    s_label_width = 13;
    s_strict = true;
    s_arms =
      (fun ~campaign root ->
        let seed, cprng = campaign_prng root in
        let items =
          if sessions = 1 then gen_accounts ~reads:false (Prng.split cprng)
          else
            (* every write runs as session 0: WAL frame headers carry the
               sid, and the torn-tail sizes depend on them *)
            List.map
              (function Write w -> Write { w with sid = 0 } | i -> i)
              (gen_interleaved (Prng.split cprng) ~sessions ~cadence:3
                 ~stream:autocommit_stream)
        in
        let site = crash_sites.(campaign mod Array.length crash_sites) in
        (* checkpoint sites are consulted a handful of times per workload,
           statement sites dozens: range the detonation so crashes land
           deep in the run; overshooting it yields [No_crash] *)
        let occurrence =
          if String.starts_with ~prefix:"ckpt." site then 1 + Prng.int cprng 4
          else 1 + Prng.int cprng 28
        in
        [ crash_arm ~width:15 ~site ~occurrence ~seed
            (crash_and_recover ?group ~apply:recover ~cprng items) ]);
    s_checks = [ same_state (fun _ -> "recovered") ];
    s_verified =
      (fun r ->
        match r.stats with
        | None -> No_crash
        | Some s ->
          Verified
            (Printf.sprintf "redo %d, dropped %d, torn %dB" s.Durable.redone
               s.Durable.dropped s.Durable.torn_bytes)) }

(* ------------------------------------------------------------------ *)
(* tx: transaction-granular crash consistency.                         *)

(* the WAL append window, the pre-fsync window (a COMMIT crashing here
   loses its whole transaction), the post-execute window, and the middle
   of a rollback's undo walk *)
let tx_sites = [| "wal.append"; "wal.pre_fsync"; "stmt.post_exec"; "tx.undo" |]

let reenactment (ct : Database.committed_tx) : string =
  Format.asprintf "%a" Gprom.Tx_reenact.pp
    (Gprom.Tx_reenact.compose ~start_clock:ct.Database.ct_begin
       ct.Database.ct_stmts)

(* Every transaction the recovered database committed appears in the
   control with the same begin/commit clocks and an identical composed
   reenactment: recovery restores how each transaction produced its
   bytes, not merely the bytes. A subset check: the control also holds
   transactions the recovered side folded into its checkpoint image. *)
let same_reenactments (r : recovered) =
  if r.stats = None then None
  else
    let control_txs = Database.committed_txs r.control in
    List.find_map
      (fun (ct : Database.committed_tx) ->
        match
          List.find_opt
            (fun (c : Database.committed_tx) ->
              c.ct_begin = ct.ct_begin && c.ct_commit = ct.ct_commit)
            control_txs
        with
        | None ->
          Some
            (Diverged
               (Printf.sprintf
                  "recovered tx (begin %d, commit %d) has no control \
                   counterpart"
                  ct.ct_begin ct.ct_commit))
        | Some c ->
          let want = reenactment c and got = reenactment ct in
          if String.equal want got then None
          else
            Some
              (Diverged
                 (Printf.sprintf
                    "tx (begin %d, commit %d): reenactment differs: %s"
                    ct.ct_begin ct.ct_commit
                    (Fingerprint.first_diff ~left:"control" ~right:"recovered"
                       want got))))
      (Database.committed_txs r.got)

(** Sessions write disjoint row ranges, so campaigns are conflict-free
    by construction: what is exercised is crash atomicity, not the
    first-updater-wins abort path. *)
let tx ~sessions : recovered scenario =
  if sessions < 1 then invalid_arg "Check.tx: sessions must be >= 1";
  { s_name = "txcheck";
    s_header =
      (fun ~campaigns ~seed ->
        Printf.sprintf "txcheck: %d campaigns, seed %d, %d interleaved tx \
                        sessions"
          campaigns seed sessions);
    s_attrs = [ ("sessions", string_of_int sessions) ];
    s_label_width = 13;
    s_strict = true;
    s_arms =
      (fun ~campaign root ->
        let seed, cprng = campaign_prng root in
        let items =
          gen_interleaved (Prng.split cprng) ~sessions ~cadence:4
            ~stream:tx_stream
        in
        let site = tx_sites.(campaign mod Array.length tx_sites) in
        (* [tx.undo] is consulted only inside rollback walks *)
        let occurrence =
          if String.equal site "tx.undo" then 1 + Prng.int cprng 4
          else 1 + Prng.int cprng 40
        in
        [ crash_arm ~width:14 ~site ~occurrence ~seed
            (crash_and_recover ~apply:true ~cprng items) ]);
    s_checks =
      [ same_state (fun r -> if r.stats = None then "run" else "recovered");
        same_reenactments ];
    s_verified =
      (fun r ->
        match r.stats with
        | None -> No_crash
        | Some s ->
          Verified
            (Printf.sprintf "redo %d, dropped %d, aborted tx %d, reenacted %d"
               s.Durable.redone s.Durable.dropped r.aborted
               (List.length (Database.committed_txs r.got)))) }

(* ------------------------------------------------------------------ *)
(* replica: a leader + N read replicas under ship faults and crashes.  *)

(* a read response, as the unit of read verification *)
let response_fingerprint (resp : Protocol.response) : string =
  match resp with
  | Protocol.Result_set { rows; _ } ->
    String.concat "|"
      (List.map
         (fun row ->
           String.concat ";"
             (Array.to_list (Array.map Minidb.Value.to_raw_string row)))
         rows)
  | Protocol.Command_ok { affected } -> Printf.sprintf "ok %d" affected
  | Protocol.Ddl_ok -> "ddl"
  | Protocol.Error_response msg -> "error " ^ msg

(** One read served during the degraded run. *)
type read_rec = {
  rr_ordinal : int;
  rr_sql : string;
  rr_version : int;  (** the version the answer was pinned at *)
  rr_node : int;  (** replica id; -1 = the leader, for want of a replica *)
  rr_stale : bool;  (** served below the leader's then-current version *)
  rr_fingerprint : string;
}

type cluster_run = {
  c_leader : Database.t;
  c_reads : read_rec list;
  c_crashes : int;
  c_recoveries : int;
  c_converged : (int * string) option;
  c_control : Durable.t;  (** the single-node control: writes only *)
}

(* The degraded cluster run, under the installed plan: reads are routed
   (round-robin over replicas, staleness-bounded, leader fallback) and
   recorded with the node and version that served them; a crashed
   replica recovers after a seeded number of items. The final quiesce
   runs without a plan, so convergence is a property of recovery, not of
   fault luck. The control runs afterwards. *)
let run_cluster ~(items : item list) ~replicas ~staleness ~(cprng : Prng.t) ()
    : cluster_run =
  let kernel, leader = Durable.boot () in
  let cluster =
    Replication.create kernel ~leader ~replicas ~staleness
      ~torn:(fun unsynced -> Prng.int cprng (unsynced + 1))
      ()
  in
  let leader_db = db leader in
  let reads = ref [] in
  let crashes = ref 0 in
  let recoveries = ref 0 in
  (* seeded recovery schedule: a downed replica recovers after this many
     further workload items *)
  let countdown = Array.make replicas (-1) in
  let was_down = Array.make replicas false in
  let after_item () =
    for i = 0 to replicas - 1 do
      let down = Replication.replica_state cluster i = Replication.Down in
      if down && not was_down.(i) then begin
        incr crashes;
        countdown.(i) <- 2 + Prng.int cprng 4
      end;
      was_down.(i) <- down;
      if down then begin
        countdown.(i) <- countdown.(i) - 1;
        if countdown.(i) <= 0 then begin
          Replication.recover cluster i;
          if Replication.replica_state cluster i <> Replication.Down then
            incr recoveries
          else (* crashed again mid-catch-up: reschedule *)
            countdown.(i) <- 2 + Prng.int cprng 4;
          was_down.(i) <-
            Replication.replica_state cluster i = Replication.Down
        end
      end
    done
  in
  List.iter
    (fun item ->
      (match item with
      | Write { sql; _ } -> (
        match Replication.exec cluster sql with
        | Protocol.Error_response msg ->
          invalid_arg
            (Printf.sprintf "Check.replica: leader refused %s: %s" sql msg)
        | _ -> ())
      | Ckpt -> Durable.checkpoint leader
      | Read sql ->
        let leader_now = Database.clock leader_db in
        let served = Replication.read cluster sql in
        reads :=
          { rr_ordinal = List.length !reads + 1;
            rr_sql = sql;
            rr_version = served.Replication.sv_version;
            rr_node = served.Replication.sv_node;
            rr_stale =
              served.Replication.sv_node >= 0
              && served.Replication.sv_version < leader_now;
            rr_fingerprint = response_fingerprint served.Replication.sv_resp
          }
          :: !reads);
      after_item ())
    items;
  Ldv_faults.without_plan (fun () -> Replication.quiesce cluster);
  { c_leader = leader_db;
    c_reads = List.rev !reads;
    c_crashes = !crashes;
    c_recoveries = !recoveries;
    c_converged = Replication.converged cluster;
    c_control = control items }

(* Re-execute one recorded read on the control database, pinned [AS OF]
   the version it was served at, clock-frozen: the engine's retained
   version history makes every historically served answer checkable
   after the fact. *)
let control_read (control : Durable.t) (r : read_rec) : string =
  let server = Durable.server control in
  let pinned =
    Snapshot_pin.pin_statement r.rr_version (Minidb.Sql_parser.parse r.rr_sql)
  in
  response_fingerprint
    (Database.with_frozen_clock (Server.db server) (fun () ->
         Server.exec_ast server pinned))

(** Rotates ship faults (dropped / garbled / reordered WAL frames), a
    one-shot [repl.apply] crash that power-fails one replica mid-apply,
    and both. A stale read (served below the leader's then-current
    version, within the staleness bound) is allowed; a wrong one is not. *)
let replica ~replicas : cluster_run scenario =
  if replicas < 1 then invalid_arg "Check.replica: replicas must be >= 1";
  { s_name = "replicacheck";
    s_header =
      (fun ~campaigns ~seed ->
        Printf.sprintf "replicacheck: %d campaigns, %d replicas, seed %d"
          campaigns replicas seed);
    s_attrs = [ ("replicas", string_of_int replicas) ];
    s_label_width = 15;
    s_strict = true;
    s_arms =
      (fun ~campaign root ->
        let seed, cprng = campaign_prng root in
        let items = gen_accounts ~reads:true (Prng.split cprng) in
        let name =
          [| "ship-faults"; "apply-crash"; "combined" |].(campaign mod 3)
        in
        let p_ship =
          if name = "apply-crash" then 0.0
          else 0.08 +. (0.04 *. float_of_int (Prng.int cprng 4))
        in
        let occurrence =
          if name = "ship-faults" then 0 else 1 + Prng.int cprng 24
        in
        let staleness = 1 + Prng.int cprng 4 in
        [ { a_columns =
              Printf.sprintf "%-11s p_ship %.2f occ %-2d stale<=%d " name p_ship
                occurrence staleness;
            a_attrs =
              [ ("scenario", name); ("occurrence", string_of_int occurrence) ];
            a_plan =
              (if occurrence > 0 then
                 Ldv_faults.make ~p_ship ~crash:("repl.apply", occurrence) ~seed
                   ()
               else Ldv_faults.make ~p_ship ~seed ());
            a_exec = run_cluster ~items ~replicas ~staleness ~cprng } ]);
    s_checks =
      [ (fun c ->
          Option.map
            (fun (replica, first) ->
              Not_converged (Printf.sprintf "replica %d: %s" replica first))
            c.c_converged);
        (fun c ->
          let want = Fingerprint.state (db c.c_control)
          and got = Fingerprint.state c.c_leader in
          if String.equal want got then None
          else
            Some
              (Leader_diverged
                 (Fingerprint.first_diff ~left:"control" ~right:"leader" want
                    got)));
        (fun c ->
          List.find_map
            (fun r ->
              let want = control_read c.c_control r in
              if String.equal want r.rr_fingerprint then None
              else
                Some
                  (Read_diverged
                     (Printf.sprintf
                        "read #%d (node %d): control %S vs served %S"
                        r.rr_ordinal r.rr_node want r.rr_fingerprint)))
            c.c_reads) ];
    s_verified =
      (fun c ->
        let count p = List.length (List.filter p c.c_reads) in
        Verified
          (Printf.sprintf
             "%d reads (%d replica, %d stale, %d fallback), %d crashes, %d \
              recoveries"
             (List.length c.c_reads)
             (count (fun r -> r.rr_node >= 0))
             (count (fun r -> r.rr_stale))
             (count (fun r -> r.rr_node < 0))
             c.c_crashes c.c_recoveries)) }

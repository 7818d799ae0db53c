(** Seeded, deterministic fault injection for the LDV pipeline.

    A {!plan} is a process-wide description of which failures to inject and
    how often, driven entirely by a splittable SplitMix64 PRNG (the same
    generator behind [Tpch.Prng]): the same seed always injects the same
    faults at the same decision points, so every failing campaign is
    reproducible bit for bit.

    Decision points are consulted from the instrumented layers:

    - {!syscall_fault} from [Minios.Kernel]'s file syscalls
      (EIO / ENOSPC / EINTR);
    - {!connection_fault} from [Dbclient.Client]'s request path
      (dropped connections, garbled response frames);
    - {!corrupt_package} from the [ldv check faults] campaigns
      (bit flips and truncation of serialized package bytes).

    With no plan installed every decision point is a single [ref] read
    returning [None], so production paths pay nothing.

    The module also carries the recovery machinery the injections
    exercise: {!with_retries}, a bounded deterministic retry loop for
    transient errors (backoff is logical — recorded through [Ldv_obs]
    rather than slept), and {!Crc32}, the checksum the package format uses
    to detect corruption. *)

(* ------------------------------------------------------------------ *)
(* Splittable SplitMix64.                                              *)

module Prng = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int seed }

  let next_int64 t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  (** Derive an independent child stream; advancing the child never
      perturbs the parent's sequence (or vice versa). *)
  let split t = { state = next_int64 t }

  let int t bound =
    if bound <= 0 then invalid_arg "Ldv_faults.Prng.int: bound must be positive";
    let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    v mod bound

  let float t =
    let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
    v /. 9007199254740992.0 (* 2^53 *)

  let bool t = int t 2 = 0
end

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
   of package sections, WAL frames and table images.                   *)

module Crc32 = struct
  (* Slicing-by-8 over native ints: [tables.((k * 256) + n)] is the CRC
     register after byte [n] is followed by [k] zero bytes, so one step
     folds eight input bytes with eight lookups. Row 0 is the classic
     bytewise table, which finishes the last [len mod 8] bytes. *)
  let tables =
    lazy
      (let t = Array.make 2048 0 in
       for n = 0 to 255 do
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         t.(n) <- !c
       done;
       for i = 256 to 2047 do
         let prev = t.(i - 256) in
         t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
       done;
       t)

  (** The CRC of [len] bytes of [b] starting at [pos]. *)
  let digest_bytes (b : Bytes.t) ~pos ~len : int32 =
    if pos < 0 || len < 0 || pos > Bytes.length b - len then
      invalid_arg "Ldv_faults.Crc32.digest_bytes";
    let t = Lazy.force tables in
    let at i = Array.unsafe_get t i in
    let u32 i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF in
    let crc = ref 0xFFFFFFFF and i = ref pos in
    let blocks_end = pos + (len land lnot 7) in
    while !i < blocks_end do
      let lo = !crc lxor u32 !i and hi = u32 (!i + 4) in
      crc :=
        at (0x700 + (lo land 0xff))
        lxor at (0x600 + ((lo lsr 8) land 0xff))
        lxor at (0x500 + ((lo lsr 16) land 0xff))
        lxor at (0x400 + (lo lsr 24))
        lxor at (0x300 + (hi land 0xff))
        lxor at (0x200 + ((hi lsr 8) land 0xff))
        lxor at (0x100 + ((hi lsr 16) land 0xff))
        lxor at (hi lsr 24);
      i := !i + 8
    done;
    for j = blocks_end to pos + len - 1 do
      crc :=
        at ((!crc lxor Char.code (Bytes.unsafe_get b j)) land 0xff)
        lxor (!crc lsr 8)
    done;
    Int32.of_int (!crc lxor 0xFFFFFFFF)

  let digest (s : string) : int32 =
    digest_bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
end

(* ------------------------------------------------------------------ *)
(* Fault plans.                                                        *)

type counts = {
  mutable n_eio : int;
  mutable n_enospc : int;
  mutable n_eintr : int;
  mutable n_drop : int;
  mutable n_garble : int;
  mutable n_flip : int;
  mutable n_truncate : int;
  mutable n_crash : int;
  mutable n_ship_drop : int;
  mutable n_ship_garble : int;
  mutable n_ship_reorder : int;
  mutable n_abort : int;
}

let zero_counts () =
  { n_eio = 0; n_enospc = 0; n_eintr = 0; n_drop = 0; n_garble = 0;
    n_flip = 0; n_truncate = 0; n_crash = 0; n_ship_drop = 0;
    n_ship_garble = 0; n_ship_reorder = 0; n_abort = 0 }

type plan = {
  seed : int;
  p_syscall : float;  (** per-syscall fault probability *)
  p_conn : float;  (** per-request connection fault probability *)
  p_corrupt : float;  (** per-package corruption probability *)
  p_ship : float;  (** per-record WAL-ship channel fault probability *)
  p_abort : float;
      (** per-statement injected transaction-abort probability (in-tx DML
          only) *)
  crash_site : string option;
      (** named crash point to detonate (see {!crash_point}) *)
  mutable crash_after : int;
      (** detonate on the nth consultation of [crash_site]; [<= 0] means
          already fired (or never armed) *)
  sys_prng : Prng.t;
  conn_prng : Prng.t;
  pkg_prng : Prng.t;
  ship_prng : Prng.t;
  abort_prng : Prng.t;
  counts : counts;
}

let make ?(p_syscall = 0.0) ?(p_conn = 0.0) ?(p_corrupt = 0.0)
    ?(p_ship = 0.0) ?(p_abort = 0.0) ?crash ~seed () : plan =
  let root = Prng.create ~seed in
  (* independent streams per injection site: decisions at one site never
     shift another site's sequence *)
  let sys_prng = Prng.split root in
  let conn_prng = Prng.split root in
  let pkg_prng = Prng.split root in
  let ship_prng = Prng.split root in
  (* split last so pre-existing campaigns keep their exact streams *)
  let abort_prng = Prng.split root in
  let crash_site, crash_after =
    match crash with
    | Some (site, n) when n >= 1 -> (Some site, n)
    | Some (site, _) ->
      invalid_arg
        (Printf.sprintf "Ldv_faults.make: crash occurrence for %s must be >= 1"
           site)
    | None -> (None, 0)
  in
  { seed; p_syscall; p_conn; p_corrupt; p_ship; p_abort; crash_site;
    crash_after; sys_prng; conn_prng; pkg_prng; ship_prng; abort_prng;
    counts = zero_counts () }

let seed (p : plan) = p.seed

(** Injection tallies so far, as stable (name, count) pairs — the
    deterministic core of a campaign report. *)
let injected (p : plan) : (string * int) list =
  [ ("eio", p.counts.n_eio); ("enospc", p.counts.n_enospc);
    ("eintr", p.counts.n_eintr); ("drop", p.counts.n_drop);
    ("garble", p.counts.n_garble); ("flip", p.counts.n_flip);
    ("truncate", p.counts.n_truncate); ("crash", p.counts.n_crash);
    ("ship.drop", p.counts.n_ship_drop);
    ("ship.garble", p.counts.n_ship_garble);
    ("ship.reorder", p.counts.n_ship_reorder);
    ("abort", p.counts.n_abort) ]

let current : plan option ref = ref None

let install p = current := Some p
let clear () = current := None
let enabled () = !current <> None
let active () = !current

let swap_plan plan f =
  let previous = !current in
  current := plan;
  Fun.protect ~finally:(fun () -> current := previous) f

(** Install [p] for the duration of [f]; always restores the previous
    plan, even when [f] raises. *)
let with_plan p f = swap_plan (Some p) f

(** Run [f] with no plan installed (a campaign's fault-free control arm);
    always restores the previous plan, even when [f] raises. *)
let without_plan f = swap_plan None f

(* ------------------------------------------------------------------ *)
(* Decision points.                                                    *)

(** Raised by {!crash_point} when the armed crash site detonates. Not an
    {!Ldv_errors.t}: a simulated power failure is control flow for the
    crash-consistency harness (which catches it, drops unsynced bytes,
    and recovers), never an error a production path should classify. *)
exception Crash of string

(** A named crash point in the durability machinery ([wal.append],
    [ckpt.pre_rename], ...). When the installed plan is armed for [site],
    the nth consultation raises {!Crash}; the plan then disarms itself so
    recovery code running under the same plan cannot crash again. *)
let crash_point ~site =
  match !current with
  | None -> ()
  | Some p -> (
    match p.crash_site with
    | Some s when String.equal s site && p.crash_after > 0 ->
      p.crash_after <- p.crash_after - 1;
      if p.crash_after = 0 then begin
        p.crash_after <- -1;
        p.counts.n_crash <- p.counts.n_crash + 1;
        Ldv_obs.counter "faults.inject.crash";
        raise (Crash site)
      end
    | Some _ | None -> ())

(** Should this syscall fail? EINTR is twice as likely as either
    permanent fault, mirroring the real-world mix where most injected
    noise is restartable. [op]/[path] only label the resulting error. *)
let syscall_fault ~op:_ ~path:_ : Ldv_errors.io_fault option =
  match !current with
  | None -> None
  | Some p ->
    if p.p_syscall > 0.0 && Prng.float p.sys_prng < p.p_syscall then begin
      let fault =
        match Prng.int p.sys_prng 4 with
        | 0 -> Ldv_errors.Eio
        | 1 -> Ldv_errors.Enospc
        | _ -> Ldv_errors.Eintr
      in
      (match fault with
      | Ldv_errors.Eio -> p.counts.n_eio <- p.counts.n_eio + 1
      | Ldv_errors.Enospc -> p.counts.n_enospc <- p.counts.n_enospc + 1
      | Ldv_errors.Eintr -> p.counts.n_eintr <- p.counts.n_eintr + 1
      | Ldv_errors.Enoent -> ());
      Ldv_obs.counter ("faults.inject." ^ String.lowercase_ascii (Ldv_errors.io_fault_name fault));
      Some fault
    end
    else None

(** Should this client request fail before reaching the server? A lost
    connection and a garbled response frame are equally likely; both are
    injected *before* execution, so retrying the request is always safe. *)
let connection_fault () : [ `Drop | `Garble ] option =
  match !current with
  | None -> None
  | Some p ->
    if p.p_conn > 0.0 && Prng.float p.conn_prng < p.p_conn then
      if Prng.bool p.conn_prng then begin
        p.counts.n_drop <- p.counts.n_drop + 1;
        Ldv_obs.counter "faults.inject.drop";
        Some `Drop
      end
      else begin
        p.counts.n_garble <- p.counts.n_garble + 1;
        Ldv_obs.counter "faults.inject.garble";
        Some `Garble
      end
    else None

(** Should this WAL-ship send misbehave? Drop (the frame never arrives),
    garble (it arrives with flipped bytes and fails the replica's CRC
    check), and reorder (it is delayed behind the next frame) are equally
    likely. Drop and garble are injected before the replica applies
    anything, so resending is always safe. *)
let ship_fault () : [ `Drop | `Garble | `Reorder ] option =
  match !current with
  | None -> None
  | Some p ->
    if p.p_ship > 0.0 && Prng.float p.ship_prng < p.p_ship then begin
      let fault =
        match Prng.int p.ship_prng 3 with
        | 0 -> `Drop
        | 1 -> `Garble
        | _ -> `Reorder
      in
      (match fault with
      | `Drop -> p.counts.n_ship_drop <- p.counts.n_ship_drop + 1
      | `Garble -> p.counts.n_ship_garble <- p.counts.n_ship_garble + 1
      | `Reorder -> p.counts.n_ship_reorder <- p.counts.n_ship_reorder + 1);
      Ldv_obs.counter
        ("faults.inject.ship."
        ^ match fault with
          | `Drop -> "drop"
          | `Garble -> "garble"
          | `Reorder -> "reorder");
      Some fault
    end
    else None

(** Should this in-transaction statement be aborted by an injected
    write-write conflict? Consulted by the interceptor for DML executed
    inside an open transaction; a [true] answer surfaces as a synthetic
    {!Ldv_errors.Tx_conflict}, exercising the abort/rollback/retry path
    without needing two sessions to actually collide. *)
let abort_fault () : bool =
  match !current with
  | None -> false
  | Some p ->
    if p.p_abort > 0.0 && Prng.float p.abort_prng < p.p_abort then begin
      p.counts.n_abort <- p.counts.n_abort + 1;
      Ldv_obs.counter "faults.inject.abort";
      true
    end
    else false

(** Maybe corrupt serialized package bytes: a single bit flip at a random
    offset, or truncation at a random cut point. Returns the corrupted
    bytes and a description, or [None] for "left intact". *)
let corrupt_package (data : string) : (string * string) option =
  match !current with
  | None -> None
  | Some p ->
    if
      String.length data > 0
      && p.p_corrupt > 0.0
      && Prng.float p.pkg_prng < p.p_corrupt
    then
      if Prng.bool p.pkg_prng then begin
        let off = Prng.int p.pkg_prng (String.length data) in
        let bit = Prng.int p.pkg_prng 8 in
        let b = Bytes.of_string data in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
        p.counts.n_flip <- p.counts.n_flip + 1;
        Ldv_obs.counter "faults.inject.flip";
        Some (Bytes.to_string b, Printf.sprintf "bit %d flipped at byte %d" bit off)
      end
      else begin
        let keep = Prng.int p.pkg_prng (String.length data) in
        p.counts.n_truncate <- p.counts.n_truncate + 1;
        Ldv_obs.counter "faults.inject.truncate";
        Some
          ( String.sub data 0 keep,
            Printf.sprintf "truncated to %d of %d bytes" keep (String.length data) )
      end
    else None

(* ------------------------------------------------------------------ *)
(* Recovery: bounded deterministic retry.                              *)

let default_attempts = 4

(** Logical exponential backoff for the [n]-th retry, in milliseconds.
    Nothing sleeps: the simulated pipeline has no wall-clock to wait on,
    so the backoff is recorded through [Ldv_obs] instead. *)
let backoff_ms n = ldexp 1.0 n

(** Run [f], retrying transient {!Ldv_errors} failures (lost connections,
    garbled frames, EINTR) up to [attempts] times in total. Permanent
    errors propagate immediately; a transient error that survives every
    attempt is wrapped in [Retries_exhausted]. Retry telemetry is tagged
    with the call site: [faults.retry.<op>.<tag>] alongside the global
    [faults.retry], so a campaign report can tell a flaky ship channel
    from a flaky client connection. [cap_ms] bounds the *total* logical
    backoff: once the accumulated backoff would exceed it, the loop gives
    up early with [Retries_exhausted] — a permanently dead peer fails
    fast instead of riding every attempt to max backoff. *)
let with_retries ?(attempts = default_attempts) ?cap_ms ~op f =
  let exhausted ~n e =
    Ldv_errors.fail
      (Ldv_errors.Retries_exhausted { op; attempts = n; last = e })
  in
  let rec go n spent =
    match f () with
    | v -> v
    | exception Ldv_errors.Error e when Ldv_errors.is_transient e ->
      let pause = backoff_ms n in
      let capped =
        match cap_ms with Some cap -> spent +. pause > cap | None -> false
      in
      if n + 1 >= attempts || capped then exhausted ~n:(n + 1) e
      else begin
        if Ldv_obs.enabled () then begin
          Ldv_obs.counter "faults.retry";
          Ldv_obs.counter
            (Printf.sprintf "faults.retry.%s.%s" op (Ldv_errors.tag e));
          Ldv_obs.observe "faults.backoff_ms" pause
        end;
        go (n + 1) (spent +. pause)
      end
  in
  go 0 0.0

(** The simulated kernel: process management, file syscalls, a logical
    clock, and an optional tracer hook.

    Execution is sequential and deterministic: [spawn] runs the child
    program to completion before returning (fork-and-wait semantics), and
    every syscall advances the logical clock by one tick. When a tracer
    hook is installed it observes the full syscall stream — the moral
    equivalent of running the application under [ptrace].

    A cooperative scheduler ([Minios.Sched]) can switch the kernel into
    preemptive mode, in which every file syscall performs the [Yield]
    effect before touching state. The scheduler handles the effect by
    parking the process's continuation and running another process, so N
    programs interleave at syscall granularity while each still sees
    sequential semantics between its own yield points. *)

type fd = int

type open_file = { path : string; mode : Syscall.file_mode; opened_at : int }

type process = {
  pid : int;
  pname : string;
  parent : int option;
  binary : string option;
  mutable fds : (fd * open_file) list;
  mutable next_fd : fd;
  mutable alive : bool;
}

type t = {
  vfs : Vfs.t;
  mutable clock : int;
  mutable next_pid : int;
  processes : (int, process) Hashtbl.t;
  mutable trace_hook : (Syscall.event -> unit) option;
  mutable preemptive : bool;
  mutable spawn_hook : (pid:int -> (unit -> unit) -> unit) option;
  mutable quantum_hooks : (string * (unit -> unit)) list;
  mutable rounds : int;  (** completed scheduling rounds *)
}

let create ?(vfs = Vfs.create ()) () =
  { vfs;
    clock = 0;
    next_pid = 1;
    processes = Hashtbl.create 16;
    trace_hook = None;
    preemptive = false;
    spawn_hook = None;
    quantum_hooks = [];
    rounds = 0 }

let vfs t = t.vfs
let now t = t.clock

(* ------------------------------------------------------------------ *)
(* Cooperative preemption. The effect is declared here (rather than in
   the scheduler) so syscalls can perform it without a dependency cycle;
   it is only ever performed while [preemptive] is set, which only the
   scheduler sets — with no handler installed the flag stays false and
   the kernel behaves exactly as before. *)

type _ Effect.t += Yield : unit Effect.t

let yield_point t = if t.preemptive then Effect.perform Yield
let preemptive t = t.preemptive
let set_preemptive t on = t.preemptive <- on
let spawn_hook t = t.spawn_hook
let set_spawn_hook t hook = t.spawn_hook <- hook

(* Quantum hooks run after every full scheduling round, outside any
   process context and with preemption masked (a hook performing I/O must
   not itself yield — there is no continuation to park). Registration
   replaces by name so re-arming an idempotent hook (e.g. the WAL's group
   commit flush) never duplicates it. *)
let register_quantum_hook t ~name f =
  t.quantum_hooks <-
    (name, f) :: List.filter (fun (n, _) -> not (String.equal n name)) t.quantum_hooks

let run_quantum_hooks t =
  let saved = t.preemptive in
  t.preemptive <- false;
  t.rounds <- t.rounds + 1;
  Fun.protect
    ~finally:(fun () -> t.preemptive <- saved)
    (fun () ->
      List.iter (fun (_, f) -> f ()) (List.rev t.quantum_hooks);
      (* sample the registered gauges after the hooks, so hook-side effects
         (e.g. the group-commit flush's fsync barrier) are visible in this
         round's quantum record *)
      Ldv_obs.sample_quantum ~round:t.rounds ())

(** The number of completed scheduling rounds (quantum-hook runs) on this
    kernel — the unit the WAL's rounds-deferred accounting is in. *)
let rounds t = t.rounds

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(** Advance the clock to at least [at]; used to merge external logical
    timelines (the DB's statement clock) into the OS timeline. *)
let advance_to t ~at = if at > t.clock then t.clock <- at

let set_tracer t hook = t.trace_hook <- hook

module Obs = Ldv_obs

(* Fault gate: consult the installed fault plan (if any) before a file
   syscall touches state. EINTR is restarted in place — the syscall-restart
   semantics of SA_RESTART — while EIO/ENOSPC surface as typed errors. The
   restart loop is capped so a pathological plan (p = 1.0) still
   terminates, degrading the fault to EIO. *)
let max_eintr_restarts = 16

let fault_gate ~op ~path =
  if Ldv_faults.enabled () then begin
    let rec go restarts =
      match Ldv_faults.syscall_fault ~op ~path with
      | None -> ()
      | Some Ldv_errors.Eintr when restarts < max_eintr_restarts ->
        Obs.counter "os.syscall.restart";
        go (restarts + 1)
      | Some Ldv_errors.Eintr ->
        Ldv_errors.fail (Ldv_errors.Io_fault { op; path; fault = Ldv_errors.Eio })
      | Some fault -> Ldv_errors.fail (Ldv_errors.Io_fault { op; path; fault })
    in
    go 0
  end

let emit t event =
  match t.trace_hook with None -> () | Some hook -> hook event

let find_process t pid =
  match Hashtbl.find_opt t.processes pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Kernel: unknown pid %d" pid)

(* Loading a binary and its shared libraries shows up to ptrace as the
   process reading those files; CDE-style packaging depends on seeing these
   reads. *)
let record_image_reads t pid paths =
  List.iter
    (fun path ->
      if Vfs.exists t.vfs path then begin
        let opened_at = tick t in
        emit t (Syscall.Opened { pid; path; mode = Syscall.Read; time = opened_at });
        let time = tick t in
        emit t (Syscall.Closed { pid; path; mode = Syscall.Read; opened_at; time })
      end)
    paths

let start_process t ?parent ?binary ?(libs = []) ~name () =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let p =
    { pid; pname = name; parent; binary; fds = []; next_fd = 3; alive = true }
  in
  Hashtbl.replace t.processes pid p;
  Obs.counter "os.syscall.spawn";
  let time = tick t in
  emit t (Syscall.Spawned { parent; pid; name; binary; time });
  record_image_reads t pid (Option.to_list binary @ libs);
  p

let exit_process t pid =
  let p = find_process t pid in
  if p.alive then begin
    (* close leaked fds before exiting, as the OS would *)
    List.iter
      (fun (_, of_) ->
        let time = tick t in
        emit t
          (Syscall.Closed
             { pid;
               path = of_.path;
               mode = of_.mode;
               opened_at = of_.opened_at;
               time }))
      p.fds;
    p.fds <- [];
    p.alive <- false;
    Obs.counter "os.syscall.exit";
    let time = tick t in
    emit t (Syscall.Exited { pid; time })
  end

(* ------------------------------------------------------------------ *)
(* File syscalls.                                                      *)

let open_file t ~pid ~path ~mode : fd =
  yield_point t;
  let p = find_process t pid in
  if not p.alive then invalid_arg "Kernel.open_file: dead process";
  fault_gate ~op:"open" ~path;
  (match mode with
  | Syscall.Read ->
    if not (Vfs.exists t.vfs path) then
      Ldv_errors.fail
        (Ldv_errors.Io_fault { op = "open"; path; fault = Ldv_errors.Enoent })
  | Syscall.Write ->
    (* open for write truncates/creates; the truncation is buffered, so a
       crash before fsync resurrects the previous durable content *)
    Vfs.truncate_buffered t.vfs ~path ~mtime:t.clock ());
  Obs.counter "os.syscall.open";
  let opened_at = tick t in
  emit t (Syscall.Opened { pid; path; mode; time = opened_at });
  let fd = p.next_fd in
  p.next_fd <- fd + 1;
  p.fds <- (fd, { path; mode; opened_at }) :: p.fds;
  fd

let fd_entry p fd =
  match List.assoc_opt fd p.fds with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Kernel: bad fd %d" fd)

(* The read syscall without its result: the file's path for the caller
   that wants its bytes. *)
let read_syscall t ~pid ~fd =
  yield_point t;
  let p = find_process t pid in
  let e = fd_entry p fd in
  if e.mode <> Syscall.Read then invalid_arg "Kernel.read_fd: fd open for write";
  fault_gate ~op:"read" ~path:e.path;
  Obs.counter "os.syscall.read";
  ignore (tick t);
  e.path

let read_fd t ~pid ~fd : string = Vfs.read t.vfs (read_syscall t ~pid ~fd)

(** A read whose bytes go nowhere: the same syscall, clock tick and fault
    gate as {!read_fd}, without asking the file for its content, so
    deferred content stays unproduced. *)
let read_fd_discard t ~pid ~fd = ignore (read_syscall t ~pid ~fd)

(** Write any VFS content through the buffered path: visible to readers
    at once, durable only once an fsync barrier covers it. Deferred
    content written to a freshly opened fd stays deferred. *)
let write_fd_content t ~pid ~fd (content : Vfs.content) =
  yield_point t;
  let p = find_process t pid in
  let e = fd_entry p fd in
  if e.mode <> Syscall.Write then invalid_arg "Kernel.write_fd: fd open for read";
  fault_gate ~op:"write" ~path:e.path;
  Obs.counter "os.syscall.write";
  if Obs.enabled () then
    Obs.counter ~by:(Vfs.content_size content) "os.bytes_written";
  let time = tick t in
  Vfs.append_content_buffered t.vfs ~path:e.path ~mtime:time content

let write_fd t ~pid ~fd (data : string) =
  write_fd_content t ~pid ~fd (Vfs.Data data)

let fsync_fd t ~pid ~fd =
  yield_point t;
  let p = find_process t pid in
  let e = fd_entry p fd in
  fault_gate ~op:"fsync" ~path:e.path;
  Obs.counter "os.syscall.fsync";
  ignore (tick t);
  Vfs.fsync t.vfs e.path

let close_fd t ~pid ~fd =
  yield_point t;
  let p = find_process t pid in
  let e = fd_entry p fd in
  fault_gate ~op:"close" ~path:e.path;
  p.fds <- List.remove_assoc fd p.fds;
  Obs.counter "os.syscall.close";
  let time = tick t in
  emit t
    (Syscall.Closed
       { pid; path = e.path; mode = e.mode; opened_at = e.opened_at; time })

(* ------------------------------------------------------------------ *)
(* Path-addressed durability syscalls. The WAL and checkpoint machinery
   in [Dbclient.Durable] appends to long-lived log files across many
   statements; fd-based [open_file] truncates on open, so these operate
   on paths directly (the moral equivalent of O_APPEND + fsync +
   rename). They still pay the fault gate and advance the clock like any
   other syscall. *)

let live_process t pid =
  let p = find_process t pid in
  if not p.alive then invalid_arg "Kernel: dead process";
  p

let append_path t ~pid ~path (data : string) =
  yield_point t;
  ignore (live_process t pid);
  fault_gate ~op:"write" ~path;
  Obs.counter "os.syscall.write";
  if Obs.enabled () then Obs.counter ~by:(String.length data) "os.bytes_written";
  let time = tick t in
  Vfs.append_buffered t.vfs ~path ~mtime:time data

(** Replace [path]'s content through the buffered path, as an open for
    write plus one write would: the truncation and the new content are
    lost by a crash until an fsync covers them. Deferred content stays
    deferred. *)
let overwrite_path_content t ~pid ~path (content : Vfs.content) =
  yield_point t;
  ignore (live_process t pid);
  fault_gate ~op:"write" ~path;
  Obs.counter "os.syscall.write";
  if Obs.enabled () then
    Obs.counter ~by:(Vfs.content_size content) "os.bytes_written";
  let time = tick t in
  Vfs.truncate_buffered t.vfs ~path ~mtime:time ();
  Vfs.append_content_buffered t.vfs ~path ~mtime:time content

let overwrite_path t ~pid ~path (data : string) =
  overwrite_path_content t ~pid ~path (Vfs.Data data)

let fsync_path t ~pid ~path =
  yield_point t;
  ignore (live_process t pid);
  fault_gate ~op:"fsync" ~path;
  Obs.counter "os.syscall.fsync";
  ignore (tick t);
  Vfs.fsync t.vfs path

let rename_path t ~pid ~src ~dst =
  yield_point t;
  ignore (live_process t pid);
  fault_gate ~op:"rename" ~path:src;
  Obs.counter "os.syscall.rename";
  ignore (tick t);
  Vfs.rename t.vfs ~src ~dst

(* ------------------------------------------------------------------ *)
(* Crash: simulated power failure. Every process dies on the spot (no
   orderly close events — that is the point) and the file system reverts
   to its last-synced state, except for any torn tails in [keep]. The
   kernel itself survives: its clock is the hardware clock and keeps
   running across the reboot. *)

let crash t ?(keep = []) () =
  Obs.counter "os.crash";
  Hashtbl.iter
    (fun _ p ->
      if p.alive then begin
        p.fds <- [];
        p.alive <- false
      end)
    t.processes;
  Vfs.crash t.vfs ~keep ()

(** A canned multi-client workload over a shared [notes] table: the demo
    and test fixture for the concurrent audit path. Each client mixes
    inserts, updates, and count-the-table reads whose answers depend on how the
    sessions interleave — which is exactly what the seeded scheduler and
    the recorded schedule must reproduce. *)

open Minidb
module I = Dbclient.Interceptor

let db_name = "app"

(** Pre-existing state: tuples no session creates, so slicing must ship
    them in the package. *)
let install_fixture (server : Dbclient.Server.t) =
  List.iter
    (fun sql ->
      match Dbclient.Server.handle server sql with
      | Dbclient.Protocol.Error_response m ->
        invalid_arg ("Concurrent.install_fixture: " ^ m)
      | _ -> ())
    [ "CREATE TABLE notes (id INT, author TEXT, body TEXT)";
      "INSERT INTO notes VALUES (1, 'seed', 'alpha')";
      "INSERT INTO notes VALUES (2, 'seed', 'beta')";
      "INSERT INTO notes VALUES (3, 'seed', 'gamma')";
      "INSERT INTO notes VALUES (4, 'seed', 'delta')" ]

(* The statement count is part of the registry name: a registered program
   must keep meaning the same thing for as long as a package referencing
   it can be replayed in this process. *)
let client_name ~statements i = Printf.sprintf "cc-client-%d-s%d" i statements
let client_binary i = Printf.sprintf "/app/bin/cc-client-%d" i
let client_libs = [ "/usr/lib/libc.so.6"; "/opt/minidb/lib/libpq.so.5" ]

(** Client [i]: [statements] statements cycling insert / update / count,
    phase-shifted by [i] so concurrent sessions are always in different
    phases. Ids are namespaced per client; the summary of every response
    lands in [/out/client-<i>.txt], an output file replay must reproduce
    byte-identically. *)
let client_program ~statements i : Minios.Program.program =
 fun env ->
  let conn = Dbclient.Client.connect env ~db:db_name in
  let buf = Buffer.create 64 in
  for j = 1 to statements do
    match (i + j) mod 3 with
    | 0 ->
      let n =
        Dbclient.Client.exec conn
          (Printf.sprintf
             "INSERT INTO notes VALUES (%d, 'writer%d', 'note %d of client %d')"
             ((i * 1000) + j) i j i)
      in
      Buffer.add_string buf (Printf.sprintf "insert %d\n" n)
    | 1 ->
      let n =
        Dbclient.Client.exec conn
          (Printf.sprintf
             "UPDATE notes SET body = 'rev %d by client %d' WHERE author = \
              'writer%d'"
             j i i)
      in
      Buffer.add_string buf (Printf.sprintf "update %d\n" n)
    | _ -> (
      match Dbclient.Client.query conn "SELECT COUNT(*) FROM notes" with
      | [ [| Value.Int n |] ] ->
        Buffer.add_string buf (Printf.sprintf "count %d\n" n)
      | _ -> Buffer.add_string buf "count ?\n")
  done;
  Dbclient.Client.close conn;
  Minios.Program.write_file env
    (Printf.sprintf "/out/client-%d.txt" i)
    (Buffer.contents buf)

let tx_client_name ~rounds i = Printf.sprintf "cc-txclient-%d-r%d" i rounds
let tx_client_binary i = Printf.sprintf "/app/bin/cc-txclient-%d" i

(** Client [i] of the transactional workload: [rounds] interactive
    transactions. Most rounds run a {!Dbclient.Client.transaction} block
    that updates one of the four shared seed rows — every session hits
    the same row in the same round, so overlapping transactions hit
    genuine first-updater-wins conflicts, abort, and retry under the
    bounded-retry loop. Every fourth round instead opens a transaction on
    the client's private rows and ROLLBACKs it explicitly, so rolled-back
    outcomes appear in the recorded stream too. The per-round summary
    lands in [/out/tx-client-<i>.txt]; since aborts and retries shift
    affected counts, the file (and the recorded commit/abort decisions)
    only reproduce if replay re-creates the exact interleaving. *)
let tx_client_program ~rounds i : Minios.Program.program =
 fun env ->
  let conn = Dbclient.Client.connect env ~db:db_name in
  let buf = Buffer.create 64 in
  for j = 1 to rounds do
    if j mod 4 = 0 then
      (* explicit ROLLBACK round, on the client's private rows only; a
         conflict abort (injected, or a retried neighbour landing on a
         private row) discards the attempt just like the ROLLBACK would,
         so it is recorded and carried on from *)
      try
        ignore (Dbclient.Client.exec conn "BEGIN");
        let n =
          Dbclient.Client.exec conn
            (Printf.sprintf
               "UPDATE notes SET body = 'discarded rev %d' WHERE author = \
                'txwriter%d'"
               j i)
        in
        ignore (Dbclient.Client.exec conn "ROLLBACK");
        Buffer.add_string buf (Printf.sprintf "rollback %d (%d)\n" j n)
      with Ldv_errors.Error (Ldv_errors.Tx_conflict _) ->
        Buffer.add_string buf (Printf.sprintf "rollback %d aborted\n" j)
    else begin
      let n =
        Dbclient.Client.transaction ~attempts:12 conn
          [ (* the contended row is phase-shifted by session: sessions whose
               pace diverges (scheduler interleaving, earlier retries) land
               on the same seed row and conflict, without every session
               piling onto one row and starving the retry budget *)
            Printf.sprintf
              "UPDATE notes SET body = 'round %d by client %d' WHERE id = %d"
              j i
              (1 + ((i + j) mod 4));
            (* private ids start at 1000 so client 0's rows never collide
               with the shared seed rows (ids 1-4) *)
            Printf.sprintf
              "INSERT INTO notes VALUES (%d, 'txwriter%d', 'tx %d of client \
               %d')"
              (((i + 1) * 1000) + j)
              i j i ]
      in
      Buffer.add_string buf (Printf.sprintf "tx %d ok %d\n" j n)
    end
  done;
  (match Dbclient.Client.query conn "SELECT COUNT(*) FROM notes" with
  | [ [| Value.Int n |] ] ->
    Buffer.add_string buf (Printf.sprintf "count %d\n" n)
  | _ -> Buffer.add_string buf "count ?\n");
  Dbclient.Client.close conn;
  Minios.Program.write_file env
    (Printf.sprintf "/out/tx-client-%d.txt" i)
    (Buffer.contents buf)

(** The client list for [Audit.run_concurrent], with every program
    registered for replay. *)
let clients ~sessions ~statements : Audit.client list =
  List.init sessions (fun i ->
      let name = client_name ~statements i in
      let program = client_program ~statements i in
      Minios.Program.register ~name program;
      { Audit.cl_name = name;
        cl_binary = client_binary i;
        cl_libs = client_libs;
        cl_program = program })

(** The transactional client list, same registration contract. *)
let tx_clients ~sessions ~rounds : Audit.client list =
  List.init sessions (fun i ->
      let name = tx_client_name ~rounds i in
      let program = tx_client_program ~rounds i in
      Minios.Program.register ~name program;
      { Audit.cl_name = name;
        cl_binary = tx_client_binary i;
        cl_libs = client_libs;
        cl_program = program })

(** Re-register the client programs a recorded schedule refers to, so a
    concurrent package replays in a fresh process (`ldv exec`). Registry
    names encode the statement count, so a name always denotes the same
    program; names this module did not mint are left alone (replay will
    then report the missing program itself). *)
let register_schedule_clients (clients : (string * string) list) =
  List.iter
    (fun (name, _binary) ->
      match
        Scanf.sscanf_opt name "cc-client-%d-s%d%!" (fun i statements ->
            (i, statements))
      with
      | Some (i, statements) ->
        Minios.Program.register ~name (client_program ~statements i)
      | None -> (
        match
          Scanf.sscanf_opt name "cc-txclient-%d-r%d%!" (fun i rounds ->
              (i, rounds))
        with
        | Some (i, rounds) ->
          Minios.Program.register ~name (tx_client_program ~rounds i)
        | None -> ()))
    clients

(* A fresh kernel and database holding the [notes] fixture, with the
   client libraries and the binaries [binary 0 .. sessions - 1] in the
   VFS. *)
let deploy ~sessions ~binary =
  let kernel = Minios.Kernel.create () in
  let db = Database.create ~name:db_name () in
  let server = Dbclient.Server.install kernel db in
  install_fixture server;
  let vfs = Minios.Kernel.vfs kernel in
  Minios.Vfs.write_opaque vfs ~path:"/usr/lib/libc.so.6" 2_000_000;
  Minios.Vfs.write_opaque vfs ~path:"/opt/minidb/lib/libpq.so.5" 300_000;
  for i = 0 to sessions - 1 do
    Minios.Vfs.write_opaque vfs ~path:(binary i) 120_000
  done;
  (kernel, server)

(** A complete concurrent audited run: fresh kernel and database, the
    [notes] fixture, [sessions] clients of [statements] statements each,
    interleaved under [seed]. With [replicas > 0], a WAL-shipping cluster
    is stood up behind the server (bootstrapped from the post-fixture
    state): snapshot-pinned reads are served by read replicas and the
    answering node is recorded per read. *)
let audited ?(packaging = Audit.Included) ?(replicas = 0) ?(staleness = 4)
    ~sessions ~statements ~seed () : Audit.t =
  let kernel, server = deploy ~sessions ~binary:client_binary in
  let cluster =
    if replicas > 0 then begin
      let proc =
        Minios.Kernel.start_process kernel ~name:"minidb-leader" ()
      in
      let leader =
        Dbclient.Durable.start kernel server ~pid:proc.Minios.Kernel.pid
      in
      Some (Dbclient.Replication.create kernel ~leader ~replicas ~staleness ())
    end
    else None
  in
  Audit.run_concurrent ~packaging ~sched_seed:seed ?cluster kernel server
    (clients ~sessions ~statements)

(** A complete concurrent audited run of the transactional workload:
    [sessions] clients each running [rounds] interactive transactions
    over the shared [notes] fixture, interleaved under [seed]. No
    replication option here — interactive transactions and read replicas
    are not combined (see DESIGN.md). *)
let audited_tx ?(packaging = Audit.Included) ~sessions ~rounds ~seed () :
    Audit.t =
  let kernel, server = deploy ~sessions ~binary:tx_client_binary in
  Audit.run_concurrent ~packaging ~sched_seed:seed kernel server
    (tx_clients ~sessions ~rounds)

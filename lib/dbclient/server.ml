(** The DB server as a deployable artifact in the simulated OS.

    A server owns a {!Minidb.Database.t}, a binary installed in the VFS
    (opaque bytes: its size matters for package accounting, its content
    does not), and a data directory whose files hold a binary image of
    each table's live state. Starting the server under tracing makes the
    server process read its binary and data files — which is how PTU-style
    packaging comes to include the full DB, exactly as in the paper's
    baseline configuration (§IX-A). *)

open Minidb

(* Sizes modeled on a stock PostgreSQL 9.x install. *)
let default_binary_size = 38_000_000
let default_lib_sizes = [ ("libpq.so.5", 900_000); ("libssl.so", 2_300_000) ]

(* ------------------------------------------------------------------ *)
(* Native data-file format: a versioned, CRC-framed binary image of the
   schema, index definitions, row-id allocator and live tuple versions
   ({!Image}). Like
   PostgreSQL heap files it loads without parsing tuples out of text,
   which is why a PTU replay (which ships these files) has cheap DB
   initialization while a server-included LDV replay (which ships CSVs of
   the relevant subset) pays a per-tuple restore — the Figure 7b shape. *)

type table_image = Image.t

type t = {
  db : Database.t;
  binary_path : string;
  lib_paths : string list;
  data_dir : string;
  mutable server_pid : int option;
}

let db t = t.db
let binary_path t = t.binary_path
let lib_paths t = t.lib_paths
let data_dir t = t.data_dir

let data_file t table = Printf.sprintf "%s/%s.dat" t.data_dir table

let table_image = Image.of_table
let encode_table_image = Image.encode
let decode_table_image = Image.decode

(** Load a table image into a database, creating the table if needed.
    The table takes the image's row arrays over. *)
let restore_table_image (db : Database.t) (img : table_image) =
  let catalog = Database.catalog db in
  let table =
    match Catalog.find_opt catalog img.Image.name with
    | Some t -> t
    | None ->
      let schema =
        Schema.of_list
          (List.map (fun (n, ty) -> Schema.column n ty) img.Image.columns)
      in
      Catalog.create_table catalog ~name:img.Image.name ~schema
  in
  Database.sync_clock db
    ~at:(Table.restore_versions table (Image.row_list img));
  Table.restore_next_rid table img.Image.next_rid;
  (* the specs list each kind's indexes newest first: create them oldest
     first so the restored table lists them as the captured one did *)
  List.iter
    (fun (index_name, column, ordered) ->
      if
        column <> ""
        && not (List.mem index_name (Table.index_names table))
      then
        (* register through the catalog so DROP INDEX finds the owner *)
        Catalog.create_index ~ordered catalog ~index:index_name
          ~table:img.Image.name ~column)
    (List.rev img.Image.indexes)

(* ------------------------------------------------------------------ *)
(* Checkpoint image: every table plus the WAL high-water mark and the
   logical clock in ONE framed payload, so the rename that publishes it
   is atomic across tables — recovery never sees table A from before a
   checkpoint and table B from after it. *)

(* What a checkpoint encodes, captured now: the logical clock and every
   table's image. *)
type capture = { cap_clock : int; cap_tables : table_image list }

let capture_checkpoint (db : Database.t) : capture =
  let tables = ref [] in
  Catalog.iter (Database.catalog db) (fun table ->
      tables := Image.of_table table :: !tables);
  { cap_clock = Database.clock db; cap_tables = List.rev !tables }

let encode_capture (c : capture) ~last_seq : string =
  Image.encode_checkpoint ~last_seq ~clock:c.cap_clock c.cap_tables

(* A capture's checkpoint payload, produced only when something reads
   it: only recovery, a replica restart or a test asks for its bytes.
   Files written with one such value share its bytes. *)
let capture_content (c : capture) ~last_seq : Minios.Vfs.content =
  Minios.Vfs.Deferred
    { size =
        lazy
          (Image.checkpoint_encoded_size ~last_seq ~clock:c.cap_clock
             c.cap_tables);
      bytes = lazy (encode_capture c ~last_seq) }

let checkpoint_content (db : Database.t) ~last_seq : Minios.Vfs.content =
  capture_content (capture_checkpoint db) ~last_seq

let restore_tables (db : Database.t) ~clock tables =
  List.iter (restore_table_image db) tables;
  Database.sync_clock db ~at:clock

(** Load a capture into [db] (normally fresh), as decoding its encoded
    bytes would, without encoding or decoding anything. *)
let restore_capture (db : Database.t) (c : capture) =
  restore_tables db ~clock:c.cap_clock c.cap_tables

(** Load a checkpoint into [db] (normally fresh); returns the WAL
    sequence number the images already cover, so recovery replays only
    the suffix past it. *)
let restore_checkpoint (db : Database.t) (payload : string) : int =
  let last_seq, clock, tables = Image.decode_checkpoint payload in
  restore_tables db ~clock tables;
  last_seq

let checkpoint_seq = Image.checkpoint_seq

(** Create a server around a database and install its binary artifacts into
    the kernel's VFS. *)
let install (kernel : Minios.Kernel.t) ?(root = "/opt/minidb")
    ?(data_dir = "/var/minidb/data") ?(binary_size = default_binary_size)
    (db : Database.t) : t =
  let vfs = Minios.Kernel.vfs kernel in
  let binary_path = root ^ "/bin/minidb-server" in
  Minios.Vfs.write_opaque vfs ~path:binary_path binary_size;
  let lib_paths =
    List.map
      (fun (name, size) ->
        let path = root ^ "/lib/" ^ name in
        Minios.Vfs.write_opaque vfs ~path size;
        path)
      default_lib_sizes
  in
  { db; binary_path; lib_paths; data_dir; server_pid = None }

(* A table's data file as of now, produced only when something reads it:
   an LDV audit needs only the fact that the server read its files, and
   only a PTU package or a recovery asks for their bytes. *)
let data_file_content (table : Table.t) : Minios.Vfs.content =
  let image = table_image table in
  Minios.Vfs.Deferred
    { size = lazy (Image.encoded_size image);
      bytes = lazy (encode_table_image image) }

(** Write every table's live state into the data directory. Called at
    server start so the data files reflect the DB state valid at the start
    of the application — the state a re-execution must restore. *)
let sync_data_dir (kernel : Minios.Kernel.t) (t : t) =
  let vfs = Minios.Kernel.vfs kernel in
  Catalog.iter (Database.catalog t.db) (fun table ->
      Minios.Vfs.write vfs
        ~path:(data_file t (Table.name table))
        (data_file_content table))

(** Start the server as a traced OS process: it reads its binary, its
    libraries, and every data file, so a ptrace-based packager sees the
    whole DB. Returns the server pid. *)
let start_traced (kernel : Minios.Kernel.t) (t : t) : int =
  Ldv_obs.with_span "server.start_traced" @@ fun () ->
  sync_data_dir kernel t;
  let vfs = Minios.Kernel.vfs kernel in
  let proc =
    Minios.Kernel.start_process kernel ~binary:t.binary_path
      ~libs:t.lib_paths ~name:"minidb-server" ()
  in
  let pid = proc.Minios.Kernel.pid in
  (* the server scans its data directory on startup; the tables are
     already in memory, so the scan needs the syscalls, not the bytes *)
  List.iter
    (fun path ->
      let fd = Minios.Kernel.open_file kernel ~pid ~path ~mode:Minios.Syscall.Read in
      Minios.Kernel.read_fd_discard kernel ~pid ~fd;
      Minios.Kernel.close_fd kernel ~pid ~fd)
    (Minios.Vfs.paths_under vfs t.data_dir);
  t.server_pid <- Some pid;
  Database.sync_clock t.db ~at:(Minios.Kernel.now kernel);
  pid

(** Stop a traced server: it checkpoints its tables back to the data
    directory (observed as buffered writes) and exits. *)
let stop_traced (kernel : Minios.Kernel.t) (t : t) =
  match t.server_pid with
  | None -> ()
  | Some pid ->
    Catalog.iter (Database.catalog t.db) (fun table ->
        let path = data_file t (Table.name table) in
        let content = data_file_content table in
        let fd =
          Minios.Kernel.open_file kernel ~pid ~path ~mode:Minios.Syscall.Write
        in
        Minios.Kernel.write_fd_content kernel ~pid ~fd content;
        Minios.Kernel.close_fd kernel ~pid ~fd);
    Minios.Kernel.exit_process kernel pid;
    t.server_pid <- None

(* Run one statement on the backend and map its outcome onto a
   response. *)
let respond (run : unit -> Database.exec_result) : Protocol.response =
  Ldv_obs.with_span "server.handle" @@ fun () ->
  match run () with
  | Database.Rows r ->
    Protocol.Result_set
      { schema = r.Executor.schema; rows = Executor.result_values r }
  | Database.Affected info -> Protocol.Command_ok { affected = info.count }
  | Database.Ddl_done -> Protocol.Ddl_ok
  | exception Errors.Db_error (Errors.Serialization_failure _ as kind) ->
    (* first-updater-wins conflicts are control flow for the client
       library's abort/rollback/retry path, not an error string the
       application may swallow *)
    raise (Errors.Db_error kind)
  | exception Errors.Db_error kind ->
    (* tx misuse is a programming error worth flagging out-of-band, not
       just an error string the client may swallow *)
    (match kind with
    | Errors.Tx_state m -> Ldv_errors.warn (Ldv_errors.Tx_state { message = m })
    | _ -> ());
    Protocol.Error_response (Errors.to_string kind)

(** Execute one parsed statement against the backend. *)
let exec_ast (t : t) (stmt : Sql_ast.statement) : Protocol.response =
  respond (fun () -> Database.exec_ast t.db stmt)

(** Execute one statement's text: parsed once, inside the ledger's Parse
    frame; text that does not parse is an error response. *)
let handle (t : t) (sql : string) : Protocol.response =
  respond (fun () -> Database.exec t.db sql)

(** Restore a table's state from a native data file (PTU replay: the
    package ships the server's own files). *)
let load_data_file (t : t) (image : string) =
  restore_table_image t.db (decode_table_image image)

(** Wrap an existing database in a server handle without installing any
    files — used at replay time when the package already carries (or
    deliberately omits) the server's artifacts. *)
let attach ?(root = "/opt/minidb") ?(data_dir = "/var/minidb/data")
    (db : Database.t) : t =
  { db;
    binary_path = root ^ "/bin/minidb-server";
    lib_paths = List.map (fun (name, _) -> root ^ "/lib/" ^ name) default_lib_sizes;
    data_dir;
    server_pid = None }

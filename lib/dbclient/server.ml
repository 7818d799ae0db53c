(** The DB server as a deployable artifact in the simulated OS.

    A server owns a {!Minidb.Database.t}, a binary installed in the VFS
    (opaque bytes: its size matters for package accounting, its content
    does not), and a data directory whose files hold the CSV-serialized
    live state of each table. Starting the server under tracing makes the
    server process read its binary and data files — which is how PTU-style
    packaging comes to include the full DB, exactly as in the paper's
    baseline configuration (§IX-A). *)

open Minidb

(* Sizes modeled on a stock PostgreSQL 9.x install. *)
let default_binary_size = 38_000_000
let default_lib_sizes = [ ("libpq.so.5", 900_000); ("libssl.so", 2_300_000) ]

(* ------------------------------------------------------------------ *)
(* Native data-file format.

   The server's on-disk table format is a binary marshal of the schema and
   live tuple versions: like PostgreSQL heap files it loads without parsing
   tuple by tuple, which is why a PTU replay (which ships these files) has
   cheap DB initialization while a server-included LDV replay (which ships
   CSVs of the relevant subset) pays a per-tuple restore — the Figure 7b
   shape. *)

type table_image = {
  img_table : string;
  img_columns : (string * Value.ty) list;
  img_rows : (int * int * Value.t array) list;  (** rid, version, values *)
  img_indexes : (string * string * bool) list;
      (** index name, column name, ordered? *)
}

type t = {
  db : Database.t;
  binary_path : string;
  lib_paths : string list;
  data_dir : string;
  mutable server_pid : int option;
  mutable start_images : (string * (table_image * string)) list;
      (** per table: the image [start_traced] wrote and its encoding *)
}

let db t = t.db
let binary_path t = t.binary_path
let lib_paths t = t.lib_paths
let data_dir t = t.data_dir

let data_file t table = Printf.sprintf "%s/%s.dat" t.data_dir table

let table_image (table : Table.t) : table_image =
  let schema = Table.schema table in
  { img_table = Table.name table;
    img_columns =
      Array.to_list schema
      |> List.map (fun (c : Schema.column) -> (c.Schema.name, c.Schema.ty));
    img_rows =
      List.map
        (fun (tv : Table.tuple_version) ->
          (tv.Table.tid.Tid.rid, tv.Table.tid.Tid.version, tv.Table.values))
        (Table.scan table);
    img_indexes = Table.index_specs table }

let encode_table_image (img : table_image) : string =
  Marshal.to_string img []

let decode_table_image (data : string) : table_image =
  (Marshal.from_string data 0 : table_image)

(** Load a table image into a database, creating the table if needed. *)
let restore_table_image (db : Database.t) (img : table_image) =
  let catalog = Database.catalog db in
  let table =
    match Catalog.find_opt catalog img.img_table with
    | Some t -> t
    | None ->
      let schema =
        Schema.of_list
          (List.map (fun (n, ty) -> Schema.column n ty) img.img_columns)
      in
      Catalog.create_table catalog ~name:img.img_table ~schema
  in
  Database.sync_clock db ~at:(Table.restore_versions table img.img_rows);
  List.iter
    (fun (index_name, column, ordered) ->
      if
        column <> ""
        && not (List.mem index_name (Table.index_names table))
      then
        (* register through the catalog so DROP INDEX finds the owner *)
        Catalog.create_index ~ordered catalog ~index:index_name
          ~table:img.img_table ~column)
    img.img_indexes

(* ------------------------------------------------------------------ *)
(* Checkpoint image: every table plus the WAL high-water mark in ONE
   payload, so the rename that publishes it is atomic across tables —
   recovery never sees table A from before a checkpoint and table B from
   after it. [next_rid] rides along explicitly because a table image only
   carries live rows: after DELETE of the highest rid, the max live rid
   under-states the allocator. *)

type checkpoint = {
  ck_last_seq : int;  (** highest WAL sequence folded into the images *)
  ck_clock : int;  (** the database's logical clock at checkpoint time *)
  ck_tables : (table_image * int) list;  (** image, next_rid *)
}

let encode_checkpoint (db : Database.t) ~last_seq : string =
  let tables = ref [] in
  Catalog.iter (Database.catalog db) (fun table ->
      tables := (table_image table, table.Table.next_rid) :: !tables);
  Marshal.to_string
    { ck_last_seq = last_seq;
      ck_clock = Database.clock db;
      ck_tables = List.rev !tables }
    []

(** Load a checkpoint into [db] (normally fresh); returns the WAL
    sequence number the images already cover, so recovery replays only
    the suffix past it. *)
let restore_checkpoint (db : Database.t) (payload : string) : int =
  let ck = (Marshal.from_string payload 0 : checkpoint) in
  List.iter
    (fun (img, next_rid) ->
      restore_table_image db img;
      match Catalog.find_opt (Database.catalog db) img.img_table with
      | Some table -> Table.restore_next_rid table next_rid
      | None -> ())
    ck.ck_tables;
  Database.sync_clock db ~at:ck.ck_clock;
  ck.ck_last_seq

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
  { db; binary_path; lib_paths; data_dir; server_pid = None; start_images = [] }

(* Write every table's image into the data directory; returns each
   table's image and encoding. *)
let write_data_dir (kernel : Minios.Kernel.t) (t : t) =
  let vfs = Minios.Kernel.vfs kernel in
  let written = ref [] in
  Catalog.iter (Database.catalog t.db) (fun table ->
      let name = Table.name table in
      let image = table_image table in
      let data = encode_table_image image in
      Minios.Vfs.write_string vfs ~path:(data_file t name) data;
      written := (name, (image, data)) :: !written);
  !written

(** Serialize every table's live state into the data directory. Called at
    server start so the data files reflect the DB state valid at the start
    of the application — the state a re-execution must restore. *)
let sync_data_dir (kernel : Minios.Kernel.t) (t : t) =
  ignore (write_data_dir kernel t)

(** Start the server as a traced OS process: it reads its binary, its
    libraries, and every data file, so a ptrace-based packager sees the
    whole DB. Returns the server pid. *)
let start_traced (kernel : Minios.Kernel.t) (t : t) : int =
  Ldv_obs.with_span "server.start_traced" @@ fun () ->
  t.start_images <- write_data_dir kernel t;
  let vfs = Minios.Kernel.vfs kernel in
  let proc =
    Minios.Kernel.start_process kernel ~binary:t.binary_path
      ~libs:t.lib_paths ~name:"minidb-server" ()
  in
  let pid = proc.Minios.Kernel.pid in
  (* the server scans its data directory on startup *)
  List.iter
    (fun path ->
      let fd = Minios.Kernel.open_file kernel ~pid ~path ~mode:Minios.Syscall.Read in
      ignore (Minios.Kernel.read_fd kernel ~pid ~fd);
      Minios.Kernel.close_fd kernel ~pid ~fd)
    (Minios.Vfs.paths_under vfs t.data_dir);
  t.server_pid <- Some pid;
  Database.sync_clock t.db ~at:(Minios.Kernel.now kernel);
  pid

(** Stop a traced server: it checkpoints its tables back to the data
    directory (observed as writes) and exits. A table whose image equals
    the one written at start reuses that encoding instead of marshalling
    again; comparing images, rather than trusting a dirty flag, cannot
    miss a write path. *)
let stop_traced (kernel : Minios.Kernel.t) (t : t) =
  match t.server_pid with
  | None -> ()
  | Some pid ->
    Catalog.iter (Database.catalog t.db) (fun table ->
        let name = Table.name table in
        let path = data_file t name in
        let current = table_image table in
        let image =
          match List.assoc_opt name t.start_images with
          | Some (start, data) when start = current -> data
          | _ -> encode_table_image current
        in
        let fd =
          Minios.Kernel.open_file kernel ~pid ~path ~mode:Minios.Syscall.Write
        in
        Minios.Kernel.write_fd kernel ~pid ~fd image;
        Minios.Kernel.close_fd kernel ~pid ~fd);
    Minios.Kernel.exit_process kernel pid;
    t.server_pid <- None;
    t.start_images <- []

(** Execute one protocol request against the backend. *)
let handle (t : t) (req : Protocol.request) : Protocol.response =
  Ldv_obs.with_span "server.handle" @@ fun () ->
  match req with
  | Protocol.Connect _ -> Protocol.Connected { backend_id = 1 }
  | Protocol.Disconnect -> Protocol.Ddl_ok
  | Protocol.Statement { sql } -> (
    match Database.exec t.db sql with
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
      Protocol.Error_response (Errors.to_string kind))

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
    server_pid = None;
    start_images = [] }

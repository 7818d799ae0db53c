(** The DB server as a deployable artifact in the simulated OS: a
    {!Minidb.Database.t} plus a binary installed in the VFS and a data
    directory of native table files. Starting the server under tracing
    makes its binary and data files part of the OS trace — how PTU-style
    packaging comes to include the full DB (§IX-A). *)

open Minidb

type t

val db : t -> Database.t
val binary_path : t -> string
val lib_paths : t -> string list
val data_dir : t -> string
val data_file : t -> string -> string

(** {2 Native data-file format}

    A versioned binary image of a table's schema, index definitions,
    row-id allocator and live versions, closed by a CRC-32: it loads
    without per-tuple parsing (like PostgreSQL heap files), which is why
    PTU replay initialization is cheap while LDV's CSV-subset restore pays
    per tuple (Figure 7b). Data files, checkpoints and replica base
    backups all use it. *)

type table_image

(** A snapshot of a table's live state. It holds the live versions
    themselves, which are never changed in place, so it costs one array
    and later writes to the table leave it as it was. *)
val table_image : Table.t -> table_image
val encode_table_image : table_image -> string

(** @raise Errors.Db_error [Corrupt_image] on a bad magic or version, a
    checksum mismatch, truncation, an unknown tag or a row whose value
    count differs from the table's. *)
val decode_table_image : string -> table_image

(** Load an image, creating the table and its indexes if needed and
    restoring its row-id allocator. The table takes the image's row
    arrays over. *)
val restore_table_image : Database.t -> table_image -> unit

(** {2 Checkpoint image}

    All tables (each with its row-id allocator) and the logical clock in a
    single framed payload, stamped with the WAL sequence number it covers:
    published by one atomic rename, so recovery is never torn across
    tables. *)

(** What a checkpoint of a database holds, captured at one instant:
    every table's image (a snapshot of its live versions, as
    {!table_image}) and the logical clock. Later writes to the database
    leave it as it was. *)
type capture

val capture_checkpoint : Database.t -> capture

(** The checkpoint payload of a capture, covering WAL records up to
    [last_seq]. *)
val encode_capture : capture -> last_seq:int -> string

(** Load a capture into a (normally fresh) database: the same tables,
    rows, row-id allocators, indexes and clock as restoring its encoded
    payload with {!restore_checkpoint}, without encoding or decoding. The
    restored tables share the captured rows' value arrays, which are never
    changed in place. *)
val restore_capture : Database.t -> capture -> unit

(** {!encode_capture} as [Minios.Vfs.Deferred] content: the size and the
    bytes are computed only when a reader asks for them, once for every
    file written with the same value. *)
val capture_content : capture -> last_seq:int -> Minios.Vfs.content

(** The checkpoint of [db] as [Minios.Vfs.Deferred] content: every
    table's image and the clock are captured now, and the size and the
    bytes, equal to {!encode_capture}'s at this instant, are computed
    only when a reader asks for them. *)
val checkpoint_content : Database.t -> last_seq:int -> Minios.Vfs.content

(** Load a checkpoint into a (normally fresh) database; returns the WAL
    sequence number the images already cover.
    @raise Errors.Db_error [Corrupt_image] as {!decode_table_image}. *)
val restore_checkpoint : Database.t -> string -> int

(** The WAL sequence number a checkpoint payload covers, read after its
    magic, version and CRC are checked, without restoring any table.
    @raise Errors.Db_error [Corrupt_image] when the frame is bad. *)
val checkpoint_seq : string -> int

(** {2 Lifecycle} *)

(** Create a server around a database, installing its binary artifacts
    into the kernel's VFS. *)
val install :
  Minios.Kernel.t ->
  ?root:string ->
  ?data_dir:string ->
  ?binary_size:int ->
  Database.t ->
  t

(** Wrap an existing database without touching the VFS (replay side). *)
val attach : ?root:string -> ?data_dir:string -> Database.t -> t

(** Write every table into the data directory (the state valid at the
    start of the application). Each file is [Minios.Vfs.Deferred]
    content over a snapshot of the table's live versions: its size and
    its bytes are computed only when a reader asks for them. *)
val sync_data_dir : Minios.Kernel.t -> t -> unit

(** Write the data directory ({!sync_data_dir}), then start as a traced
    OS process that opens and reads its binary, libraries, and data
    files; the reads do not ask for the files' bytes. Returns the server
    pid. *)
val start_traced : Minios.Kernel.t -> t -> int

(** Checkpoint tables back to the data directory as deferred content,
    through buffered writes (observed as writes; a crash before an fsync
    restores the start-time files), and exit the server process. *)
val stop_traced : Minios.Kernel.t -> t -> unit

(** Execute one protocol request against the backend; engine errors become
    [Error_response]s. *)
val handle : t -> Protocol.request -> Protocol.response

(** Restore a table from a native data file (PTU replay).
    @raise Errors.Db_error [Corrupt_image] as {!decode_table_image}. *)
val load_data_file : t -> string -> unit

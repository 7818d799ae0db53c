(** LDV repeatability packages (§VII-D) and the PTU baseline package.

    A package holds: the files the traced execution touched (copied
    CDE-style into a chroot-like root), the serialized execution trace,
    and the DB content appropriate to its kind —

    - [Server_included]: server binaries, table and index DDL, and the
      relevant tuple subset as CSVs (an otherwise *empty* data
      directory);
    - [Server_excluded]: no server artifacts at all, plus the recorded
      query responses for replay;
    - [Ptu_full]: the application-virtualization baseline — everything the
      traced processes touched, including the DB server and its complete
      data files, with OS provenance but no DB provenance. *)


type kind = Server_included | Server_excluded | Ptu_full

let kind_name = function
  | Server_included -> "server-included"
  | Server_excluded -> "server-excluded"
  | Ptu_full -> "ptu"

type entry = {
  e_path : string;
  e_size : int;
  e_content : Minios.Vfs.content option;
      (** [None] for files recorded as written outputs: the path is
          recreated but no contents are shipped *)
}

type t = {
  kind : kind;
  app_name : string;
  app_binary : string;
  entries : entry list;
  db_subset : (string * string) list;  (** table -> CSV (server-included) *)
  db_schemas : (string * string) list;  (** table -> DDL (server-included) *)
  db_indexes : (string * string) list;
      (** table -> its index DDL lines (server-included, tables with
          indexes only) *)
  recording : Dbclient.Recorder.recorded list;  (** server-excluded *)
  trace_data : string;  (** serialized combined execution trace *)
  metadata : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Size accounting.                                                    *)

let entries_bytes (t : t) =
  List.fold_left (fun acc e -> acc + e.e_size) 0 t.entries

let db_subset_bytes (t : t) = Slice.subset_bytes_of_csvs t.db_subset

let recording_bytes (t : t) = Dbclient.Recorder.byte_size t.recording

let trace_bytes (t : t) = String.length t.trace_data

(* Each table's DDL bytes: its CREATE TABLE plus its index lines, in
   schema order, then tables that have index lines only. *)
let ddl_by_table (t : t) : (string * int) list =
  let size table ddls =
    match List.assoc_opt table ddls with
    | Some ddl -> String.length ddl
    | None -> 0
  in
  List.map
    (fun (table, ddl) -> (table, String.length ddl + size table t.db_indexes))
    t.db_schemas
  @ List.filter_map
      (fun (table, lines) ->
        if List.mem_assoc table t.db_schemas then None
        else Some (table, String.length lines))
      t.db_indexes

let total_bytes (t : t) =
  entries_bytes t + db_subset_bytes t + recording_bytes t + trace_bytes t
  + List.fold_left (fun acc (_, n) -> acc + n) 0 (ddl_by_table t)

(** Path -> size manifest, for inspection; the sizes add up to
    [total_bytes]. *)
let manifest (t : t) : (string * int) list =
  List.map (fun e -> (e.e_path, e.e_size)) t.entries
  @ List.map (fun (table, n) -> ("db/" ^ table ^ ".sql", n)) (ddl_by_table t)
  @ List.map
      (fun (table, csv) -> ("db/" ^ table ^ ".csv", String.length csv))
      t.db_subset
  @ (if t.recording = [] then []
     else [ ("db/recording.log", recording_bytes t) ])
  @ [ ("trace.ldv", trace_bytes t) ]

(** Table III's content matrix for this package. *)
type contents_summary = {
  has_software_binaries : bool;
  has_db_server : bool;
  data_files : [ `Full | `Empty | `None ];
  has_db_provenance : bool;
}

let summarize (t : t) : contents_summary =
  match t.kind with
  | Ptu_full ->
    { has_software_binaries = true;
      has_db_server = true;
      data_files = `Full;
      has_db_provenance = false }
  | Server_included ->
    { has_software_binaries = true;
      has_db_server = true;
      data_files = `Empty;
      has_db_provenance = true }
  | Server_excluded ->
    { has_software_binaries = true;
      has_db_server = false;
      data_files = `None;
      has_db_provenance = true }

(* ------------------------------------------------------------------ *)
(* Package construction.                                               *)

let under prefix path =
  let n = String.length prefix in
  String.length path > n
  && String.sub path 0 n = prefix
  && (n = 0 || path.[n] = '/')

(* Collect file entries from the trace: every path opened for reading gets
   its first-read snapshot copied in; write-only paths are recreated
   empty. A deferred snapshot (a server data file, in a PTU package) or
   an appended one becomes plain bytes here, so packages compare
   structurally. *)
let collect_entries (audit : Audit.t) ~(exclude : string -> bool) :
    entry list =
  let vfs = Minios.Kernel.vfs audit.Audit.kernel in
  Minios.Tracer.touched_paths audit.Audit.tracer
  |> List.filter_map (fun (path, modes) ->
         if exclude path then None
         else if List.mem Minios.Syscall.Read modes then
           match
             Minios.Tracer.snapshot_content audit.Audit.tracer vfs path
           with
           | Some content ->
             let content = Minios.Vfs.materialize content in
             Some
               { e_path = path;
                 e_size = Minios.Vfs.content_size content;
                 e_content = Some content }
           | None -> None
         else Some { e_path = path; e_size = 0; e_content = None })

let base_metadata (audit : Audit.t) =
  [ ("app", audit.Audit.app_name);
    ("binary", audit.Audit.app_binary);
    ("root_pid", string_of_int audit.Audit.root_pid) ]
  @ (* concurrent runs record their schedule so replay can re-create the
       identical interleaving: session count, scheduler seed, and each
       client's registry name + binary *)
  (match audit.Audit.sched with
  | None -> []
  | Some s ->
    ("sessions", string_of_int (List.length s.Audit.sched_clients))
    :: ("sched_seed", string_of_int s.Audit.sched_seed)
    :: List.mapi
         (fun i (name, binary) ->
           (Printf.sprintf "client:%d" i, name ^ "\t" ^ binary))
         s.Audit.sched_clients)
  @ (* runs served by a replication cluster record its shape and, per
       replica-served read, the node that answered — replay re-runs the
       whole cluster and must route every read to the same node *)
  (match audit.Audit.repl with
  | None -> []
  | Some (replicas, staleness) ->
    ("replicas", string_of_int replicas)
    :: ("repl_staleness", string_of_int staleness)
    :: List.filter_map
         (fun (s : Dbclient.Interceptor.stmt_event) ->
           if s.Dbclient.Interceptor.replica >= 0 then
             Some
               ( Printf.sprintf "route:%d" s.Dbclient.Interceptor.qid,
                 string_of_int s.Dbclient.Interceptor.replica )
           else None)
         (Audit.stmts audit))
  @ (* audit-time per-table row counts: replay restores only the sliced
       tuple subset, so the cost model's replay-stable decisions (join
       order, build side) pin to these instead of the restored counts *)
  List.map
    (fun (table, rows) -> (Printf.sprintf "rows:%s" table, string_of_int rows))
    audit.Audit.start_rows
  @
  (* interactive transactions record their boundaries and outcomes so
     replay can verify it reproduced every commit/abort decision *)
  List.map
    (fun (sid, n, o) ->
      (Printf.sprintf "tx:%d:%d" sid n, Audit.tx_outcome_name o))
    (Audit.tx_outcomes (Audit.stmts audit))

(** The recorded multi-session schedule, when the package came from a
    concurrent audit: scheduler seed plus per-session (registry name,
    binary) in session order. [None] for single-session packages. *)
let schedule_of_metadata (metadata : (string * string) list) :
    (int * (string * string) list) option =
  match
    ( Option.bind (List.assoc_opt "sessions" metadata) int_of_string_opt,
      Option.bind (List.assoc_opt "sched_seed" metadata) int_of_string_opt )
  with
  | Some n, Some seed when n > 0 ->
    let client i =
      match List.assoc_opt (Printf.sprintf "client:%d" i) metadata with
      | None -> None
      | Some v -> (
        match String.index_opt v '\t' with
        | Some j ->
          Some
            ( String.sub v 0 j,
              String.sub v (j + 1) (String.length v - j - 1) )
        | None -> Some (v, v))
    in
    let clients = List.init n client in
    if List.for_all Option.is_some clients then
      Some (seed, List.filter_map Fun.id clients)
    else None
  | _ -> None

(** The recorded replication-cluster shape — (replica count, staleness
    bound) — when the audited run served reads from a cluster. *)
let replication_of_metadata (metadata : (string * string) list) :
    (int * int) option =
  match
    ( Option.bind (List.assoc_opt "replicas" metadata) int_of_string_opt,
      Option.bind (List.assoc_opt "repl_staleness" metadata) int_of_string_opt
    )
  with
  | Some n, Some staleness when n > 0 -> Some (n, staleness)
  | _ -> None

(** The recorded transaction outcomes: (sid, per-session ordinal,
    outcome), sorted. Empty when the audited run opened no interactive
    transactions. *)
let tx_outcomes_of_metadata (metadata : (string * string) list) :
    (int * int * Audit.tx_outcome) list =
  List.filter_map
    (fun (k, v) ->
      match Scanf.sscanf_opt k "tx:%d:%d%!" (fun sid n -> (sid, n)) with
      | Some (sid, n) ->
        Option.map (fun o -> (sid, n, o)) (Audit.tx_outcome_of_name v)
      | None -> None)
    metadata
  |> List.sort compare

(** The recorded read routes: (qid, replica that answered), sorted by
    qid. Reads the leader answered are not recorded. *)
let routes_of_metadata (metadata : (string * string) list) :
    (int * int) list =
  List.filter_map
    (fun (k, v) ->
      match Scanf.sscanf_opt k "route:%d%!" Fun.id with
      | Some qid -> Option.map (fun r -> (qid, r)) (int_of_string_opt v)
      | None -> None)
    metadata
  |> List.sort compare

(** The audit-time per-table row counts, for pinning the cost model's
    statistics at replay (the restored database holds only the sliced
    tuple subset). Empty for packages recorded before row counts were
    captured. *)
let table_rows_of_metadata (metadata : (string * string) list) :
    (string * int) list =
  List.filter_map
    (fun (k, v) ->
      if String.length k > 5 && String.sub k 0 5 = "rows:" then
        Option.map
          (fun rows -> (String.sub k 5 (String.length k - 5), rows))
          (int_of_string_opt v)
      else None)
    metadata
  |> List.sort compare

(** The package's recorded multi-session schedule, if any. *)
let schedule (t : t) : (int * (string * string) list) option =
  schedule_of_metadata t.metadata

(** The package's recorded replication-cluster shape, if any. *)
let replication (t : t) : (int * int) option =
  replication_of_metadata t.metadata

(** The package's recorded read routes (qid -> answering replica). *)
let routes (t : t) : (int * int) list = routes_of_metadata t.metadata

(** [table_rows_of_metadata] applied to the package's own metadata. *)
let table_rows (t : t) : (string * int) list =
  table_rows_of_metadata t.metadata

let tx_outcomes (t : t) : (int * int * Audit.tx_outcome) list =
  tx_outcomes_of_metadata t.metadata

(** Build the package of the audit's packaging mode. The kinds (see the
    top of this file) differ only in the files they leave out, the DB
    content they add and whether their trace holds DB provenance. *)
let build (audit : Audit.t) : t =
  let kind, packaging =
    match audit.Audit.packaging with
    | Audit.Included -> (Server_included, "included")
    | Audit.Excluded -> (Server_excluded, "excluded")
    | Audit.Ptu_baseline -> (Ptu_full, "ptu")
  in
  Ldv_obs.with_span ~attrs:[ ("kind", kind_name kind) ] "package.build"
  @@ fun () ->
  let server = audit.Audit.server in
  let in_data_dir = under (Dbclient.Server.data_dir server) in
  let server_files =
    Dbclient.Server.binary_path server :: Dbclient.Server.lib_paths server
  in
  let exclude path =
    match kind with
    | Server_included -> in_data_dir path
    | Server_excluded -> in_data_dir path || List.mem path server_files
    | Ptu_full -> false
  in
  let entries = collect_entries audit ~exclude in
  let db_subset, db_schemas, db_indexes =
    match kind with
    | Server_included ->
      let db = Dbclient.Server.db server in
      let relevant = Slice.relevant_lineage audit in
      let tables = Slice.lineage_tables audit relevant in
      ( Slice.slice_csvs audit relevant,
        Slice.schema_ddl_for db tables,
        Slice.index_ddl_for db tables )
    | Server_excluded | Ptu_full -> ([], [], [])
  in
  { kind;
    app_name = audit.Audit.app_name;
    app_binary = audit.Audit.app_binary;
    entries;
    db_subset;
    db_schemas;
    db_indexes;
    recording =
      (match kind with
      | Server_excluded -> Dbclient.Interceptor.recorded audit.Audit.session
      | Server_included | Ptu_full -> []);
    trace_data =
      Prov.Trace.serialize
        (match kind with
        | Ptu_full -> Minios.Tracer.build_bb_trace audit.Audit.tracer
        | Server_included | Server_excluded -> Audit.compact_trace audit);
    metadata = base_metadata audit @ [ ("packaging", packaging) ] }

(* ------------------------------------------------------------------ *)
(* Whole-package serialization (for writing packages to a real file and
   round-tripping them through the CLI).

   Wire format, one section per package component:

     @<name> <payload-length> <crc32-hex>\n<payload>\n

   The CRC32 covers the payload only; a header without one (the
   pre-checksum format) is a typed [Package_malformed], so no section
   goes unverified. On restore, a checksum mismatch in a *content*
   section (file:, opaque:, output:, schema:, index:, csv:) skips just
   that section and reports it; a mismatch in a structural section
   (kind, app, binary, meta:, recording, trace) makes the whole package
   unreadable.                                                          *)

let to_bytes (t : t) : string =
  Ldv_obs.with_span ~attrs:[ ("kind", kind_name t.kind) ] "package.serialize"
  @@ fun () ->
  if Ldv_obs.enabled () then begin
    Ldv_obs.gauge "package.bytes" (float_of_int (total_bytes t));
    Ldv_obs.counter ~by:(List.length t.entries) "package.entries"
  end;
  let buf = Buffer.create 65536 in
  let section name payload =
    Buffer.add_string buf
      (Printf.sprintf "@%s %d %08lx\n" name (String.length payload)
         (Ldv_faults.Crc32.digest payload));
    Buffer.add_string buf payload;
    Buffer.add_char buf '\n'
  in
  section "kind" (kind_name t.kind);
  section "app" t.app_name;
  section "binary" t.app_binary;
  List.iter (fun (k, v) -> section ("meta:" ^ k) v) t.metadata;
  List.iter
    (fun e ->
      match e.e_content with
      | Some c -> (
        match Minios.Vfs.content_bytes c with
        | Some s -> section ("file:" ^ e.e_path) s
        | None ->
          section ("opaque:" ^ e.e_path)
            (string_of_int (Minios.Vfs.content_size c)))
      | None -> section ("output:" ^ e.e_path) "")
    t.entries;
  List.iter (fun (tbl, ddl) -> section ("schema:" ^ tbl) ddl) t.db_schemas;
  List.iter (fun (tbl, ddl) -> section ("index:" ^ tbl) ddl) t.db_indexes;
  List.iter (fun (tbl, csv) -> section ("csv:" ^ tbl) csv) t.db_subset;
  if t.recording <> [] then
    section "recording" (Dbclient.Recorder.encode t.recording);
  section "trace" t.trace_data;
  Buffer.contents buf

type corruption = { c_section : string; c_error : Ldv_errors.t }

type restored = {
  r_pkg : t;
  r_skipped : corruption list;
      (** content sections dropped because their checksum did not match;
          in section order *)
}

let has_prefix prefix name =
  let pl = String.length prefix in
  String.length name > pl && String.sub name 0 pl = prefix

(* Content sections describe individual shippable artifacts; losing one
   degrades the package (skip + report). Everything else is structural:
   without it the package cannot be interpreted at all. *)
let content_prefixes =
  [ "file:"; "opaque:"; "output:"; "schema:"; "index:"; "csv:" ]

let skippable name = List.exists (fun p -> has_prefix p name) content_prefixes

let known_section name =
  skippable name || has_prefix "meta:" name
  || List.mem name [ "kind"; "app"; "binary"; "recording"; "trace" ]

let is_hex8 s =
  String.length s = 8
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
       s

(* "name len crc": every section carries its payload's CRC-32. *)
let parse_header header ~offset : (string * int * int32, Ldv_errors.t) result
    =
  let malformed what = Error (Ldv_errors.Package_malformed { what; offset }) in
  match String.rindex_opt header ' ' with
  | None -> malformed "section header has no length field"
  | Some i -> (
    let crc = String.sub header (i + 1) (String.length header - i - 1) in
    if not (is_hex8 crc) then
      malformed (Printf.sprintf "section header has no checksum: %S" header)
    else
      match String.rindex_from_opt header (max 0 (i - 1)) ' ' with
      | None -> malformed "section header has no length field"
      | Some j -> (
        let len = String.sub header (j + 1) (i - j - 1) in
        match int_of_string_opt len with
        | Some n when n >= 0 ->
          Ok (String.sub header 0 j, n, Int32.of_string ("0x" ^ crc))
        | Some _ | None ->
          malformed (Printf.sprintf "bad section length %S" len)))

(* Split package bytes into checksum-verified (name, payload) sections.
   Structural damage (bad framing, truncation, corrupt structural
   sections) aborts with a typed error; corrupt or unknown content
   sections are dropped and reported. *)
let parse_sections (data : string) :
    ((string * string) list * corruption list, Ldv_errors.t) result =
  let n = String.length data in
  let sections = ref [] in
  let skipped = ref [] in
  let err = ref None in
  let pos = ref 0 in
  let abort e = err := Some e in
  while !err = None && !pos < n do
    let offset = !pos in
    if data.[offset] <> '@' then
      abort
        (Ldv_errors.Package_malformed
           { what = "expected a section header"; offset })
    else
      match String.index_from_opt data offset '\n' with
      | None ->
        abort
          (Ldv_errors.Package_malformed
             { what = "truncated section header"; offset })
      | Some nl -> (
        let header = String.sub data (offset + 1) (nl - offset - 1) in
        match parse_header header ~offset with
        | Error e -> abort e
        | Ok (name, len, crc) ->
          if nl + 1 + len >= n then
            abort
              (Ldv_errors.Package_malformed
                 { what =
                     Printf.sprintf "truncated payload for section %s" name;
                   offset })
          else if data.[nl + 1 + len] <> '\n' then
            abort
              (Ldv_errors.Package_malformed
                 { what =
                     Printf.sprintf "bad payload framing for section %s" name;
                   offset })
          else begin
            let payload = String.sub data (nl + 1) len in
            let actual = Ldv_faults.Crc32.digest payload in
            (if actual <> crc then begin
               let error =
                 Ldv_errors.Package_corrupt
                   { section = name; expected = crc; actual }
               in
               if skippable name then
                 skipped := { c_section = name; c_error = error } :: !skipped
               else abort error
             end
             else if known_section name then
                sections := (name, payload) :: !sections
              else
                (* a flipped header byte turns a known section into an
                   unknown one; report rather than silently drop *)
                skipped :=
                  { c_section = name;
                    c_error =
                      Ldv_errors.Package_malformed
                        { what = Printf.sprintf "unknown section %s" name;
                          offset } }
                  :: !skipped);
            pos := nl + 1 + len + 1
          end)
  done;
  match !err with
  | Some e -> Error e
  | None -> Ok (List.rev !sections, List.rev !skipped)

(** Parse package bytes, tolerating corrupt *content* sections: each one
    is skipped and reported in [r_skipped] so the caller can degrade
    gracefully (a lost CSV table or file snapshot weakens a replay; it
    should not crash it). Structural damage returns [Error]. *)
let of_bytes_result (data : string) : (restored, Ldv_errors.t) result =
  Ldv_obs.with_span "package.parse" @@ fun () ->
  match parse_sections data with
  | Error e -> Error e
  | exception Ldv_errors.Error e -> Error e
  | Ok (sections, skipped) -> (
    let skipped = ref skipped in
    let missing name =
      Ldv_errors.Package_malformed
        { what = Printf.sprintf "missing section %s" name; offset = -1 }
    in
    let get name =
      match List.assoc_opt name sections with
      | Some v -> Ok v
      | None -> Error (missing name)
    in
    let with_prefix prefix =
      List.filter_map
        (fun (name, payload) ->
          if has_prefix prefix name then
            let pl = String.length prefix in
            Some (String.sub name pl (String.length name - pl), payload)
          else None)
        sections
    in
    let ( let* ) = Result.bind in
    let* kind =
      match get "kind" with
      | Error _ as e -> e
      | Ok "server-included" -> Ok Server_included
      | Ok "server-excluded" -> Ok Server_excluded
      | Ok "ptu" -> Ok Ptu_full
      | Ok k ->
        Error
          (Ldv_errors.Package_malformed
             { what = Printf.sprintf "bad kind %S" k; offset = -1 })
    in
    let* app_name = get "app" in
    let* app_binary = get "binary" in
    let* trace_data = get "trace" in
    let* recording =
      match List.assoc_opt "recording" sections with
      | None -> Ok []
      | Some r -> (
        match Dbclient.Recorder.decode r with
        | records -> Ok records
        | exception Ldv_errors.Error e -> Error e)
    in
    let entries =
      List.map
        (fun (path, payload) ->
          { e_path = path;
            e_size = String.length payload;
            e_content = Some (Minios.Vfs.Data payload) })
        (with_prefix "file:")
      @ List.filter_map
          (fun (path, payload) ->
            match int_of_string_opt payload with
            | Some size ->
              Some
                { e_path = path;
                  e_size = size;
                  e_content = Some (Minios.Vfs.Opaque size) }
            | None ->
              (* verified payload that still fails to parse: report it
                 like any other lost content section *)
              skipped :=
                !skipped
                @ [ { c_section = "opaque:" ^ path;
                      c_error =
                        Ldv_errors.Package_malformed
                          { what =
                              Printf.sprintf "bad opaque size %S for %s"
                                payload path;
                            offset = -1 } } ];
              None)
          (with_prefix "opaque:")
      @ List.map
          (fun (path, _) -> { e_path = path; e_size = 0; e_content = None })
          (with_prefix "output:")
    in
    Ok
      { r_pkg =
          { kind;
            app_name;
            app_binary;
            entries;
            db_subset = with_prefix "csv:";
            db_schemas = with_prefix "schema:";
            db_indexes = with_prefix "index:";
            recording;
            trace_data;
            metadata = with_prefix "meta:" };
        r_skipped = !skipped })

(** Strict variant: any corruption at all — structural or content — is an
    error. *)
let of_bytes (data : string) : t =
  match of_bytes_result data with
  | Ok { r_pkg; r_skipped = [] } -> r_pkg
  | Ok { r_skipped = c :: _; _ } -> raise (Ldv_errors.Error c.c_error)
  | Error e -> raise (Ldv_errors.Error e)

(* ------------------------------------------------------------------ *)
(* Crash-safe package files: serialize to a temp file, then rename. A
   failure mid-write (injected or real) leaves the destination either
   absent or holding the previous complete package — never a torn one. *)

let tmp_counter = ref 0

let write_file (t : t) ~(path : string) : unit =
  Ldv_obs.with_span ~attrs:[ ("path", path) ] "package.write" @@ fun () ->
  (* pid + per-call counter: concurrent writers (or a retry racing an
     earlier crashed write) never share a temp file *)
  incr tmp_counter;
  let tmp = Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ()) !tmp_counter in
  try
    let data = to_bytes t in
    let attempt () =
      (match Ldv_faults.syscall_fault ~op:"pkg.write" ~path with
      | None -> ()
      | Some fault -> Ldv_errors.fail (Ldv_errors.Io_fault { op = "pkg.write"; path; fault }));
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc data);
      Sys.rename tmp path
    in
    Ldv_faults.with_retries ~op:"package.write" attempt
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    match e with
    | Sys_error msg ->
      (* name the path asked for: the open names the temp file, and the
         rename names no file at all *)
      let tmp_prefix = tmp ^ ": " in
      let reason =
        if String.starts_with ~prefix:tmp_prefix msg then
          String.sub msg (String.length tmp_prefix)
            (String.length msg - String.length tmp_prefix)
        else msg
      in
      raise (Sys_error (path ^ ": " ^ reason))
    | e -> raise e

(** The execution trace embedded in the package. *)
let trace (t : t) : Prov.Trace.t =
  Prov.Trace.deserialize Prov.Combined.model t.trace_data

open Minidb
open Dbclient

let test_install_writes_artifacts () =
  let kernel = Minios.Kernel.create () in
  let db = Database.create () in
  let server = Server.install kernel db in
  let vfs = Minios.Kernel.vfs kernel in
  Alcotest.(check bool) "binary installed" true
    (Minios.Vfs.exists vfs (Server.binary_path server));
  Alcotest.(check bool) "libraries installed" true
    (List.for_all (Minios.Vfs.exists vfs) (Server.lib_paths server));
  Alcotest.(check bool) "binary is large" true
    (Minios.Vfs.size vfs (Server.binary_path server) > 10_000_000)

let test_handle_statements () =
  let kernel = Minios.Kernel.create () in
  let db = Database.create () in
  let server = Server.install kernel db in
  (match Server.handle server "CREATE TABLE t (x INT)" with
  | Protocol.Ddl_ok -> ()
  | _ -> Alcotest.fail "expected ddl ok");
  (match Server.handle server "INSERT INTO t VALUES (1)" with
  | Protocol.Command_ok { affected = 1 } -> ()
  | _ -> Alcotest.fail "expected command ok");
  (match Server.handle server "SELECT x FROM t" with
  | Protocol.Result_set { rows = [ [| Value.Int 1 |] ]; _ } -> ()
  | _ -> Alcotest.fail "expected one row");
  match Server.handle server "SELECT nope FROM t" with
  | Protocol.Error_response _ -> ()
  | _ -> Alcotest.fail "expected an error response"

let test_traced_start_stop_events () =
  let kernel = Minios.Kernel.create () in
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (x INT)");
  ignore (Database.exec db "INSERT INTO t VALUES (1)");
  let server = Server.install kernel db in
  let tracer = Minios.Tracer.create () in
  Minios.Tracer.attach tracer kernel;
  let pid = Server.start_traced kernel server in
  Server.stop_traced kernel server;
  Minios.Tracer.detach kernel;
  let touched = Minios.Tracer.touched_paths tracer in
  let paths = List.map fst touched in
  Alcotest.(check bool) "server binary read" true
    (List.mem (Server.binary_path server) paths);
  Alcotest.(check bool) "data file read" true
    (List.mem (Server.data_dir server ^ "/t.dat") paths);
  (* the data file is also written at shutdown *)
  let modes = List.assoc (Server.data_dir server ^ "/t.dat") touched in
  Alcotest.(check bool) "read and written" true
    (List.mem Minios.Syscall.Read modes && List.mem Minios.Syscall.Write modes);
  Alcotest.(check bool) "server pid positive" true (pid > 0)

let test_table_image_roundtrip () =
  let db = Fixtures.sales_db () in
  ignore (Database.exec db "UPDATE sales SET price = 6 WHERE id = 1");
  let table = Catalog.find (Database.catalog db) "sales" in
  let image = Server.encode_table_image (Server.table_image table) in
  let db2 = Database.create () in
  Server.restore_table_image db2 (Server.decode_table_image image);
  Fixtures.check_rows "restored content" [ "1|6"; "2|11"; "3|14" ]
    (Database.query db2 "SELECT id, price FROM sales");
  (* tids survive: live versions in the copy carry the same rid/version *)
  let t1 = Catalog.find (Database.catalog db) "sales" in
  let t2 = Catalog.find (Database.catalog db2) "sales" in
  List.iter2
    (fun (a : Table.tuple_version) (b : Table.tuple_version) ->
      Alcotest.(check bool) "tid preserved" true (Tid.equal a.Table.tid b.Table.tid))
    (Table.scan t1) (Table.scan t2)

(* The TPC-H app writes only [orders]: at stop, every other table's data
   file must hold exactly the bytes written at start, while [orders] must
   hold the post-run state. *)
let test_stop_reuses_unchanged_images () =
  let kernel, server, _cfg, binary, program, app_name =
    Ldv_fixtures.make_setup ()
  in
  let catalog = Database.catalog (Server.db server) in
  let start =
    List.map
      (fun name ->
        ( name,
          Server.encode_table_image
            (Server.table_image (Catalog.find catalog name)) ))
      (Catalog.table_names catalog)
  in
  let audit =
    Ldv_core.Audit.run ~packaging:Ldv_core.Audit.Ptu_baseline kernel server
      ~app_name ~app_binary:binary ~app_libs:Tpch.Workload.app_libs program
  in
  let vfs = Minios.Kernel.vfs kernel in
  let file name = Minios.Vfs.read vfs (Server.data_file server name) in
  List.iter
    (fun (name, bytes) ->
      if name <> "orders" then
        Alcotest.(check bool) (name ^ " file is its start image") true
          (String.equal bytes (file name)))
    start;
  Alcotest.(check bool) "orders file was rewritten" false
    (String.equal (List.assoc "orders" start) (file "orders"));
  let restored = Database.create () in
  Server.restore_table_image restored
    (Server.decode_table_image (file "orders"));
  let rows db =
    List.map
      (fun (tv : Table.tuple_version) ->
        String.concat "|"
          (Tid.to_string tv.Table.tid
          :: List.map Value.to_string (Array.to_list tv.Table.values)))
      (Table.scan (Catalog.find (Database.catalog db) "orders"))
  in
  Alcotest.(check (list string)) "orders file decodes to the live rows"
    (rows (Server.db server)) (rows restored);
  let result = Ldv_core.Replay.execute (Ldv_core.Package.build audit) in
  Alcotest.(check (list string)) "ptu package replays" []
    (Ldv_core.Replay.verify ~audit result)

(* An LDV package leaves the data directory out, so building and
   encoding one must not produce a data file's bytes; a PTU package
   ships the files, so it produces the start-time ones. *)
let test_data_files_produced_on_demand () =
  (* audit a fresh copy of the fixture under [packaging]: the data
     files' start images, the audit, the data file paths, and each
     file's states *)
  let audited packaging =
    let kernel, server, _cfg, binary, program, app_name =
      Ldv_fixtures.make_setup ()
    in
    let catalog = Database.catalog (Server.db server) in
    let start =
      List.map
        (fun name ->
          ( Server.data_file server name,
            Server.encode_table_image
              (Server.table_image (Catalog.find catalog name)) ))
        (Catalog.table_names catalog)
    in
    let audit =
      Ldv_core.Audit.run ~packaging kernel server ~app_name
        ~app_binary:binary ~app_libs:Tpch.Workload.app_libs program
    in
    let vfs = Minios.Kernel.vfs kernel in
    (* the file as the server left it, its start state (what a crash
       restores) and the tracer's first-read snapshot (what PTU ships) *)
    let states path =
      let f = Option.get (Minios.Vfs.find_opt vfs path) in
      [ ("content", f.Minios.Vfs.content);
        ("synced", Option.get f.Minios.Vfs.synced);
        ( "snapshot",
          Option.get
            (Minios.Tracer.snapshot_content audit.Ldv_core.Audit.tracer vfs
               path) ) ]
    in
    let paths = Minios.Vfs.paths_under vfs (Server.data_dir server) in
    Alcotest.(check (list string)) "one data file per table"
      (List.sort String.compare (List.map fst start))
      paths;
    (start, audit, paths, states)
  in
  let produced = function
    | Minios.Vfs.Deferred { bytes; _ } -> Lazy.is_val bytes
    | Minios.Vfs.Data _ | Minios.Vfs.Opaque _ | Minios.Vfs.Chunks _ -> true
  in
  let _, audit, paths, states = audited Ldv_core.Audit.Included in
  ignore (Ldv_core.Package.to_bytes (Ldv_core.Package.build audit));
  List.iter
    (fun path ->
      List.iter
        (fun (which, content) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s not produced by the LDV package" path which)
            false (produced content))
        (states path))
    paths;
  let start, audit, _, states = audited Ldv_core.Audit.Ptu_baseline in
  let ptu = Ldv_core.Package.build audit in
  ignore (Ldv_core.Package.to_bytes ptu);
  List.iter
    (fun (path, bytes) ->
      Alcotest.(check bool) (path ^ " snapshot produced by the PTU package")
        true
        (produced (List.assoc "snapshot" (states path)));
      match
        List.find_opt
          (fun (e : Ldv_core.Package.entry) -> e.Ldv_core.Package.e_path = path)
          ptu.Ldv_core.Package.entries
      with
      | Some { Ldv_core.Package.e_content = Some (Minios.Vfs.Data shipped); _ }
        ->
        Alcotest.(check bool) (path ^ " ships its start image") true
          (String.equal bytes shipped)
      | _ -> Alcotest.failf "%s is not shipped as bytes" path)
    start

(* ---------------- corrupt data files ---------------------------- *)

(* The data file of a two-row table whose strings are easy to find. *)
let small_data_file () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (k INT, s TEXT)");
  ignore (Database.exec db "INSERT INTO t VALUES (1, 'needle-one')");
  ignore (Database.exec db "INSERT INTO t VALUES (2, 'needle-two')");
  Server.encode_table_image
    (Server.table_image (Catalog.find (Database.catalog db) "t"))

(* A checkpoint's bytes, produced at once. *)
let checkpoint_bytes db ~last_seq =
  Option.get
    (Minios.Vfs.content_bytes (Server.checkpoint_content db ~last_seq))

let flip s pos =
  String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor 0x20) else c) s

let index_of s needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length s then Alcotest.failf "%S not in the image" needle
    else if String.sub s i n = needle then i
    else go (i + 1)
  in
  go 0

(* A load must fail with a typed engine error: never load silently, and
   never escape as Failure, Invalid_argument or Not_found. *)
let expect_db_error what f =
  match f () with
  | () -> Alcotest.failf "%s: loaded without an error" what
  | exception Errors.Db_error _ -> ()
  | exception e -> Alcotest.failf "%s: untyped %s" what (Printexc.to_string e)

let load_into_fresh bytes () =
  Server.load_data_file (Server.attach (Database.create ())) bytes

let test_flipped_data_file_typed () =
  let image = small_data_file () in
  expect_db_error "header flip" (load_into_fresh (flip image 0));
  expect_db_error "string payload flip"
    (load_into_fresh (flip image (index_of image "needle-two" + 3)))

let test_truncated_data_file_typed () =
  let image = small_data_file () in
  for len = 0 to String.length image - 1 do
    expect_db_error
      (Printf.sprintf "%d-byte prefix" len)
      (load_into_fresh (String.sub image 0 len))
  done

(* The previous on-disk format marshalled the image record (table,
   columns, rows, index specs); a file left in it must be refused. *)
let test_marshal_data_file_rejected () =
  let old =
    Marshal.to_string
      ( "t",
        [ ("k", Value.Tint); ("s", Value.Tstr) ],
        [ (1, 1, [| Value.Int 1; Value.Str "x" |]) ],
        ([] : (string * string * bool) list) )
      []
  in
  expect_db_error "Marshal-format file" (load_into_fresh old)

(* Every single-byte change anywhere in the file, CRC trailer included,
   is caught before a row is restored. *)
let test_every_flip_typed () =
  let image = small_data_file () in
  for pos = 0 to String.length image - 1 do
    expect_db_error (Printf.sprintf "flip at byte %d" pos)
      (load_into_fresh (flip image pos))
  done

(* Past the CRC the decoder still checks structure: with the checksum
   re-sealed over a changed byte, a load either succeeds (a changed
   string or number is still a valid image) or fails typed. *)
let test_resealed_flips_never_untyped () =
  let reseal b =
    let n = Bytes.length b - 4 in
    Bytes.set_int32_le b n (Ldv_faults.Crc32.digest_bytes b ~pos:0 ~len:n);
    Bytes.to_string b
  in
  let check name bytes load =
    for pos = 0 to String.length bytes - 5 do
      List.iter
        (fun mask ->
          let b = Bytes.of_string bytes in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
          match load (reseal b) with
          | () | (exception Errors.Db_error _) -> ()
          | exception e ->
            Alcotest.failf "%s byte %d xor %#x: untyped %s" name pos mask
              (Printexc.to_string e))
        [ 0x01; 0x20; 0x80; 0xff ]
    done
  in
  check "data file" (small_data_file ()) (fun bytes -> load_into_fresh bytes ());
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (k INT, s TEXT, f FLOAT, b BOOL)");
  ignore (Database.exec db "CREATE INDEX t_k ON t (k)");
  ignore
    (Database.exec db
       "INSERT INTO t VALUES (1, 'a', 1.5, TRUE), (2, 'a', NULL, FALSE)");
  ignore (Database.exec db "DELETE FROM t WHERE k = 2");
  check "checkpoint" (checkpoint_bytes db ~last_seq:3) (fun bytes ->
      ignore (Server.restore_checkpoint (Database.create ()) bytes))

let test_checkpoint_seq_checks_frame () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (k INT, s TEXT)");
  ignore (Database.exec db "INSERT INTO t VALUES (1, 'needle-one')");
  let payload = checkpoint_bytes db ~last_seq:300 in
  Alcotest.(check int) "covered sequence number" 300 (Server.checkpoint_seq payload);
  expect_db_error "flipped row string" (fun () ->
      ignore (Server.checkpoint_seq (flip payload (index_of payload "needle-one"))));
  expect_db_error "data file read as a checkpoint" (fun () ->
      ignore (Server.checkpoint_seq (small_data_file ())))

(* A column drawn from a pool of shared strings restores with the same
   sharing, while every row keeps a Value.Str of its own. *)
let test_shared_strings_stay_shared () =
  let pool = [| "AIR"; "FOB"; "MAIL"; "RAIL"; "SHIP"; "TRUCK" |] in
  let file_of mode =
    let db = Database.create () in
    ignore (Database.exec db "CREATE TABLE t (k INT, mode TEXT)");
    ignore
      (Database.bulk_insert db ~table:"t"
         (List.init 600 (fun k -> [| Value.Int k; Value.Str (mode k) |])));
    Server.encode_table_image
      (Server.table_image (Catalog.find (Database.catalog db) "t"))
  in
  let file = file_of (fun k -> pool.(k mod 6)) in
  Alcotest.(check bool) "back-references are shorter than fresh copies" true
    (String.length file < String.length (file_of (fun k -> pool.(k mod 6) ^ "")));
  let copy = Database.create () in
  Server.restore_table_image copy (Server.decode_table_image file);
  let cells =
    List.map
      (fun (tv : Table.tuple_version) -> tv.Table.values.(1))
      (Table.scan (Catalog.find (Database.catalog copy) "t"))
  in
  let strings =
    List.fold_left
      (fun acc v ->
        match v with
        | Value.Str s when not (List.memq s acc) -> s :: acc
        | _ -> acc)
      [] cells
  in
  Alcotest.(check int) "one string per pool entry" 6 (List.length strings);
  Alcotest.(check bool) "a Value.Str per row" false
    (List.nth cells 0 == List.nth cells 6)

(* ---------------- image and checkpoint round trip ---------------- *)

(* Values whose encodings are easy to get wrong: extreme ints, every
   float class, strings with separators, quotes, NUL and high bytes. *)
let value_gen (ty : Value.ty) : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let shared = [| "MAIL"; "SHIP"; "AIR" |] in
  let typed =
    match ty with
    | Value.Tint ->
      map (fun i -> Value.Int i)
        (oneof [ oneofl [ 0; -1; 1; min_int; max_int; 127; 128; -64; -65 ]; int ])
    | Value.Tfloat ->
      map (fun f -> Value.Float f)
        (oneof
           [ oneofl [ nan; infinity; neg_infinity; -0.0; 0.0; Float.min_float;
                      Float.max_float; Float.epsilon ];
             float ])
    | Value.Tstr ->
      oneof
        [ (* physically shared, as dbgen's constant pools are *)
          map (fun i -> Value.Str shared.(i)) (int_bound 2);
          map (fun s -> Value.Str s)
            (oneof
               [ oneofl [ ""; "a,b"; "\"q\""; "line\nbreak"; "nul\000byte";
                          "\xff\x80high"; String.make 300 'x' ];
                 string_size ~gen:char (int_bound 20) ]) ]
    | Value.Tbool -> map (fun b -> Value.Bool b) bool
  in
  frequency [ (1, return Value.Null); (6, typed) ]

type gen_table = {
  g_types : Value.ty list;  (** column types after the key column [k] *)
  g_rows : Value.t list list;  (** values after the key *)
  g_deletes : int list;  (** keys to delete *)
  g_updates : int list;  (** keys to rewrite (a newer version) *)
  g_hash : bool;  (** hash index on [k] *)
  g_ordered : bool;  (** ordered index on [k] *)
}

let gen_table : gen_table QCheck.Gen.t =
  let open QCheck.Gen in
  list_size (int_bound 4)
    (oneofl [ Value.Tint; Value.Tfloat; Value.Tstr; Value.Tbool ])
  >>= fun g_types ->
  list_size (int_bound 25) (flatten_l (List.map value_gen g_types))
  >>= fun g_rows ->
  let keys = int_bound (List.length g_rows + 1) in
  map4
    (fun g_deletes g_updates g_hash g_ordered ->
      { g_types; g_rows; g_deletes; g_updates; g_hash; g_ordered })
    (list_size (int_bound 6) keys)
    (list_size (int_bound 6) keys)
    bool bool

let show_table g =
  Printf.sprintf "types [%s], %d rows [%s], delete [%s], update [%s]%s%s"
    (String.concat "; " (List.map Value.type_name g.g_types))
    (List.length g.g_rows)
    (String.concat "; "
       (List.map
          (fun r -> String.concat "," (List.map Value.to_string r))
          g.g_rows))
    (String.concat "," (List.map string_of_int g.g_deletes))
    (String.concat "," (List.map string_of_int g.g_updates))
    (if g.g_hash then ", hash index" else "")
    (if g.g_ordered then ", ordered index" else "")

let build_table g =
  let db = Database.create () in
  let schema =
    Schema.of_list
      (Schema.column "k" Value.Tint
      :: List.mapi (fun i ty -> Schema.column (Printf.sprintf "c%d" i) ty) g.g_types)
  in
  ignore (Catalog.create_table (Database.catalog db) ~name:"t" ~schema);
  if g.g_hash then
    Catalog.create_index (Database.catalog db) ~index:"t_k" ~table:"t"
      ~column:"k";
  if g.g_ordered then
    Catalog.create_index ~ordered:true (Database.catalog db) ~index:"t_k_ord"
      ~table:"t" ~column:"k";
  ignore
    (Database.bulk_insert db ~table:"t"
       (List.mapi (fun k row -> Array.of_list (Value.Int (k + 1) :: row)) g.g_rows));
  List.iter
    (fun k ->
      ignore
        (Database.exec db (Printf.sprintf "UPDATE t SET k = k WHERE k = %d" k)))
    g.g_updates;
  List.iter
    (fun k -> ignore (Database.exec db (Printf.sprintf "DELETE FROM t WHERE k = %d" k)))
    g.g_deletes;
  db

(* Everything a restore must reproduce, floats by their bits. *)
let table_state db =
  let t = Catalog.find (Database.catalog db) "t" in
  let cell = function
    | Value.Float f -> Printf.sprintf "F%Lx" (Int64.bits_of_float f)
    | v -> Value.to_string v
  in
  ( List.map
      (fun (tv : Table.tuple_version) ->
        Tid.to_string tv.Table.tid
        :: List.map cell (Array.to_list tv.Table.values))
      (Table.scan t),
    Table.index_specs t,
    t.Table.next_rid )

let prop_image_roundtrip =
  QCheck.Test.make ~count:200 ~name:"image and checkpoint round trip"
    (QCheck.make ~print:show_table gen_table) (fun g ->
      let db = build_table g in
      let table = Catalog.find (Database.catalog db) "t" in
      let encoded = Server.encode_table_image (Server.table_image table) in
      let via_image = Database.create () in
      Server.restore_table_image via_image (Server.decode_table_image encoded);
      (* the data file's size, asked for before its bytes exist *)
      let kernel = Minios.Kernel.create () in
      let server = Server.install kernel db in
      Server.sync_data_dir kernel server;
      let on_demand_size =
        Minios.Vfs.size (Minios.Kernel.vfs kernel) (Server.data_file server "t")
      in
      let via_ckpt = Database.create () in
      let seq =
        Server.restore_checkpoint via_ckpt (checkpoint_bytes db ~last_seq:17)
      in
      let newest =
        List.fold_left
          (fun acc (tv : Table.tuple_version) -> max acc tv.Table.tid.Tid.version)
          0 (Table.scan table)
      in
      on_demand_size = String.length encoded
      && table_state via_image = table_state db
      && Database.clock via_image = newest
      && table_state via_ckpt = table_state db
      && Database.clock via_ckpt = Database.clock db
      && seq = 17)

let suite =
  [ Alcotest.test_case "install artifacts" `Quick test_install_writes_artifacts;
    Alcotest.test_case "handle statements" `Quick test_handle_statements;
    Alcotest.test_case "traced start/stop" `Quick test_traced_start_stop_events;
    Alcotest.test_case "table image roundtrip" `Quick test_table_image_roundtrip;
    Alcotest.test_case "stop reuses unchanged images" `Quick
      test_stop_reuses_unchanged_images;
    Alcotest.test_case "data files are produced on demand" `Quick
      test_data_files_produced_on_demand;
    Alcotest.test_case "flipped data file is a typed error" `Quick
      test_flipped_data_file_typed;
    Alcotest.test_case "truncated data file is a typed error" `Quick
      test_truncated_data_file_typed;
    Alcotest.test_case "Marshal-format data file rejected" `Quick
      test_marshal_data_file_rejected;
    Alcotest.test_case "every byte flip is a typed error" `Quick
      test_every_flip_typed;
    Alcotest.test_case "re-sealed flips never escape untyped" `Quick
      test_resealed_flips_never_untyped;
    Alcotest.test_case "checkpoint_seq checks the frame" `Quick
      test_checkpoint_seq_checks_frame;
    Alcotest.test_case "shared strings stay shared" `Quick
      test_shared_strings_stay_shared;
    QCheck_alcotest.to_alcotest prop_image_roundtrip ]

(* Tests for the fault-injection framework (Ldv_faults), the typed error
   vocabulary (Ldv_errors), checksummed package parsing with partial
   restore, crash-safe package writes, and the faults campaigns. *)

open Ldv_core
module F = Ldv_faults
module E = Ldv_errors
module I = Dbclient.Interceptor

(* ---------------- PRNG and CRC32 -------------------------------- *)

let test_prng_deterministic () =
  let a = F.Prng.create ~seed:99 in
  let b = F.Prng.create ~seed:99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (F.Prng.next_int64 a)
      (F.Prng.next_int64 b)
  done

let test_prng_split_independent () =
  (* a child stream's output does not depend on how far the parent has
     advanced after the split *)
  let p1 = F.Prng.create ~seed:1 in
  let c1 = F.Prng.split p1 in
  let expected = List.init 10 (fun _ -> F.Prng.next_int64 c1) in
  let p2 = F.Prng.create ~seed:1 in
  let c2 = F.Prng.split p2 in
  for _ = 1 to 1000 do
    ignore (F.Prng.next_int64 p2)
  done;
  let actual = List.init 10 (fun _ -> F.Prng.next_int64 c2) in
  Alcotest.(check (list int64)) "child independent of parent" expected actual

let test_crc32_known_vector () =
  (* the standard CRC-32 check value *)
  Alcotest.(check int32) "crc32(123456789)" 0xCBF43926l
    (F.Crc32.digest "123456789");
  Alcotest.(check int32) "crc32 of empty" 0l (F.Crc32.digest "");
  Alcotest.(check bool) "corruption changes the digest" true
    (F.Crc32.digest "hello world" <> F.Crc32.digest "hello_world")

(* The textbook bytewise CRC-32, bit by bit: the reference the sliced
   implementation must match on every input. *)
let crc32_reference (s : string) : int32 =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 0 to 7 do
        crc := if !crc land 1 <> 0 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
      done)
    s;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let prop_crc32_matches_reference =
  QCheck.Test.make ~count:300 ~name:"crc32 matches the bytewise reference"
    QCheck.(string_gen_of_size Gen.(int_bound 64) Gen.char)
    (fun s -> F.Crc32.digest s = crc32_reference s)

let test_crc32_large_input () =
  let rng = F.Prng.create ~seed:5 in
  let s = String.init 3_000_001 (fun _ -> Char.chr (F.Prng.int rng 256)) in
  Alcotest.(check int32) "3 MB string" (crc32_reference s) (F.Crc32.digest s);
  (* an unaligned window of the same bytes *)
  Alcotest.(check int32) "unaligned window"
    (crc32_reference (String.sub s 3 1_000_005))
    (F.Crc32.digest_bytes (Bytes.unsafe_of_string s) ~pos:3 ~len:1_000_005)

(* ---------------- bounded retry --------------------------------- *)

let test_retries_recover () =
  let calls = ref 0 in
  let v =
    F.with_retries ~op:"t" (fun () ->
        incr calls;
        if !calls < 3 then
          E.fail (E.Connection_lost { context = "flaky" })
        else 42)
  in
  Alcotest.(check int) "returned after transient failures" 42 v;
  Alcotest.(check int) "took three attempts" 3 !calls

let test_retries_permanent_immediate () =
  let calls = ref 0 in
  Alcotest.(check bool) "permanent error propagates on first attempt" true
    (try
       F.with_retries ~op:"t" (fun () ->
           incr calls;
           E.fail (E.Io_fault { op = "write"; path = "/f"; fault = E.Enospc }))
     with E.Error (E.Io_fault { fault = E.Enospc; _ }) -> true);
  Alcotest.(check int) "no retries" 1 !calls

let test_retries_exhausted () =
  let calls = ref 0 in
  Alcotest.(check bool) "exhaustion is typed and carries the last error" true
    (try
       F.with_retries ~op:"t" (fun () ->
           incr calls;
           E.fail (E.Protocol_garbled { context = "always" }))
     with
    | E.Error
        (E.Retries_exhausted
           { op = "t"; attempts; last = E.Protocol_garbled _ }) ->
      attempts = F.default_attempts);
  Alcotest.(check int) "stopped at the attempt bound" F.default_attempts !calls

(* ---------------- kernel syscall injection ---------------------- *)

let test_kernel_injection_typed () =
  let plan = F.make ~p_syscall:1.0 ~seed:5 () in
  F.with_plan plan @@ fun () ->
  let k = Minios.Kernel.create () in
  Minios.Vfs.write_string (Minios.Kernel.vfs k) ~path:"/f" "x";
  Alcotest.(check bool) "always-failing syscalls surface typed" true
    (try
       ignore
         (Minios.Program.run k ~name:"io" (fun env ->
              ignore (Minios.Program.read_file env "/f")));
       false
     with E.Error (E.Io_fault _) -> true);
  let tally = List.fold_left (fun a (_, n) -> a + n) 0 (F.injected plan) in
  Alcotest.(check bool) "injections were tallied" true (tally > 0)

let test_no_plan_no_faults () =
  Alcotest.(check bool) "no plan installed" false (F.enabled ());
  let k = Minios.Kernel.create () in
  Minios.Vfs.write_string (Minios.Kernel.vfs k) ~path:"/f" "x";
  ignore
    (Minios.Program.run k ~name:"io" (fun env ->
         Alcotest.(check string) "reads succeed" "x"
           (Minios.Program.read_file env "/f")))

let test_without_plan_restores () =
  let plan = F.make ~p_syscall:1.0 ~seed:5 () in
  F.with_plan plan (fun () ->
      F.without_plan (fun () ->
          Alcotest.(check bool) "no plan inside" false (F.enabled ()));
      (try F.without_plan (fun () -> failwith "control arm failed")
       with Failure _ -> ());
      Alcotest.(check bool) "the plan is back after a raise" true
        (match F.active () with Some p -> p == plan | None -> false))

(* ---------------- client transport faults ----------------------- *)

let with_client f =
  let kernel = Minios.Kernel.create () in
  let db = Fixtures.sales_db () in
  let server = Dbclient.Server.install kernel db in
  let session = I.create ~mode:I.Passthrough ~kernel server in
  I.bind kernel session;
  Fun.protect
    ~finally:(fun () -> I.unbind kernel)
    (fun () ->
      ignore
        (Minios.Program.run kernel ~name:"client-test" (fun env ->
             let conn = Dbclient.Client.connect env ~db:"sales" in
             f conn)))

let test_client_closed_typed () =
  Alcotest.(check bool) "send on a closed connection is typed" true
    (try
       with_client (fun conn ->
           Dbclient.Client.close conn;
           ignore (Dbclient.Client.send conn "SELECT id FROM sales"));
       false
     with E.Error (E.Connection_closed _) -> true)

let test_client_transport_faults_exhaust_retries () =
  let plan = F.make ~p_conn:1.0 ~seed:9 () in
  Alcotest.(check bool) "permanent transport noise exhausts the retries" true
    (try
       F.with_plan plan (fun () ->
           with_client (fun conn ->
               ignore (Dbclient.Client.send conn "SELECT id FROM sales")));
       false
     with
    | E.Error (E.Retries_exhausted { op = "client.send"; attempts; last }) ->
      attempts = F.default_attempts && E.is_transient last)

let test_client_recovers_from_transient_faults () =
  (* low fault probability: with 4 attempts per statement, the workload
     completes despite occasional injected drops *)
  let plan = F.make ~p_conn:0.2 ~seed:11 () in
  F.with_plan plan (fun () ->
      with_client (fun conn ->
          for _ = 1 to 20 do
            ignore (Dbclient.Client.query conn "SELECT id FROM sales")
          done));
  let drops = List.assoc "drop" (F.injected plan) in
  let garbles = List.assoc "garble" (F.injected plan) in
  Alcotest.(check bool) "some faults were actually injected" true
    (drops + garbles > 0)

(* ---------------- recorder line numbers ------------------------- *)

let decode_fails_at ~line data =
  try
    ignore (Dbclient.Recorder.decode data);
    false
  with E.Error (E.Decode_error { line = l; _ }) -> l = line

let test_decode_line_numbers () =
  Alcotest.(check bool) "garbage on line 2" true
    (decode_fails_at ~line:2 "S\t0\tQ\t0\t-\tSELECT 1\ngarbage");
  Alcotest.(check bool) "bad kind tag on line 1" true
    (decode_fails_at ~line:1 "S\t0\tZ\t0\t-\tSELECT 1");
  Alcotest.(check bool) "row before statement on line 1" true
    (decode_fails_at ~line:1 "R\t1");
  Alcotest.(check bool) "bad row value on line 2" true
    (decode_fails_at ~line:2 "S\t0\tQ\t0\t-\tSELECT 1\nR\tzzz");
  Alcotest.(check bool) "bad index on line 3" true
    (decode_fails_at ~line:3
       "S\t0\tQ\t0\t-\tSELECT 1\nR\ti1\nS\tnope\tQ\t0\t-\tSELECT 2")

(* ---------------- package corruption matrix --------------------- *)

(* a hand-built minimal package: checksummed sections *)
let sec name payload =
  Printf.sprintf "@%s %d %08lx\n%s\n" name (String.length payload)
    (F.Crc32.digest payload) payload

(* same section, deliberately wrong checksum *)
let bad_sec name payload =
  Printf.sprintf "@%s %d %08lx\n%s\n" name (String.length payload)
    (F.Crc32.digest (payload ^ "!")) payload

let minimal =
  sec "kind" "ptu" ^ sec "app" "a" ^ sec "binary" "/bin/a" ^ sec "trace" ""

let test_minimal_parses () =
  let pkg = Package.of_bytes minimal in
  Alcotest.(check bool) "kind" true (pkg.Package.kind = Package.Ptu_full);
  Alcotest.(check string) "app" "a" pkg.Package.app_name

let expect_error what data =
  match Package.of_bytes_result data with
  | Error e -> Some (E.to_string e)
  | Ok _ -> Alcotest.failf "%s: expected a structural error" what

let test_truncated_header () =
  Alcotest.(check bool) "cut mid-header" true
    (expect_error "header" "@kind 3" <> None);
  Alcotest.(check bool) "cut mid-payload" true
    (expect_error "payload"
       (String.sub minimal 0 (String.length minimal - 3))
    <> None);
  Alcotest.(check bool) "no header at all" true
    (expect_error "garbage" "ptu stuff" <> None)

let test_missing_sections () =
  (match Package.of_bytes_result (sec "kind" "ptu") with
  | Error (E.Package_malformed { what; _ }) ->
    Alcotest.(check string) "names the section" "missing section app" what
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "expected an error");
  Alcotest.(check bool) "missing trace" true
    (expect_error "trace" (sec "kind" "ptu" ^ sec "app" "a" ^ sec "binary" "b")
    <> None)

let test_bad_kind_tag () =
  match
    Package.of_bytes_result
      (sec "kind" "weird" ^ sec "app" "a" ^ sec "binary" "b" ^ sec "trace" "")
  with
  | Error (E.Package_malformed { what; _ }) ->
    Alcotest.(check string) "names the tag" "bad kind \"weird\"" what
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "expected an error"

let test_corrupt_content_section_skipped () =
  match
    Package.of_bytes_result
      (minimal ^ bad_sec "csv:t1" "1,2,3" ^ sec "csv:t2" "4,5,6")
  with
  | Ok { Package.r_pkg; r_skipped } ->
    (match r_skipped with
    | [ { Package.c_section = "csv:t1";
          c_error = E.Package_corrupt { section = "csv:t1"; _ } } ] ->
      ()
    | _ -> Alcotest.fail "expected exactly csv:t1 skipped");
    Alcotest.(check (list string)) "intact table survives" [ "t2" ]
      (List.map fst r_pkg.Package.db_subset);
    (* the strict entry point refuses the same bytes *)
    Alcotest.(check bool) "of_bytes is strict" true
      (try
         ignore (Package.of_bytes (minimal ^ bad_sec "csv:t1" "1,2,3"));
         false
       with E.Error (E.Package_corrupt _) -> true)
  | Error e -> Alcotest.failf "unexpected structural error: %s" (E.to_string e)

let test_corrupt_structural_section_fatal () =
  match
    Package.of_bytes_result
      (sec "kind" "ptu" ^ sec "app" "a" ^ sec "binary" "b" ^ bad_sec "trace" "t")
  with
  | Error (E.Package_corrupt { section = "trace"; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "corrupt trace must be fatal"

let test_legacy_headers_rejected () =
  (* a section header without a crc token is malformed: nothing is read
     unverified *)
  let legacy = "@kind 3\nptu\n@app 1\na\n@binary 2\n/b\n@trace 0\n\n" in
  match Package.of_bytes_result legacy with
  | Error (E.Package_malformed { offset = 0; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.to_string e)
  | Ok _ -> Alcotest.fail "a header without a checksum must be malformed"

let test_real_roundtrip_with_checksums () =
  let pkg = Package.build (Lazy.force Ldv_fixtures.included) in
  match Package.of_bytes_result (Package.to_bytes pkg) with
  | Ok { Package.r_pkg; r_skipped = [] } ->
    Alcotest.(check int) "tables survive" (List.length pkg.Package.db_subset)
      (List.length r_pkg.Package.db_subset)
  | Ok _ -> Alcotest.fail "clean bytes must skip nothing"
  | Error e -> Alcotest.failf "clean bytes must parse: %s" (E.to_string e)

(* ---------------- partial restore of index sections ------------- *)

(* [data] with one payload byte of section [name] flipped: the section
   keeps its framing and fails its checksum. *)
let corrupt_section data name =
  let header = "@" ^ name ^ " " in
  let n = String.length header in
  let rec find i =
    if i + n > String.length data then Alcotest.failf "no section %s" name
    else if String.sub data i n = header then i
    else find (i + 1)
  in
  let payload = String.index_from data (find 0) '\n' + 1 in
  String.mapi
    (fun i c -> if i = payload then Char.chr (Char.code c lxor 0x20) else c)
    data

(* Parse [data], expecting exactly [section] to be skipped as corrupt. *)
let restore_skipping data ~section =
  match Package.of_bytes_result data with
  | Ok { Package.r_pkg; r_skipped } ->
    Alcotest.(check (list string)) "reported as skipped" [ section ]
      (List.map (fun c -> c.Package.c_section) r_skipped);
    r_pkg
  | Error e -> Alcotest.failf "unexpected structural error: %s" (E.to_string e)

(* [replay.skipped_indexes] counted while [f] runs. *)
let skipped_indexes f =
  Ldv_obs.set_sink Ldv_obs.Memory;
  Ldv_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Ldv_obs.set_sink Ldv_obs.Null;
      Ldv_obs.reset ())
    (fun () ->
      let r = f () in
      ( r,
        Option.value ~default:0
          (List.assoc_opt "replay.skipped_indexes"
             (Ldv_obs.snapshot ()).Ldv_obs.counters) ))

(* A lost index section costs the replay its access path, not its
   results. *)
let test_corrupt_index_section_skipped () =
  let audit = Lazy.force Ldv_fixtures.included in
  let data = Package.to_bytes (Package.build audit) in
  let pkg =
    restore_skipping (corrupt_section data "index:orders")
      ~section:"index:orders"
  in
  Alcotest.(check bool) "the orders index lines are gone" false
    (List.mem_assoc "orders" pkg.Package.db_indexes);
  let prepared = Replay.prepare pkg in
  let orders =
    Minidb.Catalog.find
      (Minidb.Database.catalog (Dbclient.Server.db prepared.Replay.server))
      "orders"
  in
  Alcotest.(check (list string)) "orders restored unindexed" []
    (Minidb.Table.index_names orders);
  Alcotest.(check (list string)) "replay verified" []
    (Replay.verify ~audit (Replay.run prepared))

(* A lost schema section drops its table; the table's index lines then
   name a table the replay does not have, and are skipped and counted. *)
let test_index_of_lost_table_skipped () =
  let audit = Lazy.force Ldv_fixtures.included in
  let data = Package.to_bytes (Package.build audit) in
  let pkg =
    restore_skipping (corrupt_section data "schema:orders")
      ~section:"schema:orders"
  in
  Alcotest.(check bool) "the orders index lines survive" true
    (List.mem_assoc "orders" pkg.Package.db_indexes);
  let prepared, skipped = skipped_indexes (fun () -> Replay.prepare pkg) in
  Alcotest.(check int) "the orphaned index line is counted" 1 skipped;
  Alcotest.(check bool) "no orders table" false
    (Minidb.Catalog.mem
       (Minidb.Database.catalog (Dbclient.Server.db prepared.Replay.server))
       "orders")

let test_random_corruption_never_uncaught () =
  (* the acceptance property at the parser level: random bit flips and
     truncations either parse (possibly degraded) or fail typed *)
  let data = Package.to_bytes (Package.build (Lazy.force Ldv_fixtures.included)) in
  for seed = 0 to 49 do
    let plan = F.make ~p_corrupt:1.0 ~seed () in
    F.with_plan plan (fun () ->
        let corrupted =
          match F.corrupt_package data with
          | Some (c, _) -> c
          | None -> Alcotest.fail "p_corrupt=1.0 must corrupt"
        in
        match Package.of_bytes_result corrupted with
        | Ok _ | Error _ -> ()
        | exception e ->
          Alcotest.failf "seed %d: uncaught %s" seed (Printexc.to_string e))
  done

(* ---------------- crash-safe writes ----------------------------- *)

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_write_file_atomic () =
  let path = tmp_path "ldv-test-atomic.ldv" in
  let pkg = Package.of_bytes minimal in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Package.write_file pkg ~path;
      Alcotest.(check bool) "file exists" true (Sys.file_exists path);
      Alcotest.(check bool) "no temp residue" false
        (Sys.file_exists (path ^ ".tmp"));
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let pkg' = Package.of_bytes data in
      Alcotest.(check string) "round-trips through disk"
        pkg.Package.app_name pkg'.Package.app_name)

let test_write_file_failure_leaves_nothing () =
  let path = tmp_path "ldv-test-atomic-fail.ldv" in
  (try Sys.remove path with Sys_error _ -> ());
  let pkg = Package.of_bytes minimal in
  let plan = F.make ~p_syscall:1.0 ~seed:21 () in
  Alcotest.(check bool) "write failure is typed" true
    (try
       F.with_plan plan (fun () -> Package.write_file pkg ~path);
       false
     with
    | E.Error (E.Io_fault _ | E.Retries_exhausted _) -> true);
  Alcotest.(check bool) "no destination created" false (Sys.file_exists path);
  Alcotest.(check bool) "no temp residue" false
    (Sys.file_exists (path ^ ".tmp"))

(* ---------------- the faults campaigns ------------------------- *)

let small_audit mode =
  Ldv_fixtures.audit_at ~sf:0.0005 ~vid:"Q1-3" ~n_insert:4 ~n_update:2
    ~n_select:1 mode

(* [small_audit] under one fixed program name: the name is packaged, so
   the byte offsets a corrupt campaign reports must not depend on how
   many fixtures the suite built before this test. *)
let golden_audit mode =
  let kernel, server, _cfg, binary, program, _name =
    Ldv_fixtures.make_setup ~sf:0.0005 ~vid:"Q1-3" ~n_insert:4 ~n_update:2
      ~n_select:1 ()
  in
  Minios.Program.register ~name:"faults-golden" program;
  Audit.run ~packaging:mode kernel server ~app_name:"faults-golden"
    ~app_binary:binary ~app_libs:Tpch.Workload.app_libs program

let test_faultcheck_deterministic_and_contained () =
  let faults = Check.faults ~audit:golden_audit in
  let r1 = Check.run faults ~campaigns:5 ~seed:3 in
  let r2 = Check.run faults ~campaigns:5 ~seed:3 in
  Alcotest.(check string) "same seed, identical report"
    (Check.to_string r1) (Check.to_string r2);
  Alcotest.(check string) "golden report"
    (In_channel.with_open_bin "golden/faults-fixture-n5-seed3.txt"
       In_channel.input_all)
    (Check.to_string r1 ^ "\n");
  Alcotest.(check int) "no uncaught exceptions" 0 r1.Check.r_uncaught;
  Alcotest.(check int) "all kinds x campaigns ran" 15
    (List.length r1.Check.r_runs);
  (* the control campaign (profile 0) must verify cleanly for every kind *)
  List.iter
    (fun (r : Check.run) ->
      if r.Check.campaign = 0 then
        Alcotest.(check string)
          (Printf.sprintf "control verifies (%s)" r.Check.columns)
          "verified"
          (Check.label r.Check.outcome))
    r1.Check.r_runs

let test_faultcheck_seeds_differ () =
  let faults = Check.faults ~audit:small_audit in
  let r1 = Check.run faults ~campaigns:2 ~seed:1 in
  let r2 = Check.run faults ~campaigns:2 ~seed:2 in
  (* different seeds draw different faults; the tallies differ *)
  Alcotest.(check bool) "reports are seed-sensitive" true
    (not (String.equal (Check.to_string r1) (Check.to_string r2)));
  Alcotest.(check int) "still no uncaught" 0
    (r1.Check.r_uncaught + r2.Check.r_uncaught)

let suite =
  [ Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split independence" `Quick
      test_prng_split_independent;
    Alcotest.test_case "crc32 known vector" `Quick test_crc32_known_vector;
    QCheck_alcotest.to_alcotest prop_crc32_matches_reference;
    Alcotest.test_case "crc32 of a multi-MB string" `Quick test_crc32_large_input;
    Alcotest.test_case "retries recover" `Quick test_retries_recover;
    Alcotest.test_case "permanent errors immediate" `Quick
      test_retries_permanent_immediate;
    Alcotest.test_case "retries exhausted" `Quick test_retries_exhausted;
    Alcotest.test_case "kernel injection typed" `Quick
      test_kernel_injection_typed;
    Alcotest.test_case "no plan, no faults" `Quick test_no_plan_no_faults;
    Alcotest.test_case "without_plan restores the plan" `Quick
      test_without_plan_restores;
    Alcotest.test_case "closed connection typed" `Quick
      test_client_closed_typed;
    Alcotest.test_case "transport faults exhaust retries" `Quick
      test_client_transport_faults_exhaust_retries;
    Alcotest.test_case "client recovers from transients" `Quick
      test_client_recovers_from_transient_faults;
    Alcotest.test_case "decode line numbers" `Quick test_decode_line_numbers;
    Alcotest.test_case "minimal package parses" `Quick test_minimal_parses;
    Alcotest.test_case "truncated headers" `Quick test_truncated_header;
    Alcotest.test_case "missing sections" `Quick test_missing_sections;
    Alcotest.test_case "bad kind tag" `Quick test_bad_kind_tag;
    Alcotest.test_case "corrupt content skipped" `Quick
      test_corrupt_content_section_skipped;
    Alcotest.test_case "corrupt structural fatal" `Quick
      test_corrupt_structural_section_fatal;
    Alcotest.test_case "legacy headers rejected" `Quick
      test_legacy_headers_rejected;
    Alcotest.test_case "real package roundtrip" `Quick
      test_real_roundtrip_with_checksums;
    Alcotest.test_case "corrupt index section skipped" `Quick
      test_corrupt_index_section_skipped;
    Alcotest.test_case "index lines of a lost table skipped" `Quick
      test_index_of_lost_table_skipped;
    Alcotest.test_case "random corruption never uncaught" `Quick
      test_random_corruption_never_uncaught;
    Alcotest.test_case "atomic write" `Quick test_write_file_atomic;
    Alcotest.test_case "failed write leaves nothing" `Quick
      test_write_file_failure_leaves_nothing;
    Alcotest.test_case "faultcheck deterministic" `Quick
      test_faultcheck_deterministic_and_contained;
    Alcotest.test_case "faultcheck seed sensitivity" `Quick
      test_faultcheck_seeds_differ ]

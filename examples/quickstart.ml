(* Quickstart: make a DB application repeatable in ~60 lines.

   The application below reads a threshold from a config file, asks the
   database for every reading above it, and writes the matches to a report
   file. We audit one execution, build both LDV package kinds, re-execute
   them, and verify that the replays reproduce the original outputs.

   Run with:  dune exec examples/quickstart.exe *)

let app_name = "sensor-report"

(* 1. The application: ordinary code against the Program/Client APIs.
   Nothing in it knows whether it is being monitored or replayed. *)
let application env =
  let threshold = Minios.Program.read_file env "/etc/sensor.conf" in
  let conn = Dbclient.Client.connect env ~db:"sensors" in
  let rows =
    Dbclient.Client.query conn
      (Printf.sprintf
         "SELECT station, reading FROM readings WHERE reading > %s ORDER BY \
          reading DESC"
         (String.trim threshold))
  in
  let report =
    String.concat "\n"
      (List.map
         (fun row ->
           Printf.sprintf "%s: %s"
             (Minidb.Value.to_raw_string row.(0))
             (Minidb.Value.to_raw_string row.(1)))
         rows)
  in
  Minios.Program.write_file env "/home/alice/report.txt" report;
  Dbclient.Client.close conn

(* 2. The environment: a database and a simulated OS holding the app's
   files. *)
let make_environment () =
  let db = Minidb.Database.create ~name:"sensors" () in
  ignore
    (Minidb.Database.exec_script db
       "CREATE TABLE readings (station TEXT, reading INT);\n\
        INSERT INTO readings VALUES ('helsinki', 12), ('nairobi', 31), \
        ('lima', 18), ('oslo', 7), ('quito', 25)");
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel db in
  Minios.Vfs.write_string (Minios.Kernel.vfs kernel) ~path:"/etc/sensor.conf" "15\n";
  Minios.Vfs.write_opaque (Minios.Kernel.vfs kernel) ~path:"/usr/bin/sensor-report" 80_000;
  (kernel, server)

let () =
  Minios.Program.register ~name:app_name application;
  List.iter
    (fun packaging ->
      (* 3. Audit one execution. *)
      let kernel, server = make_environment () in
      let audit =
        Ldv_core.Audit.run ~packaging kernel server ~app_name
          ~app_binary:"/usr/bin/sensor-report" application
      in
      (* 4. Build the package. *)
      let pkg = Ldv_core.Package.build audit in
      (* 5. Re-execute it somewhere else (a fresh kernel) and verify. *)
      let replay = Ldv_core.Replay.execute pkg in
      let verdict =
        match Ldv_core.Replay.verify ~audit replay with
        | [] -> "replay reproduced the original outputs"
        | problems -> "DIVERGED: " ^ String.concat "; " problems
      in
      Printf.printf "%-16s %-9s %s\n"
        (Ldv_core.Package.kind_name pkg.Ldv_core.Package.kind)
        (Ldv_core.Report.human_bytes (Ldv_core.Package.total_bytes pkg))
        verdict;
      (* the relevant DB subset: only the three readings above threshold *)
      if packaging = Ldv_core.Audit.Included then begin
        let relevant = Ldv_core.Slice.relevant audit in
        Printf.printf "  relevant DB subset: %d of 5 tuples\n"
          (Minidb.Tid.Set.cardinal relevant)
      end)
    [ Ldv_core.Audit.Included; Ldv_core.Audit.Excluded ];
  print_endline "quickstart done."

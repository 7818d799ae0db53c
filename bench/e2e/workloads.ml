(* The four workloads: what each one sets up, and how its application
   runs natively and under audit. Everything here goes through public
   library calls; the library sees only the generated inputs. *)

open Ldv_core
module I = Dbclient.Interceptor

type app =
  | Tpch of {
      vid : string;  (** Table II query of the Select step *)
      packaging : Audit.packaging;
      n_insert : int;
      n_select : int;
      n_update : int;
    }
  | Oltp of {
      rows : int;
      sessions : int;
      statements : int;  (** per session *)
      replicas : int;
      staleness : int;
    }

type t = {
  name : string;
  sf : float;  (** TPC-H scale factor (TPC-H workloads only) *)
  app : app;
}

let tpch ~vid ~packaging (n_insert, n_select, n_update) =
  Tpch { vid; packaging; n_insert; n_select; n_update }

let all =
  [ { name = "q1-included";
      sf = 0.01;
      app = tpch ~vid:"Q1-1" ~packaging:Audit.Included (1000, 10, 100) };
    { name = "q1-excluded";
      sf = 0.01;
      app = tpch ~vid:"Q1-1" ~packaging:Audit.Excluded (1000, 10, 100) };
    { name = "q3-lineage";
      sf = 0.01;
      app = tpch ~vid:"Q3-1" ~packaging:Audit.Included (100, 4, 20) };
    { name = "cluster-mix";
      sf = 0.0;
      app =
        Oltp
          { rows = 10_000;
            sessions = 2;
            statements = 500;
            replicas = 2;
            staleness = 4 } } ]

let find name = List.find_opt (fun w -> w.name = name) all

(** The smoke-test size of a workload: same shape, a fraction of the
    work. *)
let quick w =
  match w.app with
  | Tpch t ->
    { w with
      sf = 0.002;
      app =
        Tpch
          { t with
            n_insert = 50;
            n_select = min 3 t.n_select;
            n_update = 10 } }
  | Oltp o -> { w with app = Oltp { o with rows = 500; statements = 60 } }

(** Reads and writes one iteration's audit issues (OLTP clients run an
    exact mix). They fix each workload's tail percentile independently
    of how many iterations fit into [--seconds]. *)
let reads_per_iter w =
  match w.app with
  | Tpch t -> t.n_select
  | Oltp o ->
    let n_read, n_range, _, _ = Apps.mix ~statements:o.statements in
    o.sessions * (n_read + n_range)

let writes_per_iter w =
  match w.app with
  | Tpch t -> t.n_insert + t.n_update
  | Oltp o -> (o.sessions * o.statements) - reads_per_iter w

(* ------------------------------------------------------------------ *)
(* Set-up: generate the instance once and keep it as table images; each
   run restores a fresh mutable copy.                                  *)

type fixture = {
  db_name : string;
  images : string list;
  stats : Tpch.Dbgen.stats option;
}

let images_of (db : Minidb.Database.t) =
  let catalog = Minidb.Database.catalog db in
  List.map
    (fun name ->
      Dbclient.Server.encode_table_image
        (Dbclient.Server.table_image (Minidb.Catalog.find catalog name)))
    (Minidb.Catalog.table_names catalog)

let load w ~seed : fixture =
  match w.app with
  | Tpch _ ->
    let db, stats = Tpch.Dbgen.setup ~seed ~sf:w.sf () in
    { db_name = "tpch"; images = images_of db; stats = Some stats }
  | Oltp o ->
    let db = Minidb.Database.create ~name:Apps.oltp_db () in
    ignore
      (Minidb.Database.exec db
         "CREATE TABLE accounts (id INT, owner TEXT, balance INT)");
    let rng = Tpch.Prng.create ~seed in
    ignore
      (Minidb.Database.bulk_insert db ~table:"accounts"
         (List.init o.rows (fun k ->
              [| Minidb.Value.Int (k + 1);
                 Minidb.Value.Str (Printf.sprintf "owner%d" (Tpch.Prng.int rng 500));
                 Minidb.Value.Int (Tpch.Prng.int rng 10_000) |])));
    ignore (Minidb.Database.exec db "CREATE INDEX accounts_id ON accounts (id)");
    { db_name = Apps.oltp_db; images = images_of db; stats = None }

let fresh_db (fx : fixture) : Minidb.Database.t =
  let db = Minidb.Database.create ~name:fx.db_name () in
  List.iter
    (fun img ->
      Dbclient.Server.restore_table_image db
        (Dbclient.Server.decode_table_image img))
    fx.images;
  db

(* ------------------------------------------------------------------ *)
(* Programs, registered for replay under names that encode everything
   that shapes their statement stream.                                 *)

type programs =
  | Tpch_app of {
      cfg : Tpch.Workload.config;
      app_name : string;
      program : Minios.Program.program;
    }
  | Oltp_clients of Audit.client list

let client_libs = [ "/usr/lib/libc.so.6"; "/opt/minidb/lib/libpq.so.5" ]

let programs w ~seed (fx : fixture) : programs =
  match (w.app, fx.stats) with
  | Tpch t, Some stats ->
    let q = Tpch.Queries.find stats t.vid in
    let cfg =
      { (Tpch.Workload.default_config ~query_sql:q.Tpch.Queries.sql ~stats) with
        Tpch.Workload.n_insert = t.n_insert;
        n_select = t.n_select;
        n_update = t.n_update;
        insert_seed = seed }
    in
    let app_name =
      Printf.sprintf "e2e-%s-%g-%d-%d-%d-%d" t.vid w.sf t.n_insert t.n_select
        t.n_update seed
    in
    let program = Apps.tpch cfg in
    Minios.Program.register ~name:app_name program;
    Tpch_app { cfg; app_name; program }
  | Oltp o, _ ->
    let shape =
      { Apps.rows = o.rows; sessions = o.sessions; statements = o.statements; seed }
    in
    Oltp_clients
      (List.init o.sessions (fun i ->
           let name =
             Printf.sprintf "e2e-oltp-%d-%d-%d-%d" o.rows o.statements seed i
           in
           let program = Apps.oltp_client shape i in
           Minios.Program.register ~name program;
           { Audit.cl_name = name;
             cl_binary = Printf.sprintf "/app/bin/oltp-client-%d" i;
             cl_libs = client_libs;
             cl_program = program }))
  | Tpch _, None -> invalid_arg "Workloads.programs: TPC-H fixture without stats"

(* ------------------------------------------------------------------ *)
(* One deployment: a fresh kernel and server around a fresh copy of the
   fixture (plus, for the OLTP workload, a durable leader and its read
   replicas). Building it is not timed.                                *)

type env = {
  kernel : Minios.Kernel.t;
  server : Dbclient.Server.t;
  app_binary : string;  (** TPC-H workloads only *)
  cluster : Dbclient.Replication.t option;
}

let deploy w (fx : fixture) (progs : programs) : env =
  let kernel = Minios.Kernel.create () in
  let server = Dbclient.Server.install kernel (fresh_db fx) in
  match (w.app, progs) with
  | Oltp o, Oltp_clients clients ->
    let vfs = Minios.Kernel.vfs kernel in
    Minios.Vfs.write_opaque vfs ~path:"/usr/lib/libc.so.6" 2_000_000;
    List.iter
      (fun (cl : Audit.client) ->
        Minios.Vfs.write_opaque vfs ~path:cl.Audit.cl_binary 120_000)
      clients;
    let proc = Minios.Kernel.start_process kernel ~name:"minidb-leader" () in
    let leader =
      Dbclient.Durable.start kernel server ~pid:proc.Minios.Kernel.pid
    in
    let cluster =
      Dbclient.Replication.create kernel ~leader ~replicas:o.replicas
        ~staleness:o.staleness ()
    in
    { kernel; server; app_binary = ""; cluster = Some cluster }
  | Tpch _, Tpch_app { cfg; _ } ->
    Tpch.Workload.install_runtime kernel;
    let app_binary = Tpch.Workload.install_app_files kernel cfg in
    { kernel; server; app_binary; cluster = None }
  | _ -> invalid_arg "Workloads.deploy: programs do not match the workload"

(** The OLTP sessions' round order. With two closed-loop sessions about
    half of all statements wait for the other session's statement, so
    the latency medians sit at the edge between the two modes: a
    seed-dependent schedule (or operation order) moved them by up to 30%
    between seeds. Both stay fixed; the seed varies the data. *)
let oltp_sched_seed = 1

(** The application with a [Passthrough] session and no tracer: the
    baseline the audit's cost is judged against. *)
let run_native (progs : programs) (e : env) : unit =
  match progs with
  | Tpch_app { app_name; program; _ } ->
    let session = I.create ~mode:I.Passthrough ~kernel:e.kernel e.server in
    I.bind e.kernel session;
    Fun.protect
      ~finally:(fun () -> I.unbind e.kernel)
      (fun () ->
        ignore
          (Minios.Program.run e.kernel ~binary:e.app_binary
             ~libs:Tpch.Workload.app_libs ~name:app_name program))
  | Oltp_clients clients ->
    let primary =
      I.create ~mode:I.Passthrough ~snapshot_reads:true ~kernel:e.kernel
        e.server
    in
    Option.iter (I.attach_cluster primary) e.cluster;
    let sessions =
      primary
      :: List.mapi
           (fun i _ -> I.create_sibling primary ~session_id:(i + 1))
           (List.tl clients)
    in
    let jobs =
      List.map2
        (fun (cl : Audit.client) sess ->
          Minios.Sched.client ~binary:cl.Audit.cl_binary ~libs:cl.Audit.cl_libs
            ~name:cl.Audit.cl_name (fun env ->
              let pid = Minios.Program.pid env in
              I.bind_for e.kernel ~pid sess;
              Fun.protect
                ~finally:(fun () -> I.unbind_for e.kernel ~pid)
                (fun () -> cl.Audit.cl_program env)))
        clients sessions
    in
    ignore (Minios.Sched.run e.kernel ~seed:oltp_sched_seed jobs)

let run_audit w (progs : programs) (e : env) : Audit.t =
  match (w.app, progs) with
  | Tpch t, Tpch_app { app_name; program; _ } ->
    Audit.run ~packaging:t.packaging e.kernel e.server ~app_name
      ~app_binary:e.app_binary ~app_libs:Tpch.Workload.app_libs program
  | Oltp _, Oltp_clients clients ->
    Audit.run_concurrent ~packaging:Audit.Included ~sched_seed:oltp_sched_seed
      ?cluster:e.cluster e.kernel e.server clients
  | _ -> invalid_arg "Workloads.run_audit: programs do not match the workload"

(* The benchmark's client programs. Each client call is timed here, in
   the application, so per-statement latency is what a program linked
   against the client library observes. Programs run unchanged in the
   native run, under audit, and at replay; the harness points [sink] at
   a fresh recorder before each phase. *)

type kind = Insert | Update | Select

type recorder = {
  mutable inserts : float list;  (** seconds per call *)
  mutable updates : float list;
  mutable selects : float list;
  mutable file_io : float list;
  mutable failed : int;  (** statements that raised *)
}

let recorder () =
  { inserts = []; updates = []; selects = []; file_io = []; failed = 0 }

let sink = ref (recorder ())
let stmts r = List.length r.inserts + List.length r.updates + List.length r.selects
let writes r = r.inserts @ r.updates

(* Replica lag, sampled after every statement of a traced cluster run. *)
let lag_probe : (unit -> int) option ref = ref None
let max_lag = ref 0

let span_name = function
  | Insert -> "client.insert"
  | Update -> "client.update"
  | Select -> "client.select"

(** One client call: timed, counted as failed when it raises (the
    program carries on, so the statement stream stays the same). *)
let call kind f =
  let r = !sink in
  let t0 = Clock.now () in
  let result = try Some (f ()) with _ -> None in
  let t1 = Clock.now () in
  let dt = t1 -. t0 in
  (match kind with
  | Insert -> r.inserts <- dt :: r.inserts
  | Update -> r.updates <- dt :: r.updates
  | Select -> r.selects <- dt :: r.selects);
  if Option.is_none result then r.failed <- r.failed + 1;
  Spans.leaf (span_name kind) ~t0 ~t1;
  (match !lag_probe with
  | Some lag -> max_lag := max !max_lag (lag ())
  | None -> ());
  result

let file_io f =
  let t0 = Clock.now () in
  let x = f () in
  let t1 = Clock.now () in
  let r = !sink in
  r.file_io <- (t1 -. t0) :: r.file_io;
  Spans.leaf "app.file_io" ~t0 ~t1;
  x

(** The paper's evaluation application (§IX-A), issuing exactly the
    statement stream of [Tpch.Workload.app]: read the config file,
    insert [n_insert] fresh orders, run the query [n_select] times
    (writing the first result to the output file), then update
    [n_update] order comments. *)
let tpch (cfg : Tpch.Workload.config) : Minios.Program.program =
 fun env ->
  let cfg_text () = Minios.Program.read_file env cfg.config_path in
  ignore (file_io cfg_text);
  let conn = Dbclient.Client.connect env ~db:"tpch" in
  let rng = Tpch.Prng.create ~seed:cfg.insert_seed in
  for k = 0 to cfg.n_insert - 1 do
    let row =
      Tpch.Dbgen.order_row rng ~orderkey:(cfg.base_orderkey + k)
        ~n_customer:cfg.n_customer
    in
    ignore
      (call Insert (fun () ->
           Dbclient.Client.exec conn (Tpch.Workload.insert_sql_of_row row)))
  done;
  let query () = Dbclient.Client.query conn cfg.query_sql in
  let rows = Option.value ~default:[] (call Select query) in
  file_io (fun () ->
      Minios.Program.write_file env cfg.out_path
        (Tpch.Workload.render_rows rows));
  for _ = 2 to cfg.n_select do
    ignore (call Select query)
  done;
  for k = 1 to cfg.n_update do
    let sql =
      Printf.sprintf
        "UPDATE orders SET o_comment = 'refreshed comment %d' WHERE \
         o_orderkey = %d"
        k k
    in
    ignore (call Update (fun () -> Dbclient.Client.exec conn sql))
  done;
  Dbclient.Client.close conn

(** Shape of the OLTP fixture and of its clients' statement streams. *)
type oltp = {
  rows : int;  (** pre-existing accounts, ids 1..rows *)
  sessions : int;  (** clients *)
  statements : int;  (** per client *)
  seed : int;
}

let oltp_db = "bank"

(** Key of a point operation or range start for a draw [u] in [0, 1):
    its square, so low ids are hot. *)
let skewed_key u ~rows = 1 + min (rows - 1) (int_of_float (u *. u *. float_of_int rows))

let shuffle rng a =
  for j = Array.length a - 1 downto 1 do
    let k = Tpch.Prng.int rng (j + 1) in
    let x = a.(j) in
    a.(j) <- a.(k);
    a.(k) <- x
  done

(** Client [i]'s share of a stratified sample of [n * sessions] draws
    from [0, 1): one draw from each stratum [(k * sessions + i) / (n *
    sessions)], k < n, in an order the seed picks. Every seed thus draws
    the same spread of keys and picks the exact keys and their order;
    with plain uniform draws the set of rows the clients touch, which
    replay restores and range counts scan, differed by 15% between
    seeds. *)
type draws = { us : float array; mutable next : int }

let stratified rng ~n ~sessions i =
  let total = float_of_int (n * sessions) in
  let us =
    Array.init n (fun k ->
        (float_of_int ((k * sessions) + i) +. Tpch.Prng.float rng) /. total)
  in
  shuffle rng us;
  { us; next = 0 }

let take d =
  d.next <- d.next + 1;
  d.us.(d.next - 1)

type op = Point_read | Range_count | Point_update | Insert_row

(** Operations per client: 50% point reads, 10% BETWEEN range counts,
    25% point updates, the rest (15%) inserts. *)
let mix ~statements =
  let n_read = statements / 2 and n_range = statements / 10 in
  let n_update = statements / 4 in
  (n_read, n_range, n_update, statements - n_read - n_range - n_update)

(** Client [i]'s operations in exact proportions, in an order fixed per
    client. *)
let deck i ~statements =
  let rng = Tpch.Prng.create ~seed:(i + 1) in
  let n_read, n_range, n_update, _ = mix ~statements in
  let ops =
    Array.init statements (fun j ->
        if j < n_read then Point_read
        else if j < n_read + n_range then Range_count
        else if j < n_read + n_range + n_update then Point_update
        else Insert_row)
  in
  shuffle rng ops;
  ops

(** OLTP client [i]: a closed loop over its deck of [statements]
    operations. The seed draws the keys (stratified), range widths
    (stratified), deltas and inserted values, not the operation order:
    see [Workloads.oltp_sched_seed]. Every answer lands in
    [/out/oltp-<i>.txt], so replay verification checks each response. *)
let oltp_client (o : oltp) i : Minios.Program.program =
 fun env ->
  let conn = Dbclient.Client.connect env ~db:oltp_db in
  let rng = Tpch.Prng.create ~seed:((o.seed * 7919) + i) in
  let out = Buffer.create 4096 in
  let answer label = function
    | Some [ [| v |] ] ->
      Buffer.add_string out label;
      Buffer.add_string out (Minidb.Value.to_raw_string v);
      Buffer.add_char out '\n'
    | Some _ -> Buffer.add_string out (label ^ "?\n")
    | None -> Buffer.add_string out (label ^ "failed\n")
  in
  let ops = deck i ~statements:o.statements in
  let n_read, n_range, n_update, _ = mix ~statements:o.statements in
  let draws n = stratified rng ~n ~sessions:o.sessions i in
  let reads = draws n_read and ranges = draws n_range and widths = draws n_range in
  let updates = draws n_update in
  let key d = skewed_key (take d) ~rows:o.rows in
  for j = 1 to o.statements do
    match ops.(j - 1) with
    | Point_read ->
      let k = key reads in
      answer
        (Printf.sprintf "r %d " k)
        (call Select (fun () ->
             Dbclient.Client.query conn
               (Printf.sprintf "SELECT balance FROM accounts WHERE id = %d" k)))
    | Range_count ->
      let k = key ranges in
      let hi = k + 5 + int_of_float (take widths *. 46.0) in
      answer
        (Printf.sprintf "c %d " k)
        (call Select (fun () ->
             Dbclient.Client.query conn
               (Printf.sprintf
                  "SELECT COUNT(*) FROM accounts WHERE id BETWEEN %d AND %d" k
                  hi)))
    | Point_update ->
      let k = key updates in
      let delta = Tpch.Prng.in_range rng ~lo:(-50) ~hi:50 in
      ignore
        (call Update (fun () ->
             Dbclient.Client.exec conn
               (Printf.sprintf
                  "UPDATE accounts SET balance = balance + %d WHERE id = %d"
                  delta k)))
    | Insert_row ->
      let id = o.rows + (i * o.statements) + j in
      ignore
        (call Insert (fun () ->
             Dbclient.Client.exec conn
               (Printf.sprintf
                  "INSERT INTO accounts VALUES (%d, 'client%d', %d)" id i
                  (Tpch.Prng.int rng 10_000))))
  done;
  Dbclient.Client.close conn;
  file_io (fun () ->
      Minios.Program.write_file env
        (Printf.sprintf "/out/oltp-%d.txt" i)
        (Buffer.contents out))

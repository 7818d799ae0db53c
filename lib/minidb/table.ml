(** Versioned tuple storage.

    Every write produces a new tuple *version* identified by a [Tid.t]. The
    table keeps both the live snapshot (what queries see) and the full
    version history (what update/delete reenactment and package slicing
    need). This replaces the paper's schema-extension trick
    ([prov_rowid]/[prov_v] columns added to user tables): versioning is
    native to the storage layer.

    Rows live in *slots* indexed by rid. Rids are allocated densely from 1
    and never reused, so slot [rid] holds the row's *version chain* (every
    version of the row, newest first), headed by its live version unless
    the row is deleted: scans walk slots [1 .. next_rid-1] in
    ascending-rid order, and MVCC reads and [find_version] walk only the
    chain of one rid. A restore sizes the slots once from the highest rid
    it carries; rids above [max_rid] are rejected, which bounds slot
    memory for rids read from packages and data files. Alongside the hash
    indexes the table supports *ordered* indexes (a lazily-merged sorted
    array over [Value.t]) that serve range lookups for the planner's
    [Range_scan] nodes. *)

type tuple_version = {
  tid : Tid.t;
  values : Value.t array;
  (* Closed half of the version's validity interval: the clock at which this
     version was superseded or deleted, if any. *)
  mutable retired_at : int option;
  (* MVCC bookkeeping. A version written under an open transaction carries
     that transaction's id in [txid] until commit stamps it 0; [committed_at]
     is the clock at which the version became visible to others (the write
     clock for autocommit, the commit clock for transactional writes, 0
     while uncommitted). Symmetrically [retired_tx]/[retired_commit] track
     who retired the version and when that retirement committed. *)
  mutable txid : int;
  mutable committed_at : int;
  mutable retired_tx : int;
  mutable retired_commit : int;
}

(** A secondary hash index over one column of the live snapshot. *)
type index = {
  idx_name : string;
  idx_column : int;  (** position in the schema *)
  idx_entries : (Value.t, int list ref) Hashtbl.t;  (** value -> rids *)
}

(** An ordered secondary index: a sorted array of (value, rid) entries over
    the live snapshot, maintained lazily. Additions buffer in
    [oidx_pending] and merge on the next lookup; removals only bump
    [oidx_dead] — stale entries are filtered against the live snapshot at
    lookup time and swept out when the dead fraction grows. *)
type ordered_index = {
  oidx_name : string;
  oidx_column : int;
  mutable oidx_keys : (Value.t * int) array;  (** sorted by (value, rid) *)
  mutable oidx_n : int;  (** used prefix of [oidx_keys] *)
  mutable oidx_pending : (Value.t * int) list;
  mutable oidx_pending_n : int;
  mutable oidx_dead : int;  (** estimated stale entries in the prefix *)
  mutable oidx_distinct : int;  (** distinct keys at the last merge *)
}

type t = {
  name : string;
  schema : Schema.t;
  mutable slots : tuple_version list array;
      (** rid -> all versions of the row, newest first; covers every rid
          below [next_rid] (slot 0 is unused) *)
  mutable next_rid : int;
  mutable n_live : int;
  mutable n_versions : int;
  mutable indexes : index list;
  mutable ordered : ordered_index list;
  (* MVCC fast-path bookkeeping. [tx_open] mirrors "the owning database has
     an open transaction"; while true, every rid whose visibility can
     diverge from the live snapshot is recorded in [hot] so index lookups
     can fall back to chain walks over (index candidates ∪ hot) only.
     [pending_writes] counts versions with an uncommitted write or
     retirement; [last_stamp] is the newest clock at which committed
     visibility changed — together they certify when an AS-OF or MVCC scan
     may take the plain live path. *)
  mutable tx_open : bool;
  hot : (int, unit) Hashtbl.t;
  mutable pending_writes : int;
  mutable last_stamp : int;
  (* Planner statistics pin: [(rows_at_audit, live_rows_at_pin)]. A
     package-restored table holds only the sliced tuple subset; pinning the
     audit-time row count keeps cost-based join decisions identical between
     the recorded run and its replay (both evolve by the same DML delta). *)
  mutable pinned_rows : (int * int) option;
}

(** The highest rid a table may hold, far above any bench size (the
    storage bench reaches 10^6 rows). Slot memory is O(highest rid), so
    restores reject rids above it rather than allocate for them. *)
let max_rid = 1 lsl 26

(** The highest version a table may hold: a tuple version packs into one
    int as a 26-bit [rid - 1] and a 36-bit version ({!Lineage.pack}), so
    restores reject versions outside [0 .. max_version] rather than
    stamp a version whose packed id would name another tuple. *)
let max_version = Lineage.max_version

let create ~name ~schema =
  { name = String.lowercase_ascii name;
    schema;
    slots = Array.make 64 [];
    next_rid = 1;
    n_live = 0;
    n_versions = 0;
    indexes = [];
    ordered = [];
    tx_open = false;
    hot = Hashtbl.create 16;
    pending_writes = 0;
    last_stamp = 0;
    pinned_rows = None }

let name t = t.name
let schema t = t.schema
let row_count t = t.n_live
let version_count t = t.n_versions

(* ------------------------------------------------------------------ *)
(* Slots.                                                              *)

(* Resize the slots to [n] (covering rids below [n]). *)
let reserve t n =
  let old = Array.length t.slots in
  if n > old then begin
    let slots = Array.make n [] in
    Array.blit t.slots 0 slots 0 old;
    t.slots <- slots
  end

(* Make room for [rid], doubling so that ascending inserts stay
   amortised O(1). *)
let grow t rid =
  if rid >= Array.length t.slots then
    reserve t (max (2 * Array.length t.slots) (rid + 1))

let check_rid t rid =
  if rid < 1 || rid > max_rid then
    Errors.fail
      (Errors.Constraint_violation
         (Printf.sprintf "rid %d of table %s outside 1..%d" rid t.name max_rid))

let check_version t ~rid version =
  if version < 0 || version > max_version then
    Errors.fail
      (Errors.Constraint_violation
         (Printf.sprintf "version %d of rid %d of table %s outside 0..%d"
            version rid t.name max_version))

let chain_at t rid =
  if rid > 0 && rid < Array.length t.slots then t.slots.(rid) else []

(* A row's live version heads its chain; a retired head (or an empty
   chain) means the row has no live version. *)
let find_live t ~rid =
  match chain_at t rid with
  | ({ retired_at = None; _ } as tv) :: _ -> Some tv
  | _ -> None

(* [f rid tv] for every live row, in ascending-rid order. *)
let iter_live t f =
  for rid = 1 to t.next_rid - 1 do
    match t.slots.(rid) with
    | ({ retired_at = None; _ } as tv) :: _ -> f rid tv
    | _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* MVCC bookkeeping helpers.                                           *)

let note_churn t rid = if t.tx_open then Hashtbl.replace t.hot rid ()
let stamp t clock = if clock > t.last_stamp then t.last_stamp <- clock

(** Told by the database when its open-transaction count leaves/returns to
    zero. Closing the last transaction forgets the hot set: live snapshot,
    indexes and committed visibility agree again. *)
let note_tx_open t = t.tx_open <- true

let note_tx_closed t =
  t.tx_open <- false;
  Hashtbl.reset t.hot

let hot_rids t = Hashtbl.fold (fun rid () acc -> rid :: acc) t.hot []

(** Whether the committed snapshot at [at] equals the live snapshot: no
    uncommitted writes anywhere and nothing committed after [at]. Index
    lookups under AS-OF use this to stay on the fast path (snapshot-pinned
    replica reads are almost always frozen in this sense). *)
let frozen_at t ~at = t.pending_writes = 0 && at >= t.last_stamp

(* ------------------------------------------------------------------ *)
(* Version chains.                                                     *)

let chain_add t (tv : tuple_version) =
  let rid = tv.tid.Tid.rid in
  t.slots.(rid) <- tv :: t.slots.(rid);
  t.n_versions <- t.n_versions + 1

let chain_remove t (tv : tuple_version) =
  let rid = tv.tid.Tid.rid in
  let chain = chain_at t rid in
  let rest = List.filter (fun x -> not (x == tv)) chain in
  if List.compare_lengths rest chain <> 0 then begin
    t.n_versions <- t.n_versions - 1;
    t.slots.(rid) <- rest
  end

(* ------------------------------------------------------------------ *)
(* Hash index maintenance.                                             *)

let index_add idx value rid =
  if not (Value.is_null value) then
    match Hashtbl.find_opt idx.idx_entries value with
    | Some r -> r := rid :: !r
    | None -> Hashtbl.replace idx.idx_entries value (ref [ rid ])

let index_remove idx value rid =
  if not (Value.is_null value) then
    match Hashtbl.find_opt idx.idx_entries value with
    | Some r ->
      r := List.filter (fun x -> x <> rid) !r;
      (* drop emptied buckets: under update/delete churn they would
         otherwise accumulate forever and skew the distinct-count
         statistics derived from the bucket count *)
      if !r = [] then Hashtbl.remove idx.idx_entries value
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Ordered index maintenance.                                          *)

let entry_compare (v1, r1) (v2, r2) =
  match Value.compare_total v1 v2 with 0 -> Int.compare r1 r2 | c -> c

let oindex_add oidx value rid =
  if not (Value.is_null value) then begin
    oidx.oidx_pending <- (value, rid) :: oidx.oidx_pending;
    oidx.oidx_pending_n <- oidx.oidx_pending_n + 1
  end

let oindex_remove oidx value _rid =
  if not (Value.is_null value) then oidx.oidx_dead <- oidx.oidx_dead + 1

(* An ordered-index entry is current iff the rid is live and the live
   version still carries the entry's value in the indexed column. *)
let oentry_live t oidx (v, rid) =
  match find_live t ~rid with
  | Some tv -> Value.equal tv.values.(oidx.oidx_column) v
  | None -> false

let oindex_recount oidx =
  let distinct = ref 0 in
  for i = 0 to oidx.oidx_n - 1 do
    if i = 0 || Value.compare_total (fst oidx.oidx_keys.(i - 1)) (fst oidx.oidx_keys.(i)) <> 0
    then incr distinct
  done;
  oidx.oidx_distinct <- !distinct

(** Merge pending additions into the sorted array and, when stale entries
    dominate, sweep them out against the live snapshot. *)
let settle_oindex t oidx =
  if oidx.oidx_pending_n > 0 then begin
    let extra = Array.of_list oidx.oidx_pending in
    Array.sort entry_compare extra;
    let merged =
      Array.make (oidx.oidx_n + Array.length extra) (Value.Null, 0)
    in
    let k = ref 0 and i = ref 0 and j = ref 0 in
    let push e =
      if !k = 0 || entry_compare merged.(!k - 1) e <> 0 then begin
        merged.(!k) <- e;
        incr k
      end
    in
    while !i < oidx.oidx_n || !j < Array.length extra do
      if !j >= Array.length extra then begin
        push oidx.oidx_keys.(!i);
        incr i
      end
      else if
        !i < oidx.oidx_n && entry_compare oidx.oidx_keys.(!i) extra.(!j) <= 0
      then begin
        push oidx.oidx_keys.(!i);
        incr i
      end
      else begin
        push extra.(!j);
        incr j
      end
    done;
    oidx.oidx_keys <- merged;
    oidx.oidx_n <- !k;
    oidx.oidx_pending <- [];
    oidx.oidx_pending_n <- 0;
    oindex_recount oidx
  end;
  if oidx.oidx_dead > 64 && oidx.oidx_dead * 2 > oidx.oidx_n then begin
    let k = ref 0 in
    for i = 0 to oidx.oidx_n - 1 do
      if oentry_live t oidx oidx.oidx_keys.(i) then begin
        oidx.oidx_keys.(!k) <- oidx.oidx_keys.(i);
        incr k
      end
    done;
    oidx.oidx_n <- !k;
    oidx.oidx_dead <- 0;
    oindex_recount oidx
  end

type bound = Value.t * bool  (** bound value, inclusive? *)

(* First index in [0, n) whose entry is inside the lower bound. *)
let lower_bound oidx (b : bound option) =
  match b with
  | None -> 0
  | Some (v, incl) ->
    let lo = ref 0 and hi = ref oidx.oidx_n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = Value.compare_total (fst oidx.oidx_keys.(mid)) v in
      if c < 0 || (c = 0 && not incl) then lo := mid + 1 else hi := mid
    done;
    !lo

(* First index in [0, n) whose entry is past the upper bound. *)
let upper_bound oidx (b : bound option) =
  match b with
  | None -> oidx.oidx_n
  | Some (v, incl) ->
    let lo = ref 0 and hi = ref oidx.oidx_n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = Value.compare_total (fst oidx.oidx_keys.(mid)) v in
      if c < 0 || (c = 0 && incl) then lo := mid + 1 else hi := mid
    done;
    !lo

(* ------------------------------------------------------------------ *)
(* Index fan-out.                                                      *)

let indexes_add t (tv : tuple_version) =
  let rid = tv.tid.Tid.rid in
  List.iter (fun idx -> index_add idx tv.values.(idx.idx_column) rid) t.indexes;
  List.iter
    (fun oidx -> oindex_add oidx tv.values.(oidx.oidx_column) rid)
    t.ordered

let indexes_remove t (tv : tuple_version) =
  let rid = tv.tid.Tid.rid in
  List.iter
    (fun idx -> index_remove idx tv.values.(idx.idx_column) rid)
    t.indexes;
  List.iter
    (fun oidx -> oindex_remove oidx tv.values.(oidx.oidx_column) rid)
    t.ordered

(* ------------------------------------------------------------------ *)
(* Writes.                                                             *)

(** Insert a row; returns the new tuple version. [clock] is the logical
    timestamp recorded as the version. [tx] is the open transaction writing
    the row (0 = autocommit: the version is committed immediately). *)
let insert ?(tx = 0) t ~clock (row : Value.t array) =
  let values = Schema.coerce_row t.schema row in
  let rid = t.next_rid in
  check_rid t rid;
  grow t rid;
  t.next_rid <- rid + 1;
  let tv =
    { tid = Tid.make ~table:t.name ~rid ~version:clock;
      values;
      retired_at = None;
      txid = tx;
      committed_at = (if tx = 0 then clock else 0);
      retired_tx = 0;
      retired_commit = 0 }
  in
  chain_add t tv;
  t.n_live <- t.n_live + 1;
  indexes_add t tv;
  if tx <> 0 then t.pending_writes <- t.pending_writes + 1;
  stamp t clock;
  note_churn t rid;
  tv

(** Update the live version of [rid] to new values; returns
    [(old_version, new_version)]. *)
let update ?(tx = 0) t ~clock ~rid (row : Value.t array) =
  match find_live t ~rid with
  | None ->
    Errors.fail
      (Errors.Constraint_violation
         (Printf.sprintf "update of dead rid %d in table %s" rid t.name))
  | Some old_tv ->
    let values = Schema.coerce_row t.schema row in
    let tv =
      { tid = Tid.make ~table:t.name ~rid ~version:clock;
        values;
        retired_at = None;
        txid = tx;
        committed_at = (if tx = 0 then clock else 0);
        retired_tx = 0;
        retired_commit = 0 }
    in
    old_tv.retired_at <- Some clock;
    old_tv.retired_tx <- tx;
    old_tv.retired_commit <- (if tx = 0 then clock else 0);
    chain_add t tv;
    indexes_remove t old_tv;
    indexes_add t tv;
    if tx <> 0 then t.pending_writes <- t.pending_writes + 2;
    stamp t clock;
    note_churn t rid;
    (old_tv, tv)

(** Delete the live version of [rid]; returns the retired version. *)
let delete ?(tx = 0) t ~clock ~rid =
  match find_live t ~rid with
  | None ->
    Errors.fail
      (Errors.Constraint_violation
         (Printf.sprintf "delete of dead rid %d in table %s" rid t.name))
  | Some tv ->
    tv.retired_at <- Some clock;
    tv.retired_tx <- tx;
    tv.retired_commit <- (if tx = 0 then clock else 0);
    t.n_live <- t.n_live - 1;
    indexes_remove t tv;
    if tx <> 0 then t.pending_writes <- t.pending_writes + 1;
    stamp t clock;
    note_churn t rid;
    tv

(* ------------------------------------------------------------------ *)
(* Commit stamping.                                                    *)

(** Stamp a version created inside a committing transaction with the
    commit clock, making it visible to later snapshots. *)
let commit_insert_stamp t (tv : tuple_version) ~commit_clock =
  if tv.txid <> 0 then t.pending_writes <- t.pending_writes - 1;
  tv.txid <- 0;
  tv.committed_at <- commit_clock;
  stamp t commit_clock

(** Stamp a retirement performed inside a committing transaction. *)
let commit_retire_stamp t (tv : tuple_version) ~commit_clock =
  if tv.retired_tx <> 0 then t.pending_writes <- t.pending_writes - 1;
  tv.retired_tx <- 0;
  tv.retired_commit <- commit_clock;
  tv.retired_at <- Some commit_clock;
  stamp t commit_clock

(* ------------------------------------------------------------------ *)
(* Reads.                                                              *)

(** Live tuple versions in ascending-rid order, each passed through [f],
    as an array built in one pass over the slots; the executor's batch
    pipeline starts here. *)
let scan_map t (f : tuple_version -> 'a) : 'a array =
  let rid = ref 0 in
  let rec next_live () =
    incr rid;
    match t.slots.(!rid) with
    | ({ retired_at = None; _ } as tv) :: _ -> tv
    | _ -> next_live ()
  in
  Array.init t.n_live (fun _ -> f (next_live ()))

(** Live tuple versions as an array, in ascending-rid order. *)
let scan_array t : tuple_version array = scan_map t Fun.id

(** Live tuple versions in ascending-rid order. *)
let scan t : tuple_version list = Array.to_list (scan_array t)

(** Look up any historical version of [rid], walking that rid's chain. *)
let find_version_at t ~rid ~version =
  List.find_opt (fun tv -> tv.tid.Tid.version = version) (chain_at t rid)

(** Look up any historical version by tid. *)
let find_version t (tid : Tid.t) =
  if not (String.equal tid.Tid.table t.name) then None
  else find_version_at t ~rid:tid.Tid.rid ~version:tid.Tid.version

(** All versions ever written, ordered by (rid, version). *)
let all_versions t =
  let by_version a b = Int.compare a.tid.Tid.version b.tid.Tid.version in
  let acc = ref [] in
  for rid = t.next_rid - 1 downto 1 do
    acc := List.sort by_version t.slots.(rid) @ !acc
  done;
  !acc

(** Restore a tuple version verbatim (used when loading a package's CSV
    subset: rids and versions must survive the round-trip so that replayed
    traces align). A newer version of a live rid supersedes it. The table
    takes [row] over, widening values in place where the schema asks:
    callers pass freshly decoded rows, or rows of another table, which
    are never changed in place.
    @raise Errors.Db_error [Constraint_violation] for a rid outside
    [1 .. max_rid], a version outside [0 .. max_version] or a version no
    newer than the live one. *)
let restore_version t ~rid ~version (row : Value.t array) =
  check_rid t rid;
  check_version t ~rid version;
  let values = Schema.coerce_row_in_place t.schema row in
  let tv =
    { tid = Tid.make ~table:t.name ~rid ~version;
      values;
      retired_at = None;
      txid = 0;
      committed_at = version;
      retired_tx = 0;
      retired_commit = 0 }
  in
  grow t rid;
  (match find_live t ~rid with
  | Some old when old.tid.Tid.version >= version ->
    Errors.fail
      (Errors.Constraint_violation
         (Printf.sprintf "restore of stale version %d for rid %d" version rid))
  | Some old ->
    old.retired_at <- Some version;
    old.retired_commit <- version;
    indexes_remove t old
  | None -> t.n_live <- t.n_live + 1);
  indexes_add t tv;
  if rid >= t.next_rid then t.next_rid <- rid + 1;
  chain_add t tv;
  stamp t version;
  note_churn t rid;
  tv

(** Restore a batch of [(rid, version, values)] rows, in order — a
    package's CSV subset, a data file, a checkpoint or a replica base
    backup. Every rid and version is checked before anything changes, and
    the slots are sized once from the highest rid, so a sparse subset
    costs no repeated regrowth. Returns the newest version restored (0 for
    none): the caller advances its clock to it once. *)
let restore_versions t (rows : (int * int * Value.t array) list) : int =
  let highest =
    List.fold_left
      (fun acc (rid, version, _) ->
        check_rid t rid;
        check_version t ~rid version;
        max acc rid)
      0 rows
  in
  reserve t (highest + 1);
  List.fold_left
    (fun newest (rid, version, values) ->
      ignore (restore_version t ~rid ~version values);
      max newest version)
    0 rows

(** Restore the row-id allocator from a checkpoint. Live rows alone
    under-state it when the highest-rid row was deleted, so checkpoint
    images carry the allocator explicitly; never rewinds.
    @raise Errors.Db_error [Constraint_violation] past [max_rid + 1]. *)
let restore_next_rid t rid =
  if rid > t.next_rid then begin
    check_rid t (rid - 1);
    reserve t rid;
    t.next_rid <- rid
  end

(* ------------------------------------------------------------------ *)
(* Secondary indexes.                                                  *)

let index_exists t index_name =
  List.exists (fun i -> String.equal i.idx_name index_name) t.indexes
  || List.exists (fun o -> String.equal o.oidx_name index_name) t.ordered

(** Create an index over [column]; backfills from the live snapshot.
    [ordered] picks the sorted-array index (range-capable) over the
    default hash index. *)
let create_index ?(ordered = false) t ~index_name ~column =
  let column = String.lowercase_ascii column in
  if index_exists t index_name then
    Errors.fail
      (Errors.Constraint_violation
         (Printf.sprintf "index %S already exists" index_name));
  let position = Schema.resolve t.schema column in
  if ordered then begin
    let oidx =
      { oidx_name = index_name;
        oidx_column = position;
        oidx_keys = [||];
        oidx_n = 0;
        oidx_pending = [];
        oidx_pending_n = 0;
        oidx_dead = 0;
        oidx_distinct = 0 }
    in
    iter_live t (fun rid tv -> oindex_add oidx tv.values.(position) rid);
    settle_oindex t oidx;
    t.ordered <- oidx :: t.ordered
  end
  else begin
    (* sized once from the rows the backfill adds: a Hashtbl grows when
       it holds twice as many keys as buckets, so a table restored
       before its indexes are created backfills without a resize *)
    let idx =
      { idx_name = index_name;
        idx_column = position;
        idx_entries = Hashtbl.create (max 256 (t.n_live / 2)) }
    in
    iter_live t (fun rid tv -> index_add idx tv.values.(position) rid);
    t.indexes <- idx :: t.indexes
  end

let drop_index t ~index_name =
  if not (index_exists t index_name) then
    Errors.fail (Errors.Unknown_table ("index " ^ index_name));
  t.indexes <-
    List.filter (fun i -> not (String.equal i.idx_name index_name)) t.indexes;
  t.ordered <-
    List.filter (fun o -> not (String.equal o.oidx_name index_name)) t.ordered

(** A hash index over column position [column], if one exists. *)
let index_on t ~column =
  List.find_opt (fun i -> i.idx_column = column) t.indexes

(** An ordered index over column position [column], if one exists. *)
let ordered_index_on t ~column =
  List.find_opt (fun o -> o.oidx_column = column) t.ordered

let index_names t =
  List.map (fun i -> i.idx_name) t.indexes
  @ List.map (fun o -> o.oidx_name) t.ordered

(** (name, column name, ordered?) for every index — what a checkpoint or
    replica-bootstrap image must carry to recreate them. *)
let index_specs t =
  let column_name pos = t.schema.(pos).Schema.name in
  List.map (fun i -> (i.idx_name, column_name i.idx_column, false)) t.indexes
  @ List.map (fun o -> (o.oidx_name, column_name o.oidx_column, true)) t.ordered

(** Live tuple versions whose indexed column equals [value], in rid order
    (deterministic regardless of maintenance history). *)
let index_lookup t (idx : index) (value : Value.t) : tuple_version list =
  match Hashtbl.find_opt idx.idx_entries value with
  | None -> []
  | Some rids ->
    List.sort_uniq compare !rids |> List.filter_map (fun rid -> find_live t ~rid)

(** Candidate rids for an equality probe, ascending; callers re-check
    visibility and the key themselves (the MVCC fallback path). *)
let index_candidate_rids _t (idx : index) (value : Value.t) : int list =
  match Hashtbl.find_opt idx.idx_entries value with
  | None -> []
  | Some rids -> List.sort_uniq compare !rids

(** Live tuple versions whose indexed column lies within [lo, hi] (each
    bound optional, (value, inclusive)), in ascending-rid order. *)
let range_lookup t (oidx : ordered_index) ~(lo : bound option)
    ~(hi : bound option) : tuple_version list =
  settle_oindex t oidx;
  let first = lower_bound oidx lo and past = upper_bound oidx hi in
  let rids = ref [] in
  for i = past - 1 downto first do
    let (_, rid) as e = oidx.oidx_keys.(i) in
    if oentry_live t oidx e then rids := rid :: !rids
  done;
  List.sort_uniq compare !rids |> List.filter_map (fun rid -> find_live t ~rid)

(** Candidate rids for a range probe, ascending, without live validation
    (the MVCC fallback path re-checks values against visible versions). *)
let range_candidate_rids _t (oidx : ordered_index) ~(lo : bound option)
    ~(hi : bound option) : int list =
  let first = lower_bound oidx lo and past = upper_bound oidx hi in
  let rids = ref [] in
  for i = past - 1 downto first do
    rids := snd oidx.oidx_keys.(i) :: !rids
  done;
  List.sort_uniq compare !rids

(** Number of index entries within the bounds — the planner's range
    selectivity estimate (stale entries included; it is an estimate). *)
let range_estimate t (oidx : ordered_index) ~(lo : bound option)
    ~(hi : bound option) : int =
  settle_oindex t oidx;
  max 0 (upper_bound oidx hi - lower_bound oidx lo)

(* ------------------------------------------------------------------ *)
(* Planner statistics.                                                 *)

(** Pin the audit-time row count (package restore): cost estimates become
    [pinned + (live delta since the pin)], which replays identically. *)
let pin_row_stats t ~rows = t.pinned_rows <- Some (rows, t.n_live)

(** Row count as the cost model sees it: the real live count, or the
    pinned audit-time count advanced by the local delta. *)
let stable_row_count t =
  match t.pinned_rows with
  | None -> t.n_live
  | Some (rows, live_at_pin) -> rows + t.n_live - live_at_pin

type stats = {
  st_rows : int;
  st_distinct : (int * int) list;  (** column position -> distinct keys *)
}

(** Table statistics for the cost model: live row count plus per-indexed-
    column distinct-key counts (hash indexes: the bucket count — exact now
    that emptied buckets are dropped; ordered indexes: the merged distinct
    count). [verify] asserts the hash bucket-count invariant against a
    fresh scan (test hook). *)
let stats ?(verify = false) t : stats =
  let distinct_hash idx =
    if verify then begin
      let seen = Hashtbl.create 64 in
      iter_live t (fun _ tv ->
          let v = tv.values.(idx.idx_column) in
          if not (Value.is_null v) then Hashtbl.replace seen v ());
      assert (Hashtbl.length idx.idx_entries = Hashtbl.length seen)
    end;
    (idx.idx_column, Hashtbl.length idx.idx_entries)
  in
  let distinct_ordered oidx =
    settle_oindex t oidx;
    (oidx.oidx_column, oidx.oidx_distinct)
  in
  { st_rows = t.n_live;
    st_distinct =
      List.map distinct_hash t.indexes
      @ List.map distinct_ordered t.ordered }

(** Distinct live keys of [column], when some index covers it. *)
let distinct_on t ~column =
  match index_on t ~column with
  | Some idx -> Some (Hashtbl.length idx.idx_entries)
  | None -> (
    match ordered_index_on t ~column with
    | Some oidx ->
      settle_oindex t oidx;
      Some oidx.oidx_distinct
    | None -> None)

(* ------------------------------------------------------------------ *)
(* MVCC visibility and time travel.                                    *)

(** Whether [tx] (0 = an autocommit reader) sees [tv] at logical time
    [at]. A version is visible when it was created by the viewer's own
    open transaction or committed no later than [at], and not retired —
    where a retirement by the viewer's own transaction always hides the
    version, an uncommitted retirement by a foreign transaction never
    does, and a committed retirement hides it from [at] onwards. *)
let visible ?(tx = 0) ~at (tv : tuple_version) =
  (if tv.txid <> 0 then tv.txid = tx else tv.committed_at <= at)
  &&
  if tv.retired_tx <> 0 then tv.retired_tx <> tx
  else tv.retired_commit = 0 || tv.retired_commit > at

(** The version of [rid] that [tx] sees at [at], walking only that row's
    chain (at most one version of a row is visible per snapshot). *)
let visible_version ?(tx = 0) ?(at = max_int) t ~rid =
  List.find_opt (visible ~tx ~at) (chain_at t rid)

(** The snapshot [tx] sees at time [at] (default: the committed present),
    in ascending-rid order — the same order [scan] yields, so switching
    between the two paths can never reorder results. Walks every rid in
    [1 .. next_rid-1] (O(highest rid), each step walking one row's chain
    rather than the whole history), and collapses to the plain live scan
    when the snapshot provably equals it. *)
let scan_visible ?(tx = 0) ?(at = max_int) t : tuple_version list =
  if frozen_at t ~at then scan t
  else begin
    let acc = ref [] in
    for rid = t.next_rid - 1 downto 1 do
      match visible_version ~tx ~at t ~rid with
      | Some tv -> acc := tv :: !acc
      | None -> ()
    done;
    !acc
  end

(** The live snapshot as of logical time [at]: for each row, the version
    committed no later than [at] and not retired by a commit at or before
    [at]. [tx] additionally folds in that transaction's own uncommitted
    writes (its begin-snapshot plus its writes: MVCC read rule). Same
    ascending-rid order as [scan_visible]. *)
let scan_as_of ?(tx = 0) t ~at : tuple_version list = scan_visible ~tx ~at t

(* ------------------------------------------------------------------ *)
(* Transaction rollback support.                                       *)

(** Erase a version created inside an aborted transaction: it disappears
    from the live snapshot, the history, and the indexes — as if it never
    happened. *)
let unlink_version t (tv : tuple_version) =
  let rid = tv.tid.Tid.rid in
  (match find_live t ~rid with
  | Some live_tv when live_tv == tv ->
    t.n_live <- t.n_live - 1;
    indexes_remove t tv
  | _ -> ());
  if tv.txid <> 0 then t.pending_writes <- t.pending_writes - 1;
  chain_remove t tv;
  note_churn t rid

(** Resurrect a version retired inside an aborted transaction. *)
let relink_version t (tv : tuple_version) =
  let rid = tv.tid.Tid.rid in
  (match chain_at t rid with
  | head :: _ when head == tv -> ()
  | _ ->
    (* a newer version heads the chain: the caller must have unlinked
       the aborted newer version first *)
    Errors.fail
      (Errors.Constraint_violation
         (Printf.sprintf "relink of rid %d would clobber a newer version" rid)));
  if Option.is_some tv.retired_at then begin
    t.n_live <- t.n_live + 1;
    indexes_add t tv
  end;
  if tv.retired_tx <> 0 then t.pending_writes <- t.pending_writes - 1;
  tv.retired_at <- None;
  tv.retired_tx <- 0;
  tv.retired_commit <- 0;
  note_churn t rid

(* ------------------------------------------------------------------ *)
(* Integrity checking (test support).                                  *)

(** Check every index against a fresh scan of the live snapshot: each
    index must return exactly the live rows matching its key, and hash
    buckets must cover exactly the distinct live keys. Returns an error
    description instead of raising so tests can report it. *)
let check_index_integrity t : (unit, string) result =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let live_rows = scan t in
  let check_hash idx =
    let expected =
      List.filter
        (fun tv -> not (Value.is_null tv.values.(idx.idx_column)))
        live_rows
    in
    let distinct = Hashtbl.create 16 in
    List.iter
      (fun tv -> Hashtbl.replace distinct tv.values.(idx.idx_column) ())
      expected;
    if Hashtbl.length idx.idx_entries <> Hashtbl.length distinct then
      fail "index %s: %d buckets for %d distinct live keys" idx.idx_name
        (Hashtbl.length idx.idx_entries)
        (Hashtbl.length distinct)
    else
      let bad =
        List.find_opt
          (fun tv ->
            let found = index_lookup t idx tv.values.(idx.idx_column) in
            not (List.exists (fun x -> x == tv) found))
          expected
      in
      match bad with
      | Some tv ->
        fail "index %s: live rid %d missing from its bucket" idx.idx_name
          tv.tid.Tid.rid
      | None -> Ok ()
  in
  let check_ordered oidx =
    let expected =
      List.filter
        (fun tv -> not (Value.is_null tv.values.(oidx.oidx_column)))
        live_rows
      |> List.map (fun tv -> tv.tid.Tid.rid)
      |> List.sort_uniq compare
    in
    let got =
      range_lookup t oidx ~lo:None ~hi:None
      |> List.map (fun tv -> tv.tid.Tid.rid)
    in
    if got <> expected then
      fail "ordered index %s: range scan returned %d rids, live has %d"
        oidx.oidx_name (List.length got) (List.length expected)
    else Ok ()
  in
  let rec all = function
    | [] -> Ok ()
    | f :: rest -> ( match f () with Ok () -> all rest | Error e -> Error e)
  in
  all
    (List.map (fun idx () -> check_hash idx) t.indexes
    @ List.map (fun oidx () -> check_ordered oidx) t.ordered)

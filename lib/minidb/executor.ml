(** Plan evaluation with provenance-annotation propagation.

    Every row flowing through the executor carries a provenance polynomial
    (see {!Annotation}): base tuples start as variables, joins multiply,
    aggregation groups and duplicate elimination add. The Lineage of a
    result row — the tuple versions the paper's slicing needs — is the
    variable set of its annotation. *)

type arow = { values : Value.t array; ann : Annotation.t }

type result = { schema : Schema.t; rows : arow list }

(* Hashtable keyed by a list of values, used by group-by and distinct. *)
module Row_key = struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash k = List.fold_left Value.hash_fold 17 k
end

module Row_tbl = Hashtbl.Make (Row_key)

(* Hashtable keyed by one value: a hash join's build side. The planner
   pairs join keys of one column type, where [Value.equal] is SQL [=] on
   non-NULL values. *)
module Value_tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Hashtbl.hash
end)

(* ------------------------------------------------------------------ *)
(* Aggregate computation.                                              *)

type agg_state = {
  mutable count : int;  (** non-null inputs seen *)
  mutable count_all : int;  (** all rows seen, for COUNT star *)
  mutable sum_int : int;
  mutable sum_float : float;
  mutable saw_float : bool;
  mutable min_v : Value.t;
  mutable max_v : Value.t;
}

let agg_init () =
  { count = 0;
    count_all = 0;
    sum_int = 0;
    sum_float = 0.0;
    saw_float = false;
    min_v = Value.Null;
    max_v = Value.Null }

let agg_feed st (v : Value.t) =
  st.count_all <- st.count_all + 1;
  match v with
  | Value.Null -> ()
  | v ->
    st.count <- st.count + 1;
    (match v with
    | Value.Int i ->
      st.sum_int <- st.sum_int + i;
      st.sum_float <- st.sum_float +. float_of_int i
    | Value.Float f ->
      st.saw_float <- true;
      st.sum_float <- st.sum_float +. f
    | _ -> ());
    (match Value.compare_total v st.min_v with
    | _ when Value.is_null st.min_v -> st.min_v <- v
    | c when c < 0 -> st.min_v <- v
    | _ -> ());
    (match Value.compare_total v st.max_v with
    | _ when Value.is_null st.max_v -> st.max_v <- v
    | c when c > 0 -> st.max_v <- v
    | _ -> ())

let agg_finish (fn : Sql_ast.agg_fn) st : Value.t =
  match fn with
  | Sql_ast.Count_star -> Value.Int st.count_all
  | Sql_ast.Count -> Value.Int st.count
  | Sql_ast.Sum ->
    if st.count = 0 then Value.Null
    else if st.saw_float then Value.Float st.sum_float
    else Value.Int st.sum_int
  | Sql_ast.Avg ->
    if st.count = 0 then Value.Null
    else Value.Float (st.sum_float /. float_of_int st.count)
  | Sql_ast.Min -> st.min_v
  | Sql_ast.Max -> st.max_v

(* ------------------------------------------------------------------ *)
(* Plan evaluation.

   Operators pass whole batches ([arow array]) between each other instead
   of consing per-row lists: scans materialize straight out of the table's
   settled rid order, filters and joins append into a growable buffer, and
   only the final [run] converts back to a list for the result record. *)

(* Growable row buffer for the batch operators. *)
module Vec = struct
  type 'a t = { mutable buf : 'a array; mutable len : int }

  let create () = { buf = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.buf then begin
      let grown = Array.make (max 16 (2 * v.len)) x in
      Array.blit v.buf 0 grown 0 v.len;
      v.buf <- grown
    end;
    v.buf.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.buf 0 v.len
end

let arow_of_tv (tv : Table.tuple_version) =
  { values = tv.Table.values; ann = Annotation.var tv.Table.tid }

(* [db.rows_scanned] counts the rows an access path examined, not the
   rows it returned: a full scan examines every rid below the allocator,
   an index probe each candidate rid it resolves. Divided by
   [db.tuples_emitted] it reads as the work a result cost. [n] is
   thunked so that nothing is counted while observability is off. *)
let count_scanned n =
  if Ldv_obs.enabled () then Ldv_obs.counter ~by:(n ()) "db.rows_scanned"

let count_full_scan table =
  count_scanned (fun () -> table.Table.next_rid - 1)

(* A full AS-OF scan, filtered: the fallback of an index probe at a
   snapshot the retirement log no longer reaches back to. *)
let scan_filter table ~at pred f =
  count_full_scan table;
  let out = Vec.create () in
  List.iter
    (fun tv -> if pred tv then Vec.push out (f tv))
    (Table.scan_as_of ~tx:!Tx_context.viewer table ~at);
  Vec.to_array out

let in_bounds ~lo ~hi (v : Value.t) =
  (not (Value.is_null v))
  && (match lo with
     | None -> true
     | Some (b, incl) -> (
       match Value.compare_total v b with
       | c -> if incl then c >= 0 else c > 0
       | exception _ -> false))
  &&
  match hi with
  | None -> true
  | Some (b, incl) -> (
    match Value.compare_total v b with
    | c -> if incl then c <= 0 else c < 0
    | exception _ -> false)

(** The access-path leaf shared by SELECT and UPDATE/DELETE: the tuple
    versions a [Scan], [Index_scan] or [Range_scan] node reads under the
    ambient MVCC context ({!Tx_context}), in ascending-rid order, each
    passed through [f] in the same pass. With [pred], a SELECT's filter
    over the access path or an UPDATE/DELETE's WHERE, only the versions
    whose values satisfy it reach [f]: a version it rejects costs no row.
    @raise Invalid_argument on any other node. *)
let scan_leaf ?pred (n : Planner.node) (f : Table.tuple_version -> 'a) :
    'a array =
  let holds (tv : Table.tuple_version) =
    match pred with
    | None -> true
    | Some p -> Eval_expr.eval_pred tv.Table.values p
  in
  (* Map the whole list before building the array: filling the array row
     by row instead made ldvbench's cluster-mix reads and writes 25%
     slower on a 2-core x86-64 VM. *)
  let map_list tvs = Array.of_list (List.map f tvs) in
  let map_holding tvs =
    map_list (if Option.is_none pred then tvs else List.filter holds tvs)
  in
  (* An index probe: its candidate rids (thunked, since the fallback
     needs none), resolved under the ambient snapshot in ascending-rid
     order and re-checked with [keep]. With no transaction open, or AS
     OF a snapshot the table is frozen at, the live index is exactly the
     snapshot, so each candidate resolves to its live version. Otherwise
     a rid's version at the snapshot may differ from its live one only if
     an open transaction wrote it ([hot]) or, AS OF a past snapshot, a
     commit retired a version of it since ([Table.retired_since]): the
     probe walks the version chains of those rids and the candidates.
     When the retirement log no longer reaches back to the snapshot it
     filters a full AS-OF scan instead. *)
  let probe table ~as_of candidates ~keep =
    let resolve find rids =
      count_scanned (fun () -> List.length rids);
      map_list
        (List.filter_map
           (fun rid ->
             match find rid with
             | Some tv when keep tv && holds tv -> Some tv
             | _ -> None)
           rids)
    in
    let visible ~at rids =
      resolve
        (fun rid -> Table.visible_version ~tx:!Tx_context.viewer ~at table ~rid)
        (List.sort_uniq compare (rids @ Table.hot_rids table))
    in
    match as_of with
    | None when !Tx_context.active ->
      visible ~at:!Tx_context.snapshot (candidates ())
    | Some at when not (Table.frozen_at table ~at) -> (
      match Table.retired_since table ~at with
      | Some retired -> visible ~at (candidates () @ retired)
      | None -> scan_filter table ~at (fun tv -> keep tv && holds tv) f)
    | _ -> resolve (fun rid -> Table.find_live table ~rid) (candidates ())
  in
  match n.op with
  | Planner.Scan { table; as_of = None; _ } -> (
    count_full_scan table;
    (* while any transaction is open on this database the live table may
       hold uncommitted foreign versions (and lack rows deleted by open
       transactions), so take the history-walking MVCC path *)
    if !Tx_context.active then
      map_holding
        (Table.scan_visible ~tx:!Tx_context.viewer ~at:!Tx_context.snapshot
           table)
    else
      match pred with
      | None -> Table.scan_map table f
      | Some _ ->
        let out = Vec.create () in
        Table.iter_live table (fun _ tv -> if holds tv then Vec.push out (f tv));
        Vec.to_array out)
  | Planner.Scan { table; as_of = Some at; _ } ->
    count_full_scan table;
    map_holding (Table.scan_as_of ~tx:!Tx_context.viewer table ~at)
  | Planner.Index_scan { table; index; keys = Planner.Key key; as_of; _ } ->
    let value = Eval_expr.eval [||] key in
    if Value.is_null value then [||]
    else
      probe table ~as_of
        (fun () -> Table.index_candidate_rids table index value)
        ~keep:(fun tv ->
          Value.equal tv.Table.values.(index.Table.idx_column) value)
  | Planner.Index_scan
      { table; index; keys = Planner.Int_range (lo, hi); as_of; _ } ->
    probe table ~as_of
      (fun () -> Table.index_range_candidate_rids table index ~lo ~hi)
      ~keep:(fun tv ->
        match tv.Table.values.(index.Table.idx_column) with
        | Value.Int k -> lo <= k && k <= hi
        | _ -> false)
  | Planner.Range_scan { table; oindex; lo; hi; as_of; _ } ->
    probe table ~as_of
      (fun () -> Table.range_candidate_rids table oindex ~lo ~hi)
      ~keep:(fun tv ->
        in_bounds ~lo ~hi tv.Table.values.(oindex.Table.oidx_column))
  | _ -> invalid_arg "Executor.scan_leaf: not an access path"

(* Whether a row has a NULL among [keys]: SQL equality never joins it. *)
let rec null_key values = function
  | [] -> false
  | k :: keys -> Value.is_null (Eval_expr.eval values k) || null_key values keys

(* A hash join's build side: the rows with no NULL key, bucketed by the
   value of their first key, each bucket in input order (it is filled
   back to front). *)
let build_side (rows : arow array) keys =
  let first = List.hd keys in
  let table = Value_tbl.create (Array.length rows + 1) in
  for i = Array.length rows - 1 downto 0 do
    let r = rows.(i) in
    if not (null_key r.values keys) then begin
      let k = Eval_expr.eval r.values first in
      let bucket =
        match Value_tbl.find table k with b -> b | exception Not_found -> []
      in
      Value_tbl.replace table k (r :: bucket)
    end
  done;
  table

(* The build rows that join probe row [p], in input order: the bucket of
   its first key's value, narrowed by the further keys of a multi-column
   join. A one-column probe allocates nothing. *)
let lookup table ~build_keys ~probe_keys (p : arow) =
  if null_key p.values probe_keys then []
  else
    match Value_tbl.find table (Eval_expr.eval p.values (List.hd probe_keys)) with
    | exception Not_found -> []
    | bucket -> (
      match (List.tl build_keys, List.tl probe_keys) with
      | [], _ | _, [] -> bucket
      | build_rest, probe_rest ->
        List.filter
          (fun (b : arow) ->
            List.for_all2
              (fun bk pk ->
                Value.equal (Eval_expr.eval b.values bk)
                  (Eval_expr.eval p.values pk))
              build_rest probe_rest)
          bucket)

let join_row l r =
  { values = Array.append l.values r.values; ann = Annotation.mul l.ann r.ann }

let rec run_node (n : Planner.node) : arow array =
  match n.op with
  | Planner.Scan _ | Planner.Index_scan _ | Planner.Range_scan _ ->
    scan_leaf n arow_of_tv
  | Planner.Filter
      ( pred,
        _,
        ({ op = Planner.Scan _ | Planner.Index_scan _ | Planner.Range_scan _; _ }
         as leaf) ) ->
    scan_leaf ~pred leaf arow_of_tv
  | Planner.Filter (pred, _, input) ->
    let out = Vec.create () in
    Array.iter
      (fun r -> if Eval_expr.eval_pred r.values pred then Vec.push out r)
      (run_node input);
    Vec.to_array out
  | Planner.Project (items, input) ->
    Array.map
      (fun r ->
        { values =
            Array.of_list
              (List.map (fun (e, _) -> Eval_expr.eval r.values e) items);
          ann = r.ann })
      (run_node input)
  | Planner.Hash_join { left; right; left_keys; right_keys; outer; build_left }
    ->
    (* Hash the right input and probe with the left, or, when the planner
       chose to build on the (smaller) left input of an inner join, the
       other way round: the output is then probe-major, but each row is
       still left|right. *)
    assert (not (outer && build_left));
    let build, build_keys, probe, probe_keys =
      if build_left then (left, left_keys, right, right_keys)
      else (right, right_keys, left, left_keys)
    in
    let table = build_side (run_node build) build_keys in
    let null_pad = Array.make (Schema.arity right.Planner.schema) Value.Null in
    let out = Vec.create () in
    let rec emit p = function
      | [] -> ()
      | b :: bs ->
        Vec.push out (if build_left then join_row b p else join_row p b);
        emit p bs
    in
    Array.iter
      (fun p ->
        match lookup table ~build_keys ~probe_keys p with
        | [] ->
          if outer then
            Vec.push out { values = Array.append p.values null_pad; ann = p.ann }
        | matches -> emit p matches)
      (run_node probe);
    Vec.to_array out
  | Planner.Nested_loop { left; right; pred; outer } ->
    let rrows = run_node right in
    let right_width = Schema.arity right.Planner.schema in
    let null_pad = Array.make right_width Value.Null in
    let out = Vec.create () in
    Array.iter
      (fun l ->
        let matched = ref false in
        Array.iter
          (fun r ->
            let values = Array.append l.values r.values in
            let keep =
              match pred with
              | None -> true
              | Some p -> Eval_expr.eval_pred values p
            in
            if keep then begin
              matched := true;
              Vec.push out { values; ann = Annotation.mul l.ann r.ann }
            end)
          rrows;
        if outer && not !matched then
          Vec.push out { values = Array.append l.values null_pad; ann = l.ann })
      (run_node left);
    Vec.to_array out
  | Planner.Union (a, b) -> Array.append (run_node a) (run_node b)
  | Planner.Annotate (extra, input) ->
    Array.map
      (fun r -> { r with ann = Annotation.mul extra r.ann })
      (run_node input)
  | Planner.Aggregate { input; group; aggs } ->
    let rows = run_node input in
    let groups = Row_tbl.create 64 in
    let order = ref [] in
    Array.iter
      (fun r ->
        let key = List.map (fun (g, _) -> Eval_expr.eval r.values g) group in
        let states, ann_ref =
          match Row_tbl.find_opt groups key with
          | Some entry -> entry
          | None ->
            let entry = (List.map (fun _ -> agg_init ()) aggs, ref []) in
            Row_tbl.replace groups key entry;
            order := key :: !order;
            entry
        in
        ann_ref := r.ann :: !ann_ref;
        List.iter2
          (fun st (fn, arg) ->
            match (fn, arg) with
            | Sql_ast.Count_star, _ -> agg_feed st (Value.Bool true)
            | _, Some e -> agg_feed st (Eval_expr.eval r.values e)
            | _, None -> agg_feed st (Value.Bool true))
          states aggs)
      rows;
    let finish key =
      let states, ann_ref = Row_tbl.find groups key in
      { values =
          Array.of_list (key @ List.map2 (fun st (fn, _) -> agg_finish fn st) states aggs);
        ann = Annotation.sum !ann_ref }
    in
    if Row_tbl.length groups = 0 && group = [] then
      (* aggregate over an empty input with no GROUP BY: one row *)
      [| { values =
             Array.of_list
               (List.map (fun (fn, _) -> agg_finish fn (agg_init ())) aggs);
           ann = Annotation.one } |]
    else Array.of_list (List.rev_map finish !order)
  | Planner.Sort (keys, input) ->
    let rows = run_node input in
    let cmp a b =
      let rec go = function
        | [] -> 0
        | (k, dir) :: rest -> (
          let va = Eval_expr.eval a.values k and vb = Eval_expr.eval b.values k in
          match Value.compare_total va vb with
          | 0 -> go rest
          | c -> ( match dir with Sql_ast.Asc -> c | Sql_ast.Desc -> -c))
      in
      go keys
    in
    (* every operator returns a fresh batch, so sorting in place is safe *)
    Array.stable_sort cmp rows;
    rows
  | Planner.Limit (l, input) ->
    let rows = run_node input in
    if Array.length rows <= l then rows else Array.sub rows 0 l
  | Planner.Distinct input ->
    let rows = run_node input in
    let seen = Row_tbl.create 64 in
    let order = ref [] in
    Array.iter
      (fun r ->
        let key = Array.to_list r.values in
        match Row_tbl.find_opt seen key with
        | Some ann_ref -> ann_ref := r.ann :: !ann_ref
        | None ->
          let ann_ref = ref [ r.ann ] in
          Row_tbl.replace seen key ann_ref;
          order := (key, ann_ref) :: !order)
      rows;
    Array.of_list
      (List.rev_map
         (fun (key, ann_ref) ->
           { values = Array.of_list key; ann = Annotation.sum !ann_ref })
         !order)

let run (n : Planner.node) : result =
  Ldv_obs.Ledger.time Ldv_obs.Ledger.Exec @@ fun () ->
  let rows = run_node n in
  if Ldv_obs.enabled () then
    Ldv_obs.counter ~by:(Array.length rows) "db.tuples_emitted";
  { schema = n.schema; rows = Array.to_list rows }

(** Union of the lineage of every result row: exactly the tuple versions the
    query read that mattered. *)
let result_lineage (r : result) : Lineage.t =
  Lineage.union_all (List.map (fun row -> Annotation.lineage row.ann) r.rows)

(** Plain values of the result, dropping annotations. *)
let result_values (r : result) : Value.t array list =
  List.map (fun row -> row.values) r.rows

(** Byte footprint of a result's values, for recorded-result size
    accounting. *)
let result_bytes (r : result) : int =
  List.fold_left
    (fun acc row ->
      acc + Array.fold_left (fun a v -> a + Value.byte_size v) 2 row.values)
    0 r.rows


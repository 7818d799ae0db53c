(** Plan evaluation with provenance-annotation propagation.

    Every row flowing through the executor carries a provenance polynomial
    (see {!Annotation}): base tuples start as variables, joins multiply,
    aggregation groups and duplicate elimination add. The Lineage of a
    result row — the tuple versions the paper's slicing needs — is the
    variable set of its annotation. *)

type arow = { values : Value.t array; ann : Annotation.t }

type result = { schema : Schema.t; rows : arow list }

(* Hashtable keyed by a list of values, used by hash join, group-by and
   distinct. *)
module Row_key = struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash k = List.fold_left Value.hash_fold 17 k
end

module Row_tbl = Hashtbl.Make (Row_key)

let eval_keys row keys = List.map (Eval_expr.eval row) keys

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

let count_scanned n =
  if Ldv_obs.enabled () then Ldv_obs.counter ~by:n "db.rows_scanned"

(* MVCC fallback for index access paths: index entries cover only the live
   snapshot, which is wrong on both sides of an open transaction
   (uncommitted entries present, tx-deleted rows absent). Rather than
   falling all the way back to a full MVCC scan, walk the version chains
   of (index candidates ∪ hot rids) — the only rids whose visibility can
   diverge from the live snapshot — re-checking the key predicate against
   the visible version. *)
let mvcc_candidates table candidates ~recheck f =
  let tx = !Tx_context.viewer and at = !Tx_context.snapshot in
  let rids = List.sort_uniq compare (candidates @ Table.hot_rids table) in
  let out = Vec.create () in
  List.iter
    (fun rid ->
      match Table.visible_version ~tx ~at table ~rid with
      | Some tv when recheck tv -> Vec.push out (f tv)
      | _ -> ())
    rids;
  Vec.to_array out

(* Historical index probes on a non-frozen table cannot use the live
   index at all (old versions are not in it): filter a full AS-OF scan. *)
let scan_filter table ~at pred f =
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
    passed through [f] in the same pass.
    @raise Invalid_argument on any other node. *)
let scan_leaf (n : Planner.node) (f : Table.tuple_version -> 'a) : 'a array =
  (* Map the whole list before building the array: filling the array row
     by row instead made ldvbench's cluster-mix reads and writes 25%
     slower on a 2-core x86-64 VM. *)
  let map_list tvs = Array.of_list (List.map f tvs) in
  match n.op with
  | Planner.Scan { table; as_of = None; _ } ->
    (* while any transaction is open on this database the live table may
       hold uncommitted foreign versions (and lack rows deleted by open
       transactions), so take the history-walking MVCC path *)
    if !Tx_context.active then
      map_list
        (Table.scan_visible ~tx:!Tx_context.viewer ~at:!Tx_context.snapshot
           table)
    else Table.scan_map table f
  | Planner.Scan { table; as_of = Some at; _ } ->
    map_list (Table.scan_as_of ~tx:!Tx_context.viewer table ~at)
  | Planner.Index_scan { table; index; key; as_of; _ } -> (
    let value = Eval_expr.eval [||] key in
    let keep (tv : Table.tuple_version) =
      tv.Table.values.(index.Table.idx_column) = value
    in
    if Value.is_null value then [||]
    else
      match as_of with
      | None when !Tx_context.active ->
        mvcc_candidates table
          (Table.index_candidate_rids table index value)
          ~recheck:keep f
      | Some at when not (Table.frozen_at table ~at) ->
        scan_filter table ~at keep f
      | _ ->
        (* no transaction open, or nothing pending and no commit newer
           than [at]: the live index is exactly the snapshot *)
        map_list (Table.index_lookup table index value))
  | Planner.Range_scan { table; oindex; lo; hi; as_of; _ } -> (
    let keep (tv : Table.tuple_version) =
      in_bounds ~lo ~hi tv.Table.values.(oindex.Table.oidx_column)
    in
    match as_of with
    | None when !Tx_context.active ->
      mvcc_candidates table
        (Table.range_candidate_rids table oindex ~lo ~hi)
        ~recheck:keep f
    | Some at when not (Table.frozen_at table ~at) ->
      scan_filter table ~at keep f
    | _ -> map_list (Table.range_lookup table oindex ~lo ~hi))
  | _ -> invalid_arg "Executor.scan_leaf: not an access path"

let rec run_node (n : Planner.node) : arow array =
  match n.op with
  | Planner.Scan _ | Planner.Index_scan _ | Planner.Range_scan _ ->
    let rows = scan_leaf n arow_of_tv in
    count_scanned (Array.length rows);
    rows
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
    when build_left ->
    (* inner join, hashing the (smaller) left input and probing with the
       right: output is probe-major, but each row is still left|right *)
    let lrows = run_node left in
    let index = Row_tbl.create (Array.length lrows + 1) in
    Array.iter
      (fun l ->
        let key = eval_keys l.values left_keys in
        (* SQL equality: NULL join keys never match *)
        if not (List.exists Value.is_null key) then Row_tbl.add index key l)
      lrows;
    assert (not outer);
    let out = Vec.create () in
    Array.iter
      (fun r ->
        let key = eval_keys r.values right_keys in
        if not (List.exists Value.is_null key) then
          List.iter
            (fun l ->
              Vec.push out
                { values = Array.append l.values r.values;
                  ann = Annotation.mul l.ann r.ann })
            (List.rev (Row_tbl.find_all index key)))
      (run_node right);
    Vec.to_array out
  | Planner.Hash_join { left; right; left_keys; right_keys; outer; _ } ->
    let rrows = run_node right in
    let right_width = Schema.arity right.Planner.schema in
    let index = Row_tbl.create (Array.length rrows + 1) in
    Array.iter
      (fun r ->
        let key = eval_keys r.values right_keys in
        (* SQL equality: NULL join keys never match *)
        if not (List.exists Value.is_null key) then Row_tbl.add index key r)
      rrows;
    let null_pad = Array.make right_width Value.Null in
    let out = Vec.create () in
    Array.iter
      (fun l ->
        let key = eval_keys l.values left_keys in
        let matches =
          if List.exists Value.is_null key then []
          else List.rev (Row_tbl.find_all index key)
        in
        match matches with
        | [] ->
          if outer then
            Vec.push out
              { values = Array.append l.values null_pad; ann = l.ann }
        | matches ->
          List.iter
            (fun r ->
              Vec.push out
                { values = Array.append l.values r.values;
                  ann = Annotation.mul l.ann r.ann })
            matches)
      (run_node left);
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


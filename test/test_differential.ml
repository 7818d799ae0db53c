(* Differential testing of the query pipeline.

   A deliberately naive reference interpreter — cartesian products, direct
   per-group aggregate computation, no planner, no hash joins, no indexes,
   no aggregate-slot rewriting — is run against the real
   parse/plan/execute pipeline on randomized queries over randomized
   data. Any disagreement is a bug in one of the two; the reference is
   simple enough to trust by inspection. *)

open Minidb
open Sql_ast

(* --------------------------------------------------------------- *)
(* Reference interpreter.                                           *)

let naive_rows_of_table (catalog : Catalog.t) (table, alias) :
    Schema.t * Value.t array list =
  let tbl = Catalog.find catalog table in
  let binding = Option.value alias ~default:table in
  ( Schema.with_qualifier binding (Table.schema tbl),
    List.map (fun (tv : Table.tuple_version) -> tv.Table.values) (Table.scan tbl)
  )

let cartesian (schemas_rows : (Schema.t * Value.t array list) list) :
    Schema.t * Value.t array list =
  List.fold_left
    (fun (schema, rows) (s2, rows2) ->
      ( Schema.append schema s2,
        List.concat_map
          (fun r -> List.map (fun r2 -> Array.append r r2) rows2)
          rows ))
    (Schema.of_list [], [ [||] ])
    schemas_rows

(* Direct aggregate evaluation: walk the group's rows for each Agg node. *)
let rec naive_eval_agg_expr (schema : Schema.t) (group_rows : Value.t array list)
    (e : expr) : Value.t =
  match e with
  | Agg (fn, arg) -> (
    let values =
      match (fn, arg) with
      | Count_star, _ -> List.map (fun _ -> Value.Bool true) group_rows
      | _, Some a ->
        List.map
          (fun row -> Eval_expr.eval row (Eval_expr.bind schema a))
          group_rows
      | _, None -> []
    in
    let non_null = List.filter (fun v -> not (Value.is_null v)) values in
    let as_floats =
      List.filter_map
        (function
          | Value.Int i -> Some (float_of_int i)
          | Value.Float f -> Some f
          | _ -> None)
        non_null
    in
    match fn with
    | Count_star -> Value.Int (List.length values)
    | Count -> Value.Int (List.length non_null)
    | Sum ->
      if non_null = [] then Value.Null
      else if List.exists (function Value.Float _ -> true | _ -> false) non_null
      then Value.Float (List.fold_left ( +. ) 0.0 as_floats)
      else
        Value.Int
          (List.fold_left
             (fun acc -> function Value.Int i -> acc + i | _ -> acc)
             0 non_null)
    | Avg ->
      if as_floats = [] then Value.Null
      else
        Value.Float
          (List.fold_left ( +. ) 0.0 as_floats
          /. float_of_int (List.length as_floats))
    | Min ->
      List.fold_left
        (fun acc v ->
          if Value.is_null acc then v
          else if Value.compare_total v acc < 0 then v
          else acc)
        Value.Null non_null
    | Max ->
      List.fold_left
        (fun acc v ->
          if Value.is_null acc then v
          else if Value.compare_total v acc > 0 then v
          else acc)
        Value.Null non_null)
  | Arith (op, a, b) ->
    let va = naive_eval_agg_expr schema group_rows a in
    let vb = naive_eval_agg_expr schema group_rows b in
    (match op with
    | Add -> Value.add va vb
    | Sub -> Value.sub va vb
    | Mul -> Value.mul va vb
    | Div -> Value.div va vb)
  | Neg a -> Value.neg (naive_eval_agg_expr schema group_rows a)
  | e ->
    (* no aggregate inside: evaluate against the first row of the group
       (a grouping column, constant under the group) *)
    let row = match group_rows with r :: _ -> r | [] -> [||] in
    Eval_expr.eval row (Eval_expr.bind schema e)

let naive_select (catalog : Catalog.t) (s : select) : Value.t array list =
  let from =
    List.map
      (function
        | From_table { table; alias; as_of = None } -> (table, alias)
        | _ -> failwith "naive_select: plain tables only")
      s.from
  in
  let schema, rows = cartesian (List.map (naive_rows_of_table catalog) from) in
  let rows =
    match s.where with
    | None -> rows
    | Some w ->
      let bound = Eval_expr.bind schema w in
      List.filter (fun row -> Eval_expr.eval_pred row bound) rows
  in
  let items =
    List.concat_map
      (function
        | Star ->
          Array.to_list schema
          |> List.map (fun (c : Schema.column) -> Col (c.qualifier, c.name))
        | Item (e, _) -> [ e ])
      s.items
  in
  let needs_agg = s.group_by <> [] || List.exists contains_agg items in
  let projected =
    if not needs_agg then
      List.map
        (fun row ->
          Array.of_list
            (List.map (fun e -> Eval_expr.eval row (Eval_expr.bind schema e)) items))
        rows
    else begin
      let key_of row =
        List.map
          (fun (q, n) -> row.(Schema.resolve schema ?qualifier:q n))
          s.group_by
      in
      let groups : (Value.t list * Value.t array list ref) list ref = ref [] in
      List.iter
        (fun row ->
          let key = key_of row in
          match
            List.find_opt (fun (k, _) -> List.equal Value.equal k key) !groups
          with
          | Some (_, r) -> r := row :: !r
          | None -> groups := !groups @ [ (key, ref [ row ]) ])
        rows;
      let group_list =
        if !groups = [] && s.group_by = [] then [ ([], ref []) ] else !groups
      in
      List.map
        (fun (_, group_rows) ->
          Array.of_list
            (List.map
               (fun e -> naive_eval_agg_expr schema (List.rev !group_rows) e)
               items))
        group_list
    end
  in
  let projected =
    if s.distinct then
      List.fold_left
        (fun acc row ->
          if List.exists (fun r -> Array.for_all2 Value.equal r row) acc then acc
          else acc @ [ row ])
        [] projected
    else projected
  in
  let limited =
    match s.limit with
    | None -> projected
    | Some n -> List.filteri (fun i _ -> i < n) projected
  in
  limited

(* --------------------------------------------------------------- *)
(* Random data and queries.                                         *)

(* A FLOAT literal: a whole number (equal to an INT) or a half. *)
let float_lit rng =
  Printf.sprintf "%d.%d" (Tpch.Prng.int rng 6) (if Tpch.Prng.bool rng then 0 else 5)

let random_db rng =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t1 (a INT, b INT)");
  ignore (Database.exec db "CREATE TABLE t2 (k INT, v INT, w FLOAT)");
  if Tpch.Prng.bool rng then
    ignore (Database.exec db "CREATE INDEX t1_a ON t1 (a)");
  (match Tpch.Prng.int rng 3 with
  | 0 -> ignore (Database.exec db "CREATE INDEX t2_w ON t2 (w)")
  | 1 -> ignore (Database.exec db "CREATE ORDERED INDEX t2_w ON t2 (w)")
  | _ -> ());
  let null_or rng lit = if Tpch.Prng.int rng 8 = 0 then "NULL" else lit rng in
  let lit rng = null_or rng (fun rng -> string_of_int (Tpch.Prng.int rng 6)) in
  for _ = 1 to 2 + Tpch.Prng.int rng 8 do
    ignore
      (Database.exec db
         (Printf.sprintf "INSERT INTO t1 VALUES (%s, %s)" (lit rng) (lit rng)))
  done;
  for _ = 1 to 1 + Tpch.Prng.int rng 5 do
    ignore
      (Database.exec db
         (Printf.sprintf "INSERT INTO t2 VALUES (%s, %s, %s)" (lit rng) (lit rng)
            (null_or rng float_lit)))
  done;
  db

let random_pred rng cols =
  let col () = List.nth cols (Tpch.Prng.int rng (List.length cols)) in
  let const () =
    if Tpch.Prng.int rng 4 = 0 then float_lit rng
    else string_of_int (Tpch.Prng.int rng 6)
  in
  let atom () =
    match Tpch.Prng.int rng 5 with
    | 0 -> Printf.sprintf "%s = %s" (col ()) (const ())
    | 1 -> Printf.sprintf "%s < %s" (col ()) (const ())
    | 2 -> Printf.sprintf "%s BETWEEN %s AND %s" (col ()) (const ()) (const ())
    | 3 -> Printf.sprintf "%s IN (%s, %s)" (col ()) (const ()) (const ())
    | _ -> Printf.sprintf "%s IS NOT NULL" (col ())
  in
  match Tpch.Prng.int rng 4 with
  | 0 -> atom ()
  | 1 -> Printf.sprintf "%s AND %s" (atom ()) (atom ())
  | 2 -> Printf.sprintf "%s OR %s" (atom ()) (atom ())
  | _ -> Printf.sprintf "NOT %s" (atom ())

let random_query rng =
  let two_tables = Tpch.Prng.bool rng in
  let cols = if two_tables then [ "a"; "b"; "k"; "v"; "w" ] else [ "a"; "b" ] in
  let from = if two_tables then "t1, t2" else "t1" in
  let shape = Tpch.Prng.int rng 4 in
  (* An equi-join conjunct: INT = INT makes a hash join, built on either
     side by size; INT = FLOAT stays a filter. Not under LIMIT without
     ORDER BY, which keeps rows in the order of the join, not of the
     reference's cartesian product. *)
  let join =
    if two_tables && shape <> 1 && Tpch.Prng.bool rng then
      [ List.nth [ "t1.a = t2.k"; "t2.k = t1.b"; "t1.a = t2.w" ]
          (Tpch.Prng.int rng 3) ]
    else []
  in
  let pred =
    if Tpch.Prng.bool rng then [ "(" ^ random_pred rng cols ^ ")" ] else []
  in
  let where =
    match join @ pred with
    | [] -> ""
    | conjs -> " WHERE " ^ String.concat " AND " conjs
  in
  match shape with
  | 0 ->
    let distinct = if Tpch.Prng.bool rng then "DISTINCT " else "" in
    Printf.sprintf "SELECT %s%s FROM %s%s" distinct
      (String.concat ", " (List.filteri (fun i _ -> i < 2) cols))
      from where
  | 1 ->
    Printf.sprintf "SELECT a + 1, b FROM %s%s LIMIT %d" from where
      (Tpch.Prng.int rng 5)
  | 2 ->
    Printf.sprintf
      "SELECT a, count(*), sum(b), min(b), max(b) FROM %s%s GROUP BY a" from
      where
  | _ ->
    Printf.sprintf "SELECT count(*), avg(%s) FROM %s%s"
      (List.nth cols (Tpch.Prng.int rng (List.length cols)))
      from where

(* --------------------------------------------------------------- *)

let rows_to_strings rows =
  List.map
    (fun row ->
      String.concat "|" (Array.to_list (Array.map Value.to_raw_string row)))
    rows
  |> List.sort String.compare

let prop_differential =
  QCheck.Test.make ~count:400 ~name:"executor agrees with naive interpreter"
    (QCheck.make ~print:string_of_int QCheck.Gen.nat) (fun seed ->
      let rng = Tpch.Prng.create ~seed in
      let db = random_db rng in
      let sql = random_query rng in
      match Sql_parser.parse sql with
      | Select s ->
        let real = Database.query db sql in
        let expected = naive_select (Database.catalog db) s in
        let got = rows_to_strings (Executor.result_values real) in
        let want = rows_to_strings expected in
        if got <> want then
          QCheck.Test.fail_reportf "query %s:\n  executor: %s\n  naive:    %s"
            sql (String.concat " ; " got) (String.concat " ; " want)
        else true
      | _ -> false)

let suite = [ QCheck_alcotest.to_alcotest prop_differential ]

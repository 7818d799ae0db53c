(** Translation of SELECT ASTs into physical plans.

    The planner is deliberately simple but covers what a realistic workload
    needs:
    - comma joins and explicit [JOIN .. ON] become hash joins when
      column-equality conjuncts are available (left-outer joins pad
      unmatched rows with NULLs);
    - equality predicates against indexed columns, and short INT
      [BETWEEN] ranges against hash-indexed ones, become index scans;
    - [AS OF] table references read the version history snapshot, through
      the same access paths;
    - aggregates in the projection/HAVING are collected into slots and the
      surrounding expressions rewritten to reference them;
    - UNION [ALL] concatenates compatible bodies;
    - uncorrelated subqueries (EXISTS / IN / scalar) are evaluated once at
      plan time through a caller-supplied evaluator and replaced by
      constants; their provenance joins every result row's annotation
      (a conservative over-approximation, which is what packaging needs). *)

open Sql_ast

type node = { schema : Schema.t; op : op }

and op =
  | Scan of { table : Table.t; binding : string; as_of : int option }
  | Index_scan of {
      table : Table.t;
      binding : string;
      index : Table.index;
      keys : keys;
      sel : float;  (** static selectivity of the absorbed conjunct *)
      as_of : int option;
    }
  | Range_scan of {
      table : Table.t;
      binding : string;
      oindex : Table.ordered_index;
      lo : (Value.t * bool) option;  (** lower bound (value, inclusive) *)
      hi : (Value.t * bool) option;
      sel : float;  (** static selectivity of the absorbed conjuncts *)
      as_of : int option;
    }
  | Filter of Eval_expr.bound * float * node
      (** predicate, static selectivity estimate, input *)
  | Project of (Eval_expr.bound * Schema.column) list * node
  | Hash_join of {
      left : node;
      right : node;
      left_keys : Eval_expr.bound list;
      right_keys : Eval_expr.bound list;
      outer : bool;  (** left outer: pad unmatched left rows *)
      build_left : bool;
          (** cost-based build-side choice: hash the left input and probe
              with the right (emitting probe-major order) instead of the
              default build-right *)
    }
  | Nested_loop of {
      left : node;
      right : node;
      pred : Eval_expr.bound option;
      outer : bool;
    }
  | Aggregate of {
      input : node;
      group : (Eval_expr.bound * Schema.column) list;
      aggs : (agg_fn * Eval_expr.bound option) list;
    }
  | Sort of (Eval_expr.bound * order_dir) list * node
  | Limit of int * node
  | Distinct of node
  | Union of node * node  (** bag union; wrap in Distinct for UNION *)
  | Annotate of Annotation.t * node
      (** multiply every row's annotation (subquery provenance) *)

(** The keys a hash [Index_scan] probes. *)
and keys =
  | Key of Eval_expr.bound  (** one constant expression, bound to [||] *)
  | Int_range of int * int  (** every INT key in [lo, hi]; none when lo > hi *)

(** Evaluator for uncorrelated subqueries: run a plan, return its rows and
    the sum of their annotations. Supplied by {!Database} to avoid a
    dependency cycle with {!Executor}. *)
type subquery_eval = node -> Value.t array list * Annotation.t

(* ------------------------------------------------------------------ *)
(* Type inference for output schemas.                                  *)

let rec infer_type (schema : Schema.t) (e : expr) : Value.ty =
  match e with
  | Const v -> Option.value (Value.type_of v) ~default:Value.Tstr
  | Col (q, n) -> schema.(Schema.resolve schema ?qualifier:q n).Schema.ty
  | Cmp _ | And _ | Or _ | Not _ | Is_null _ | Is_not_null _ | Between _
  | Like _ | Not_like _ | In_list _ | In_select _ | Exists _ ->
    Value.Tbool
  | Arith (Div, _, _) -> Value.Tfloat
  | Arith (_, a, b) -> (
    match (infer_type schema a, infer_type schema b) with
    | Value.Tint, Value.Tint -> Value.Tint
    | _ -> Value.Tfloat)
  | Neg a -> infer_type schema a
  | Concat _ -> Value.Tstr
  | Agg (Count_star, _) | Agg (Count, _) -> Value.Tint
  | Agg (Avg, _) -> Value.Tfloat
  | Agg ((Sum | Min | Max), Some a) -> infer_type schema a
  | Agg ((Sum | Min | Max), None) ->
    Errors.unsupported "aggregate other than COUNT requires an argument"
  | Case ((_, v) :: _, _) -> infer_type schema v
  | Case ([], _) -> Value.Tstr
  | Func (name, args) -> (
    match name with
    | "lower" | "upper" | "substr" | "substring" | "trim" | "replace" ->
      Value.Tstr
    | "length" -> Value.Tint
    | "abs" | "round" | "coalesce" -> (
      match args with
      | a :: _ -> infer_type schema a
      | [] -> Value.Tstr)
    | _ -> Value.Tstr)
  | Scalar_subquery _ -> Value.Tstr (* replaced by a constant before use *)

(* ------------------------------------------------------------------ *)
(* Conjunct classification.                                            *)

let resolvable (schema : Schema.t) (e : expr) =
  match
    Sql_ast.fold_cols
      (fun () q n -> ignore (Schema.resolve schema ?qualifier:q n))
      () e
  with
  | () -> true
  | exception Errors.Db_error (Errors.Unknown_column _) -> false

let has_cols (e : expr) = Sql_ast.fold_cols (fun _ _ _ -> true) false e

(* An equi-join conjunct usable between [left] and [right]: col = col with
   one side in each schema, both of one type. A hash join matches keys by
   value, so an INT column equated with a FLOAT one stays a filter, whose
   [=] compares them numerically. Returns (left_col_expr, right_col_expr). *)
let equi_join_key (left : Schema.t) (right : Schema.t) = function
  | Cmp (Eq, (Col _ as a), (Col _ as b)) ->
    let keys l r =
      resolvable left l && resolvable right r
      && infer_type left l = infer_type right r
    in
    if keys a b then Some (a, b) else if keys b a then Some (b, a) else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Cost model.

   Two kinds of decisions, with different stability requirements:

   - Access-path choice (full / hash / range scan of one table) may use
     the *live* statistics — bucket counts, range-entry counts — because
     every access path emits the same rows in the same ascending-rid
     order, so the choice can never perturb result bytes even when a
     replay re-plans over a sliced (smaller) database.

   - Join decisions (build side, join order) change output row order, so
     audit and replay must make them identically. They therefore use only
     *replay-stable* inputs: [Table.stable_row_count] (the audit-time row
     count pinned by package restore, advanced by the local DML delta)
     and static textbook selectivities keyed on predicate shape — never
     on data. *)

let conjunct_selectivity (c : expr) : float =
  match c with
  | Cmp (Eq, _, _) -> 0.05
  | Cmp (Neq, _, _) -> 0.9
  | Cmp ((Lt | Le | Gt | Ge), _, _) -> 0.3
  | Between _ -> 0.25
  | Like _ | Not_like _ -> 0.25
  | Is_null _ -> 0.1
  | Is_not_null _ -> 0.9
  | In_list _ -> 0.2
  | _ -> 0.5

let selectivity_of_conjuncts (conjs : expr list) : float =
  List.fold_left (fun acc c -> acc *. conjunct_selectivity c) 1.0 conjs

(* A constant-foldable expression's value, for range bounds; [None] when it
   references columns, fails to fold, or folds to NULL (a NULL bound never
   matches anything and would confuse bound comparison). *)
let const_value (e : expr) : Value.t option =
  if has_cols e then None
  else
    match Eval_expr.eval_const e with
    | v -> if Value.is_null v then None else Some v
    | exception _ -> None

(* The literal prefix of a LIKE pattern — the characters before the first
   wildcard. Every matching string lies in [prefix, successor(prefix)).
   [like_match] is case-sensitive, so the bounds are sound. *)
let like_prefix (pat : string) : string option =
  let b = Buffer.create 8 in
  (try
     String.iter
       (fun c -> if c = '%' || c = '_' then raise Exit else Buffer.add_char b c)
       pat
   with Exit -> ());
  let p = Buffer.contents b in
  if p = "" then None else Some p

(* Smallest string ordered after every string prefixed by [s]; [None] when
   no such string exists (all bytes 0xff). *)
let string_successor (s : string) : string option =
  let rec go i =
    if i < 0 then None
    else if s.[i] = '\xff' then go (i - 1)
    else Some (String.sub s 0 i ^ String.make 1 (Char.chr (Char.code s.[i] + 1)))
  in
  go (String.length s - 1)

(* Intersect range bounds, keeping the tighter one. Bounds whose values are
   mutually incomparable (mixed non-numeric types) leave the current bound
   in place. *)
let tighten_lo cur ((v, incl) as b) =
  match cur with
  | None -> Some b
  | Some (v0, incl0) -> (
    match Value.compare_total v v0 with
    | c -> if c > 0 || (c = 0 && incl0 && not incl) then Some b else cur
    | exception _ -> cur)

let tighten_hi cur ((v, incl) as b) =
  match cur with
  | None -> Some b
  | Some (v0, incl0) -> (
    match Value.compare_total v v0 with
    | c -> if c < 0 || (c = 0 && incl0 && not incl) then Some b else cur
    | exception _ -> cur)

(** Replay-stable output-cardinality estimate of a plan node. *)
let rec est_rows (n : node) : float =
  let base table = Float.max 1.0 (float_of_int (Table.stable_row_count table)) in
  match n.op with
  | Scan { table; _ } -> base table
  | Index_scan { table; sel; _ } -> Float.max 1.0 (sel *. base table)
  | Range_scan { table; sel; _ } -> Float.max 1.0 (sel *. base table)
  | Filter (_, sel, x) -> Float.max 1.0 (sel *. est_rows x)
  | Project (_, x) | Sort (_, x) | Annotate (_, x) -> est_rows x
  | Limit (l, x) -> Float.min (float_of_int l) (est_rows x)
  | Distinct x -> Float.max 1.0 (0.5 *. est_rows x)
  | Hash_join { left; right; outer; _ } ->
    let l = est_rows left and r = est_rows right in
    let e = 0.1 *. l *. r in
    if outer then Float.max l e else Float.max 1.0 e
  | Nested_loop { left; right; pred; outer } ->
    let l = est_rows left and r = est_rows right in
    let e = match pred with None -> l *. r | Some _ -> 0.3 *. l *. r in
    if outer then Float.max l e else Float.max 1.0 e
  | Aggregate { group = []; _ } -> 1.0
  | Aggregate { input; _ } -> Float.max 1.0 (0.3 *. est_rows input)
  | Union (a, b) -> est_rows a +. est_rows b

(** Estimated total cost of evaluating a plan (arbitrary work units:
    roughly rows touched), surfaced through EXPLAIN and the
    [db.plan.cost] span attribute. *)
let rec cost (n : node) : float =
  match n.op with
  | Scan { table; _ } ->
    Float.max 1.0 (float_of_int (Table.stable_row_count table))
  | Index_scan _ -> est_rows n +. 1.0
  | Range_scan _ -> est_rows n +. 1.0
  | Filter (_, _, x) -> cost x
  | Project (_, x) -> cost x +. est_rows x
  | Sort (_, x) ->
    let e = est_rows x in
    cost x +. (e *. Float.max 1.0 (Float.log2 (Float.max 2.0 e)))
  | Limit (_, x) | Annotate (_, x) -> cost x
  | Distinct x | Aggregate { input = x; _ } -> cost x +. est_rows x
  | Hash_join { left; right; _ } ->
    cost left +. cost right +. est_rows left +. est_rows right
  | Nested_loop { left; right; _ } ->
    cost left +. cost right +. (est_rows left *. est_rows right)
  | Union (a, b) -> cost a +. cost b

(* ------------------------------------------------------------------ *)
(* Aggregate slot collection and rewriting.                            *)

let slot_name i = Printf.sprintf "__agg%d" i

(* Replace every aggregate call in [e] with a reference to a slot column,
   extending [slots] as needed (shared slots for syntactically equal
   calls). *)
let rec rewrite_aggs slots (e : expr) : expr =
  match e with
  | Agg (fn, arg) ->
    let key = (fn, Option.map Pretty.expr_to_string arg) in
    let idx =
      match List.find_index (fun (k, _) -> k = key) !slots with
      | Some i -> i
      | None ->
        slots := !slots @ [ (key, (fn, arg)) ];
        List.length !slots - 1
    in
    Col (None, slot_name idx)
  | Const _ | Col _ | Exists _ | Scalar_subquery _ -> e
  | Cmp (op, a, b) -> Cmp (op, rewrite_aggs slots a, rewrite_aggs slots b)
  | And (a, b) -> And (rewrite_aggs slots a, rewrite_aggs slots b)
  | Or (a, b) -> Or (rewrite_aggs slots a, rewrite_aggs slots b)
  | Not a -> Not (rewrite_aggs slots a)
  | Is_null a -> Is_null (rewrite_aggs slots a)
  | Is_not_null a -> Is_not_null (rewrite_aggs slots a)
  | Between (a, b, c) ->
    Between (rewrite_aggs slots a, rewrite_aggs slots b, rewrite_aggs slots c)
  | Like (a, p) -> Like (rewrite_aggs slots a, p)
  | Not_like (a, p) -> Not_like (rewrite_aggs slots a, p)
  | In_list (a, es) ->
    In_list (rewrite_aggs slots a, List.map (rewrite_aggs slots) es)
  | In_select (a, sub) -> In_select (rewrite_aggs slots a, sub)
  | Arith (op, a, b) -> Arith (op, rewrite_aggs slots a, rewrite_aggs slots b)
  | Neg a -> Neg (rewrite_aggs slots a)
  | Concat (a, b) -> Concat (rewrite_aggs slots a, rewrite_aggs slots b)
  | Case (branches, default) ->
    Case
      ( List.map
          (fun (c, v) -> (rewrite_aggs slots c, rewrite_aggs slots v))
          branches,
        Option.map (rewrite_aggs slots) default )
  | Func (name, args) -> Func (name, List.map (rewrite_aggs slots) args)

(* ------------------------------------------------------------------ *)
(* Planning context.                                                   *)

type ctx = {
  catalog : Catalog.t;
  eval_subquery : subquery_eval option;
  (* annotations contributed by subqueries evaluated while planning the
     current body; multiplied into the body's output rows *)
  mutable extra_ann : Annotation.t;
}

(* ------------------------------------------------------------------ *)
(* Subquery resolution: replace uncorrelated subqueries by constants,
   accumulating their provenance into the context.                     *)

let rec resolve_subqueries (ctx : ctx) (e : expr) : expr =
  let go = resolve_subqueries ctx in
  match e with
  | Const _ | Col _ -> e
  | Cmp (op, a, b) -> Cmp (op, go a, go b)
  | And (a, b) -> And (go a, go b)
  | Or (a, b) -> Or (go a, go b)
  | Not a -> Not (go a)
  | Is_null a -> Is_null (go a)
  | Is_not_null a -> Is_not_null (go a)
  | Between (a, b, c) -> Between (go a, go b, go c)
  | Like (a, p) -> Like (go a, p)
  | Not_like (a, p) -> Not_like (go a, p)
  | In_list (a, es) -> In_list (go a, List.map go es)
  | Arith (op, a, b) -> Arith (op, go a, go b)
  | Neg a -> Neg (go a)
  | Concat (a, b) -> Concat (go a, go b)
  | Agg (fn, arg) -> Agg (fn, Option.map go arg)
  | Case (branches, default) ->
    Case (List.map (fun (c, v) -> (go c, go v)) branches, Option.map go default)
  | Func (name, args) -> Func (name, List.map go args)
  | Exists sub ->
    let rows, ann = run_subquery ctx sub in
    ctx.extra_ann <- Annotation.mul ctx.extra_ann ann;
    Const (Value.Bool (rows <> []))
  | In_select (a, sub) ->
    let rows, ann = run_subquery ctx sub in
    ctx.extra_ann <- Annotation.mul ctx.extra_ann ann;
    let consts =
      List.map
        (fun (row : Value.t array) ->
          if Array.length row <> 1 then
            Errors.unsupported "IN subquery must return a single column"
          else Const row.(0))
        rows
    in
    if consts = [] then
      (* IN over the empty set is FALSE even for a NULL lhs *)
      Const (Value.Bool false)
    else In_list (go a, consts)
  | Scalar_subquery sub -> (
    let rows, ann = run_subquery ctx sub in
    ctx.extra_ann <- Annotation.mul ctx.extra_ann ann;
    match rows with
    | [] -> Const Value.Null
    | [ row ] when Array.length row = 1 -> Const row.(0)
    | [ _ ] -> Errors.unsupported "scalar subquery must return a single column"
    | _ -> Errors.unsupported "scalar subquery returned more than one row")

and run_subquery ctx (sub : select) : Value.t array list * Annotation.t =
  match ctx.eval_subquery with
  | None -> Errors.unsupported "subqueries require an executor"
  | Some eval ->
    let node = plan_select_ctx ctx sub in
    eval node

(* ------------------------------------------------------------------ *)
(* FROM clause and join-tree construction.                             *)

and scan_node (ctx : ctx) ~table ~alias ~as_of : node =
  let tbl = Catalog.find ctx.catalog table in
  let binding = Option.value alias ~default:table in
  let schema = Schema.with_qualifier binding (Table.schema tbl) in
  { schema; op = Scan { table = tbl; binding; as_of } }

(** Cost-based access-path selection for one base-table scan, shared by
    SELECT planning and UPDATE/DELETE ({!Database}): choose among the full
    scan, hash-index probes, and ordered-index range scans built from the
    [<, <=, >, >=, =, BETWEEN, prefix-LIKE] conjuncts over indexed
    columns. A hash probe serves an equality with a constant, or an INT
    column's [BETWEEN lo AND hi] with INT constant bounds, probing each of
    its keys (none when lo > hi); its cost is keys × rows / distinct keys.
    Costs use *live* statistics (row count, bucket counts, range-entry
    counts) — safe because every access path emits the same rows in the
    same ascending-rid order, so the choice can never perturb result
    bytes. An absorbed conjunct keeps its static selectivity in
    [est_rows], which the replay-stable join decisions read. Absorbed
    conjuncts are removed from the residual; LIKE always stays residual
    (its bounds only cover the literal prefix). *)
and apply_index (scan : node) (conjs : expr list) : node * expr list =
  match scan.op with
  | Scan { table; binding; as_of } ->
    let conjs_arr = Array.of_list conjs in
    let full_cost = Float.max 1.0 (float_of_int (Table.row_count table)) in
    let col_pos = function
      | Col (q, n) -> Schema.find_opt scan.schema ?qualifier:q n
      | _ -> None
    in
    (* hash-index probes: cost = keys probed * rows / distinct buckets *)
    let hash_probe c pos index keys ~width =
      let distinct =
        match Table.distinct_on table ~column:pos with
        | Some d when d > 0 -> float_of_int d
        | _ -> 1.0
      in
      let node =
        { schema = scan.schema;
          op =
            Index_scan
              { table; binding; index; keys; sel = conjunct_selectivity c;
                as_of } }
      in
      ((width *. full_cost /. distinct) +. 1.0, node)
    in
    let hash_candidates = ref [] and hash_ranges = ref [] in
    Array.iteri
      (fun i c ->
        match c with
        | Cmp (Eq, a, b) ->
          (* a hash probe finds its key by value, so a constant of
             another type than the column (7.0 against an INT column)
             stays a filter, whose [=] compares them numerically *)
          let same_type pos const_e =
            match const_value const_e with
            | Some v -> Value.type_of v = Some scan.schema.(pos).Schema.ty
            | None -> true
          in
          let try_side col_e const_e =
            match col_pos col_e with
            | Some pos when (not (has_cols const_e)) && same_type pos const_e
              -> (
              match Table.index_on table ~column:pos with
              | Some index ->
                let cost, node =
                  hash_probe c pos index
                    (Key (Eval_expr.bind [||] const_e))
                    ~width:1.0
                in
                hash_candidates := (cost, node, [ i ]) :: !hash_candidates;
                true
              | None -> false)
            | _ -> false
          in
          if not (try_side a b) then ignore (try_side b a)
        | Between (a, b1, b2) -> (
          (* probing each key beats the scan only with fewer keys than
             buckets; the width is a float, so hi - lo + 1 cannot overflow *)
          match col_pos a with
          | Some pos when scan.schema.(pos).Schema.ty = Value.Tint -> (
            match
              (Table.index_on table ~column:pos, const_value b1, const_value b2)
            with
            | Some index, Some (Value.Int lo), Some (Value.Int hi) ->
              let width =
                if lo > hi then 0.0
                else Float.of_int hi -. Float.of_int lo +. 1.0
              in
              let cost, node =
                hash_probe c pos index (Int_range (lo, hi)) ~width
              in
              hash_ranges := (cost, node, [ i ]) :: !hash_ranges
            | _ -> ())
          | _ -> ())
        | _ -> ())
      conjs_arr;
    (* ordered-index range scans: tighten bounds across all usable
       conjuncts on the indexed column; cost = entries within bounds *)
    let range_candidates = ref [] in
    Array.iteri
      (fun pos (col : Schema.column) ->
        match Table.ordered_index_on table ~column:pos with
        | None -> ()
        | Some oindex ->
          let compatible v =
            match Value.type_of v with
            | Some ty -> (
              ty = col.Schema.ty
              ||
              match (ty, col.Schema.ty) with
              | (Value.Tint | Value.Tfloat), (Value.Tint | Value.Tfloat) ->
                true
              | _ -> false)
            | None -> false
          in
          let const e =
            match const_value e with
            | Some v when compatible v -> Some v
            | _ -> None
          in
          let this_col e =
            match col_pos e with Some p -> p = pos | None -> false
          in
          let lo = ref None and hi = ref None and absorbed = ref [] in
          let absorb_cmp i op v =
            absorbed := i :: !absorbed;
            match op with
            | Lt -> hi := tighten_hi !hi (v, false)
            | Le -> hi := tighten_hi !hi (v, true)
            | Gt -> lo := tighten_lo !lo (v, false)
            | Ge -> lo := tighten_lo !lo (v, true)
            | Eq ->
              lo := tighten_lo !lo (v, true);
              hi := tighten_hi !hi (v, true)
            | Neq -> assert false
          in
          let flip = function
            | Lt -> Gt
            | Le -> Ge
            | Gt -> Lt
            | Ge -> Le
            | (Eq | Neq) as op -> op
          in
          Array.iteri
            (fun i c ->
              match c with
              | Cmp (((Lt | Le | Gt | Ge | Eq) as op), a, b) when this_col a
                -> (
                match const b with
                | Some v -> absorb_cmp i op v
                | None -> ())
              | Cmp (((Lt | Le | Gt | Ge | Eq) as op), a, b) when this_col b
                -> (
                match const a with
                | Some v -> absorb_cmp i (flip op) v
                | None -> ())
              | Between (a, b1, b2) when this_col a -> (
                match (const b1, const b2) with
                | Some v1, Some v2 ->
                  absorbed := i :: !absorbed;
                  lo := tighten_lo !lo (v1, true);
                  hi := tighten_hi !hi (v2, true)
                | _ -> ())
              | Like (a, pat) when this_col a && col.Schema.ty = Value.Tstr
                -> (
                (* bounds only; the pattern itself stays residual *)
                match like_prefix pat with
                | Some p ->
                  lo := tighten_lo !lo (Value.Str p, true);
                  Option.iter
                    (fun s -> hi := tighten_hi !hi (Value.Str s, false))
                    (string_successor p)
                | None -> ())
              | _ -> ())
            conjs_arr;
          if !lo <> None || !hi <> None then begin
            let abs_conjs = List.map (fun i -> conjs_arr.(i)) !absorbed in
            let sel =
              if abs_conjs = [] then 0.5
              else selectivity_of_conjuncts abs_conjs
            in
            let node =
              { schema = scan.schema;
                op =
                  Range_scan
                    { table; binding; oindex; lo = !lo; hi = !hi; sel; as_of }
              }
            in
            let cost =
              float_of_int (Table.range_estimate table oindex ~lo:!lo ~hi:!hi)
              +. 1.0
            in
            range_candidates := (cost, node, !absorbed) :: !range_candidates
          end)
      scan.schema;
    (* cheapest wins; ties prefer a hash probe over an ordered range, and
       that over a hash range, any of them over the full scan *)
    let best =
      List.fold_left
        (fun best (rank, cand) ->
          let cost, _, _ = cand in
          match best with
          | Some (bcost, brank, _) when bcost < cost || (bcost = cost && brank <= rank)
            ->
            best
          | _ -> Some (cost, rank, cand))
        None
        (List.map (fun c -> (0, c)) !hash_candidates
        @ List.map (fun c -> (1, c)) !range_candidates
        @ List.map (fun c -> (2, c)) !hash_ranges)
    in
    (match best with
    | Some (_, _, (cost, node, absorbed)) when cost < full_cost ->
      let residual =
        List.filteri (fun i _ -> not (List.mem i absorbed)) conjs
      in
      (node, residual)
    | _ -> (scan, conjs))
  | _ -> (scan, conjs)

(* Apply all conjuncts resolvable in [node]'s schema as a filter; returns
   the filtered node and the still-unresolvable conjuncts. *)
and apply_resolvable_filters node pending =
  let usable, rest = List.partition (resolvable node.schema) pending in
  let node, usable = apply_index node usable in
  match Sql_ast.conjoin usable with
  | None -> (node, rest)
  | Some pred ->
    let bound = Eval_expr.bind node.schema pred in
    ( { schema = node.schema;
        op = Filter (bound, selectivity_of_conjuncts usable, node) },
      rest )

(* Join [acc] with [next] on the given conjuncts; equi conjuncts become
   hash-join keys, the rest a residual filter (inner) or a nested-loop
   predicate (outer). *)
and join_nodes (_ctx : ctx) ~outer acc next conjs : node * expr list =
  let keys, rest =
    List.partition_map
      (fun c ->
        match equi_join_key acc.schema next.schema c with
        | Some (l, r) -> Left (l, r)
        | None -> Right c)
      conjs
  in
  let schema = Schema.append acc.schema next.schema in
  if keys = [] then
    if outer then
      let pred =
        Option.map (Eval_expr.bind schema) (Sql_ast.conjoin rest)
      in
      ({ schema; op = Nested_loop { left = acc; right = next; pred; outer } }, [])
    else
      ({ schema; op = Nested_loop { left = acc; right = next; pred = None; outer } },
       rest)
  else begin
    let left_keys = List.map (fun (l, _) -> Eval_expr.bind acc.schema l) keys in
    let right_keys =
      List.map (fun (_, r) -> Eval_expr.bind next.schema r) keys
    in
    (* Build on the smaller estimated side. Outer joins must build right
       (left rows drive the padding). Estimates are replay-stable, so the
       recorded run and its replay pick the same side — and therefore the
       same output row order. *)
    let build_left = (not outer) && est_rows acc < est_rows next in
    let joined =
      { schema;
        op =
          Hash_join
            { left = acc; right = next; left_keys; right_keys; outer;
              build_left } }
    in
    if outer && rest <> [] then
      (* a residual ON condition cannot be applied after padding; fall
         back to a nested loop with the full predicate *)
      let pred = Eval_expr.bind schema (Option.get (Sql_ast.conjoin (keys_to_exprs keys @ rest))) in
      ({ schema; op = Nested_loop { left = acc; right = next; pred = Some pred; outer } },
       [])
    else (joined, rest)
  end

and keys_to_exprs keys = List.map (fun (l, r) -> Cmp (Eq, l, r)) keys

(* Plan a FROM item, pulling usable conjuncts from [pending]. *)
and plan_from_item (ctx : ctx) (item : from_item) (pending : expr list) :
    node * expr list =
  match item with
  | From_table { table; alias; as_of } ->
    apply_resolvable_filters (scan_node ctx ~table ~alias ~as_of) pending
  | From_join { left; right; kind; on } -> (
    let on_conjs = List.map (resolve_subqueries ctx) (Sql_ast.conjuncts on) in
    match kind with
    | Inner ->
      let lnode, pending = plan_from_item ctx left pending in
      let rnode, pending = plan_from_item ctx right pending in
      let joined, rest =
        join_nodes ctx ~outer:false lnode rnode (on_conjs @ pending)
      in
      apply_resolvable_filters joined rest
    | Left_outer ->
      (* WHERE conjuncts may be pushed to the left (preserved) side but
         never into the right side of an outer join *)
      let lnode, pending = plan_from_item ctx left pending in
      let rnode, _ = plan_from_item ctx right [] in
      let joined, rest = join_nodes ctx ~outer:true lnode rnode on_conjs in
      (match rest with
      | [] -> ()
      | _ -> Errors.unsupported "unresolvable ON condition in outer join");
      (joined, pending))

(* ------------------------------------------------------------------ *)
(* SELECT body planning (everything but ORDER BY / LIMIT / set ops).   *)

and default_item_name i (e : expr) =
  match e with
  | Col (_, n) -> n
  | Agg (fn, _) -> agg_name fn
  | Func (name, _) -> name
  | _ -> Printf.sprintf "column%d" (i + 1)

(* The planned body: pre-projection pipeline plus the projection spec, so
   the caller can choose where to put a Sort. *)
and plan_body (ctx : ctx) (s : select) :
    node * (Eval_expr.bound * Schema.column) list * Schema.t * bool =
  if s.from = [] then Errors.unsupported "SELECT without FROM is not supported";
  let where =
    Option.map
      (fun w -> List.map (resolve_subqueries ctx) (Sql_ast.conjuncts w))
      s.where
  in
  let conjs = Option.value where ~default:[] in
  (* Greedy join order for comma-joins: when every FROM item is a plain
     table with a distinct binding, visit them smallest-estimate first so
     the left-deep tree builds from the cheapest inputs. The estimate is
     replay-stable, so audit and replay order identically. [SELECT *]
     still expands in declaration order via [star_schema]. *)
  let plain_bindings =
    List.filter_map
      (function
        | From_table { table; alias; _ } ->
          Some (String.lowercase_ascii (Option.value alias ~default:table))
        | From_join _ -> None)
      s.from
  in
  let reorderable =
    List.length plain_bindings = List.length s.from
    && List.length s.from > 1
    && List.length (List.sort_uniq String.compare plain_bindings)
       = List.length plain_bindings
    (* LIMIT without a total ORDER BY makes raw row order semantically
       observable (it selects which rows survive): keep syntactic order *)
    && not (s.limit <> None && s.order_by = [])
  in
  let star_schema, from_items =
    if not reorderable then (None, s.from)
    else begin
      let with_est =
        List.map
          (function
            | From_table { table; _ } as it ->
              let tbl = Catalog.find ctx.catalog table in
              (it, Table.stable_row_count tbl)
            | From_join _ -> assert false)
          s.from
      in
      let schema =
        List.fold_left
          (fun acc -> function
            | From_table { table; alias; _ } ->
              let tbl = Catalog.find ctx.catalog table in
              Schema.append acc
                (Schema.with_qualifier
                   (Option.value alias ~default:table)
                   (Table.schema tbl))
            | From_join _ -> assert false)
          [||] s.from
      in
      ( Some schema,
        List.map fst
          (List.stable_sort (fun (_, a) (_, b) -> compare a b) with_est) )
    end
  in
  let first, rest_items =
    match from_items with x :: xs -> (x, xs) | [] -> assert false
  in
  let node, conjs = plan_from_item ctx first conjs in
  let node, conjs =
    List.fold_left
      (fun (acc, pending) item ->
        let next, pending = plan_from_item ctx item pending in
        let joined, pending = join_nodes ctx ~outer:false acc next pending in
        apply_resolvable_filters joined pending)
      (node, conjs) rest_items
  in
  (* conjuncts held back while planning (e.g. WHERE predicates over the
     padded side of an outer join) apply above the finished join tree *)
  let node, conjs = apply_resolvable_filters node conjs in
  (match conjs with
  | [] -> ()
  | c :: _ ->
    (* force a resolution error naming the offending column *)
    ignore (Eval_expr.bind node.schema c));
  (* aggregation *)
  let items =
    List.concat_map
      (function
        | Star ->
          Array.to_list (Option.value star_schema ~default:node.schema)
          |> List.map (fun (c : Schema.column) ->
                 Item (Col (c.qualifier, c.name), None))
        | Item (e, a) -> [ Item (resolve_subqueries ctx e, a) ])
      s.items
  in
  let having = Option.map (resolve_subqueries ctx) s.having in
  let needs_agg =
    s.group_by <> []
    || List.exists (function Item (e, _) -> contains_agg e | Star -> false) items
    || Option.fold ~none:false ~some:contains_agg having
  in
  let node, items, having =
    if not needs_agg then (node, items, having)
    else begin
      let slots = ref [] in
      let items' =
        List.map
          (function
            | Star -> assert false
            | Item (e, a) -> Item (rewrite_aggs slots e, a))
          items
      in
      let having' = Option.map (rewrite_aggs slots) having in
      let group =
        List.map
          (fun (q, n) ->
            let idx = Schema.resolve node.schema ?qualifier:q n in
            (Eval_expr.Bcol idx, node.schema.(idx)))
          s.group_by
      in
      let aggs =
        List.map
          (fun (_, (fn, arg)) ->
            (fn, Option.map (Eval_expr.bind node.schema) arg))
          !slots
      in
      let agg_schema =
        Array.of_list
          (List.map snd group
          @ List.mapi
              (fun i (_, (fn, arg)) ->
                Schema.column (slot_name i)
                  (infer_type node.schema (Agg (fn, arg))))
              !slots)
      in
      ( { schema = agg_schema; op = Aggregate { input = node; group; aggs } },
        items',
        having' )
    end
  in
  let node =
    match having with
    | None -> node
    | Some h ->
      { schema = node.schema;
        op = Filter (Eval_expr.bind node.schema h, 0.5, node) }
  in
  let proj_items =
    List.mapi
      (fun i item ->
        match item with
        | Star -> assert false
        | Item (e, alias) ->
          let name =
            match alias with Some a -> a | None -> default_item_name i e
          in
          let col = Schema.column name (infer_type node.schema e) in
          (Eval_expr.bind node.schema e, col))
      items
  in
  let proj_schema = Array.of_list (List.map snd proj_items) in
  (node, proj_items, proj_schema, s.distinct)

(* Assemble a body into a finished pipeline, optionally preparing for a
   sort below the projection when ORDER BY references dropped columns. *)
and assemble (ctx : ctx) (s : select)
    ((pre, proj_items, proj_schema, distinct) :
      node * (Eval_expr.bound * Schema.column) list * Schema.t * bool)
    ~with_order : node =
  let order_by =
    if with_order then
      List.map (fun (e, d) -> (resolve_subqueries ctx e, d)) s.order_by
    else []
  in
  let order_above =
    order_by <> [] && List.for_all (fun (e, _) -> resolvable proj_schema e) order_by
  in
  let sort_keys schema =
    List.map (fun (e, dir) -> (Eval_expr.bind schema e, dir)) order_by
  in
  let base =
    if order_by = [] || order_above then pre
    else { schema = pre.schema; op = Sort (sort_keys pre.schema, pre) }
  in
  let node = { schema = proj_schema; op = Project (proj_items, base) } in
  let node = if distinct then { schema = node.schema; op = Distinct node } else node in
  let node =
    if order_above then
      { schema = node.schema; op = Sort (sort_keys node.schema, node) }
    else node
  in
  match if with_order then s.limit else None with
  | None -> node
  | Some l -> { schema = node.schema; op = Limit (l, node) }

and plan_select_ctx (ctx : ctx) (s : select) : node =
  (* each body gets its own annotation scope *)
  let saved = ctx.extra_ann in
  ctx.extra_ann <- Annotation.one;
  let wrap node =
    let node =
      (* a constructor check, however large the subqueries' annotation *)
      if Annotation.equal ctx.extra_ann Annotation.one then node
      else { schema = node.schema; op = Annotate (ctx.extra_ann, node) }
    in
    ctx.extra_ann <- saved;
    node
  in
  match s.set_ops with
  | [] -> wrap (assemble ctx s (plan_body ctx s) ~with_order:true)
  | ops ->
    let first = assemble ctx s (plan_body ctx s) ~with_order:false in
    let combined =
      List.fold_left
        (fun acc (op, rhs) ->
          let rhs_node = assemble ctx rhs (plan_body ctx rhs) ~with_order:false in
          if Schema.arity rhs_node.schema <> Schema.arity acc.schema then
            Errors.unsupported "UNION branches must have the same arity";
          let u = { schema = acc.schema; op = Union (acc, rhs_node) } in
          match op with
          | Union_all -> u
          | Union_distinct -> { schema = u.schema; op = Distinct u })
        first ops
    in
    (* ORDER BY / LIMIT apply to the whole chain, over the output schema *)
    let node =
      if s.order_by = [] then combined
      else
        let keys =
          List.map
            (fun (e, d) ->
              (Eval_expr.bind combined.schema (resolve_subqueries ctx e), d))
            s.order_by
        in
        { schema = combined.schema; op = Sort (keys, combined) }
    in
    wrap
      (match s.limit with
      | None -> node
      | Some l -> { schema = node.schema; op = Limit (l, node) })

(** Plan a SELECT. [eval_subquery] is required when the statement contains
    subqueries. *)
let plan_select (catalog : Catalog.t) ?eval_subquery (s : select) : node =
  Ldv_obs.counter "db.plans";
  Ldv_obs.Ledger.time Ldv_obs.Ledger.Plan @@ fun () ->
  Ldv_obs.with_span "db.plan" @@ fun () ->
  let node =
    plan_select_ctx { catalog; eval_subquery; extra_ann = Annotation.one } s
  in
  Ldv_obs.add_attr "db.plan.cost" (Printf.sprintf "%.1f" (cost node));
  Ldv_obs.add_attr "db.plan.est_rows" (Printf.sprintf "%.1f" (est_rows node));
  node

(** Resolve the uncorrelated subqueries of a standalone expression (an
    UPDATE/DELETE WHERE clause); returns the rewritten expression and the
    provenance annotation the subqueries contributed. *)
let resolve_expr (catalog : Catalog.t) ?eval_subquery (e : expr) :
    expr * Annotation.t =
  let ctx = { catalog; eval_subquery; extra_ann = Annotation.one } in
  let e = resolve_subqueries ctx e in
  (e, ctx.extra_ann)

(** Names of the base tables a plan reads, in scan order. *)
let rec base_tables (n : node) : string list =
  match n.op with
  | Scan { table; _ } | Index_scan { table; _ } | Range_scan { table; _ } ->
    [ Table.name table ]
  | Filter (_, _, x)
  | Project (_, x)
  | Sort (_, x)
  | Limit (_, x)
  | Distinct x
  | Annotate (_, x) ->
    base_tables x
  | Hash_join { left; right; _ } | Nested_loop { left; right; _ } | Union (left, right) ->
    base_tables left @ base_tables right
  | Aggregate { input; _ } -> base_tables input

(** A one-line textual rendering of the plan shape, for EXPLAIN, tests and
    debugging. *)
let rec describe (n : node) : string =
  match n.op with
  | Scan { table; binding; as_of } ->
    let name = Table.name table in
    let base =
      if name = binding then Printf.sprintf "scan(%s" name
      else Printf.sprintf "scan(%s as %s" name binding
    in
    (match as_of with
    | Some t -> base ^ Printf.sprintf " asof %d)" t
    | None -> base ^ ")")
  | Index_scan { table; index; as_of; _ } ->
    let base =
      Printf.sprintf "indexscan(%s.%s" (Table.name table) index.Table.idx_name
    in
    (match as_of with
    | Some t -> base ^ Printf.sprintf " asof %d)" t
    | None -> base ^ ")")
  | Range_scan { table; oindex; lo; hi; as_of; _ } ->
    let b = Buffer.create 32 in
    Buffer.add_string b
      (Printf.sprintf "rangescan(%s.%s" (Table.name table)
         oindex.Table.oidx_name);
    Option.iter
      (fun (v, incl) ->
        Buffer.add_string b
          (Printf.sprintf " %s %s" (if incl then ">=" else ">")
             (Value.to_string v)))
      lo;
    Option.iter
      (fun (v, incl) ->
        Buffer.add_string b
          (Printf.sprintf " %s %s" (if incl then "<=" else "<")
             (Value.to_string v)))
      hi;
    Option.iter (fun t -> Buffer.add_string b (Printf.sprintf " asof %d" t)) as_of;
    Buffer.add_char b ')';
    Buffer.contents b
  | Filter (_, _, x) -> Printf.sprintf "filter(%s)" (describe x)
  | Project (_, x) -> Printf.sprintf "project(%s)" (describe x)
  | Hash_join { left; right; outer; build_left; _ } ->
    Printf.sprintf "%s%s(%s, %s)"
      (if outer then "hashouterjoin" else "hashjoin")
      (if build_left then "[build=left]" else "")
      (describe left) (describe right)
  | Nested_loop { left; right; outer; _ } ->
    Printf.sprintf "%s(%s, %s)"
      (if outer then "nestedouterloop" else "nestedloop")
      (describe left) (describe right)
  | Aggregate { input; _ } -> Printf.sprintf "aggregate(%s)" (describe input)
  | Sort (_, x) -> Printf.sprintf "sort(%s)" (describe x)
  | Limit (l, x) -> Printf.sprintf "limit(%d, %s)" l (describe x)
  | Distinct x -> Printf.sprintf "distinct(%s)" (describe x)
  | Union (a, b) -> Printf.sprintf "union(%s, %s)" (describe a) (describe b)
  | Annotate (_, x) -> Printf.sprintf "annotate(%s)" (describe x)

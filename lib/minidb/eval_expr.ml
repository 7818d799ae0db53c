(** Binding and evaluation of scalar expressions.

    Binding resolves column references against a schema into positional
    accessors; evaluation implements SQL three-valued logic (comparisons and
    boolean connectives involving NULL yield NULL; WHERE keeps only rows
    whose predicate evaluates to TRUE). *)

open Sql_ast

type bound =
  | Bconst of Value.t
  | Bcol of int
  | Bcmp of cmp * bound * bound
  | Band of bound * bound
  | Bor of bound * bound
  | Bnot of bound
  | Bis_null of bound
  | Bis_not_null of bound
  | Bbetween of bound * bound * bound
  | Blike of bound * string
  | Bnot_like of bound * string
  | Bin_list of bound * bound list
  | Barith of arith * bound * bound
  | Bneg of bound
  | Bconcat of bound * bound
  | Bcase of (bound * bound) list * bound option
  | Bfunc of scalar_fn * bound list

and scalar_fn =
  | F_lower
  | F_upper
  | F_length
  | F_abs
  | F_substr
  | F_coalesce
  | F_round
  | F_trim
  | F_replace

let scalar_fn_of_name = function
  | "lower" -> Some F_lower
  | "upper" -> Some F_upper
  | "length" -> Some F_length
  | "abs" -> Some F_abs
  | "substr" | "substring" -> Some F_substr
  | "coalesce" -> Some F_coalesce
  | "round" -> Some F_round
  | "trim" -> Some F_trim
  | "replace" -> Some F_replace
  | _ -> None

(** [bind schema e] resolves all column references in [e].

    Raises [Db_error Unknown_column]/[Ambiguous_column] on resolution
    failure and [Db_error Unsupported] if [e] still contains aggregate
    calls (the planner must rewrite those away first). *)
let rec bind (schema : Schema.t) (e : expr) : bound =
  match e with
  | Const v -> Bconst v
  | Col (q, n) -> Bcol (Schema.resolve schema ?qualifier:q n)
  | Cmp (op, a, b) -> Bcmp (op, bind schema a, bind schema b)
  | And (a, b) -> Band (bind schema a, bind schema b)
  | Or (a, b) -> Bor (bind schema a, bind schema b)
  | Not a -> Bnot (bind schema a)
  | Is_null a -> Bis_null (bind schema a)
  | Is_not_null a -> Bis_not_null (bind schema a)
  | Between (a, lo, hi) -> Bbetween (bind schema a, bind schema lo, bind schema hi)
  | Like (a, p) -> Blike (bind schema a, p)
  | Not_like (a, p) -> Bnot_like (bind schema a, p)
  | In_list (a, es) -> Bin_list (bind schema a, List.map (bind schema) es)
  | Arith (op, a, b) -> Barith (op, bind schema a, bind schema b)
  | Neg a -> Bneg (bind schema a)
  | Concat (a, b) -> Bconcat (bind schema a, bind schema b)
  | Case (branches, default) ->
    Bcase
      ( List.map (fun (c, v) -> (bind schema c, bind schema v)) branches,
        Option.map (bind schema) default )
  | Func (name, args) -> (
    match scalar_fn_of_name name with
    | Some fn -> Bfunc (fn, List.map (bind schema) args)
    | None -> Errors.unsupported "unknown function %s" name)
  | Agg _ ->
    Errors.unsupported "aggregate call outside of an aggregation context"
  | Exists _ | In_select _ | Scalar_subquery _ ->
    Errors.unsupported
      "subquery not resolved before binding (subqueries must be uncorrelated)"

(* Two pointers over [pattern] and [s]. [star] is the index of the last
   [%] passed (-1 before any) and [mark] the position in [s] it absorbs
   up to; on a mismatch the match resumes just past that [%], which
   absorbs one more character. Revisiting only the last [%] is enough:
   whatever an earlier one absorbed, the later one can absorb instead. *)
let rec like_from pattern s pi si star mark =
  if si < String.length s then
    if pi < String.length pattern && pattern.[pi] = '%' then
      like_from pattern s (pi + 1) si pi si
    else if
      pi < String.length pattern && (pattern.[pi] = '_' || pattern.[pi] = s.[si])
    then like_from pattern s (pi + 1) (si + 1) star mark
    else if star >= 0 then like_from pattern s (star + 1) (mark + 1) star (mark + 1)
    else false
  else like_rest pattern pi

(* [s] is consumed: only [%]s may remain of the pattern. *)
and like_rest pattern pi =
  pi = String.length pattern || (pattern.[pi] = '%' && like_rest pattern (pi + 1))

(** SQL LIKE pattern matching: [%] matches any sequence, [_] any single
    character. It runs in O(|pattern| * |s|) time and allocates nothing. *)
let like_match ~pattern (s : string) = like_from pattern s 0 0 (-1) 0

(* Three-valued logic over Value.t (Bool or Null). Every boolean result
   is one of the two statically allocated constants [Value.Bool true] and
   [Value.Bool false], so evaluating a predicate allocates nothing. *)
let of_bool b = if b then Value.Bool true else Value.Bool false

let tv_and a b =
  match (a, b) with
  | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
  | Value.Bool true, Value.Bool true -> Value.Bool true
  | _ -> Value.Null

let tv_or a b =
  match (a, b) with
  | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
  | Value.Bool false, Value.Bool false -> Value.Bool false
  | _ -> Value.Null

let tv_not = function
  | Value.Bool b -> of_bool (not b)
  | _ -> Value.Null

let as_bool name = function
  | Value.Bool _ | Value.Null as v -> v
  | _ -> Errors.type_error "%s expects a boolean operand" name

(* [a op b]: NULL when either side is NULL. *)
let compare_op op a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else
    let c = Value.compare_non_null a b in
    of_bool
      (match op with
      | Eq -> c = 0
      | Neq -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0)

let like v pattern =
  match v with
  | Value.Str s -> of_bool (like_match ~pattern s)
  | Value.Null -> Value.Null
  | _ -> Errors.type_error "LIKE expects a string operand"

(** Evaluate a bound expression against a row. *)
let rec eval (row : Value.t array) (e : bound) : Value.t =
  match e with
  | Bconst v -> v
  | Bcol i -> row.(i)
  | Bcmp (op, a, b) -> compare_op op (eval row a) (eval row b)
  | Band (a, b) -> tv_and (as_bool "AND" (eval row a)) (as_bool "AND" (eval row b))
  | Bor (a, b) -> tv_or (as_bool "OR" (eval row a)) (as_bool "OR" (eval row b))
  | Bnot a -> tv_not (as_bool "NOT" (eval row a))
  | Bis_null a -> of_bool (Value.is_null (eval row a))
  | Bis_not_null a -> of_bool (not (Value.is_null (eval row a)))
  | Bbetween (a, lo, hi) ->
    let v = eval row a in
    let c1 = compare_op Le (eval row lo) v in
    tv_and c1 (compare_op Le v (eval row hi))
  | Blike (a, pat) -> like (eval row a) pat
  | Bnot_like (a, pat) -> tv_not (like (eval row a) pat)
  | Bin_list (a, es) ->
    let v = eval row a in
    if Value.is_null v then Value.Null else in_list row v false es
  | Barith (op, a, b) ->
    let va = eval row a and vb = eval row b in
    (match op with
    | Add -> Value.add va vb
    | Sub -> Value.sub va vb
    | Mul -> Value.mul va vb
    | Div -> Value.div va vb)
  | Bneg a -> Value.neg (eval row a)
  | Bconcat (a, b) -> Value.concat (eval row a) (eval row b)
  | Bcase (branches, default) -> case row default branches
  | Bfunc (fn, args) -> eval_func row fn args

(* [v IN (es)] for a non-NULL [v]: NULL when no member equals it and
   some member is NULL. *)
and in_list row v saw_null = function
  | [] -> if saw_null then Value.Null else Value.Bool false
  | e :: rest -> (
    match eval row e with
    | Value.Null -> in_list row v true rest
    | w ->
      if Value.compare_non_null v w = 0 then Value.Bool true
      else in_list row v saw_null rest)

and case row default = function
  | [] -> ( match default with Some d -> eval row d | None -> Value.Null)
  | (c, v) :: rest -> (
    match eval row c with
    | Value.Bool true -> eval row v
    | Value.Bool false | Value.Null -> case row default rest
    | _ -> Errors.type_error "CASE condition must be boolean")

and eval_func row fn args =
  let arity n =
    if List.length args <> n then
      Errors.type_error "function expects %d arguments, got %d" n
        (List.length args)
  in
  let str_arg e =
    match eval row e with
    | Value.Str s -> Some s
    | Value.Null -> None
    | _ -> Errors.type_error "function expects a string argument"
  in
  let int_arg e =
    match eval row e with
    | Value.Int i -> Some i
    | Value.Null -> None
    | _ -> Errors.type_error "function expects an integer argument"
  in
  match fn with
  | F_lower -> (
    arity 1;
    match str_arg (List.hd args) with
    | Some s -> Value.Str (String.lowercase_ascii s)
    | None -> Value.Null)
  | F_upper -> (
    arity 1;
    match str_arg (List.hd args) with
    | Some s -> Value.Str (String.uppercase_ascii s)
    | None -> Value.Null)
  | F_length -> (
    arity 1;
    match str_arg (List.hd args) with
    | Some s -> Value.Int (String.length s)
    | None -> Value.Null)
  | F_abs -> (
    arity 1;
    match eval row (List.hd args) with
    | Value.Int i -> Value.Int (abs i)
    | Value.Float f -> Value.Float (Float.abs f)
    | Value.Null -> Value.Null
    | _ -> Errors.type_error "abs expects a numeric argument")
  | F_substr -> (
    arity 3;
    match args with
    | [ s; start; len ] -> (
      match (str_arg s, int_arg start, int_arg len) with
      | Some s, Some start, Some len ->
        (* 1-based start as in SQL; clamp to the string bounds *)
        let start0 = max 0 (start - 1) in
        let start0 = min start0 (String.length s) in
        let len = max 0 (min len (String.length s - start0)) in
        Value.Str (String.sub s start0 len)
      | _ -> Value.Null)
    | _ -> assert false)
  | F_coalesce ->
    let rec go = function
      | [] -> Value.Null
      | e :: rest -> (
        match eval row e with Value.Null -> go rest | v -> v)
    in
    go args
  | F_round -> (
    arity 1;
    match eval row (List.hd args) with
    | Value.Float f -> Value.Float (Float.round f)
    | Value.Int i -> Value.Int i
    | Value.Null -> Value.Null
    | _ -> Errors.type_error "round expects a numeric argument")
  | F_trim -> (
    arity 1;
    match str_arg (List.hd args) with
    | Some s -> Value.Str (String.trim s)
    | None -> Value.Null)
  | F_replace -> (
    arity 3;
    match List.map str_arg args with
    | [ Some s; Some find; Some sub ] ->
      if find = "" then Value.Str s
      else begin
        let buf = Buffer.create (String.length s) in
        let fl = String.length find in
        let i = ref 0 in
        while !i <= String.length s - fl do
          if String.sub s !i fl = find then begin
            Buffer.add_string buf sub;
            i := !i + fl
          end
          else begin
            Buffer.add_char buf s.[!i];
            incr i
          end
        done;
        Buffer.add_string buf (String.sub s !i (String.length s - !i));
        Value.Str (Buffer.contents buf)
      end
    | parts when List.mem None parts -> Value.Null
    | _ -> Errors.type_error "replace expects three string arguments")

(** Predicate evaluation for WHERE/HAVING: true only when the expression
    evaluates to TRUE (NULL is treated as false). *)
let eval_pred row e =
  match eval row e with
  | Value.Bool true -> true
  | Value.Bool false | Value.Null -> false
  | _ -> Errors.type_error "predicate did not evaluate to a boolean"

(** Evaluate an expression that must not reference any columns (e.g. an
    INSERT value). *)
let eval_const (e : expr) : Value.t =
  let bound = bind [||] e in
  eval [||] bound

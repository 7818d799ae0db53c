open Minidb

let schema =
  Schema.of_list
    [ Schema.column "a" Value.Tint;
      Schema.column "b" Value.Tstr;
      Schema.column "c" Value.Tfloat ]

let row = [| Value.Int 5; Value.Str "hello"; Value.Null |]

let eval_str expr_sql =
  (* parse the expression by wrapping it in a SELECT *)
  match Sql_parser.parse (Printf.sprintf "SELECT %s FROM t" expr_sql) with
  | Sql_ast.Select { items = [ Sql_ast.Item (e, _) ]; _ } ->
    Eval_expr.eval row (Eval_expr.bind schema e)
  | _ -> Alcotest.fail "bad expression"

let v = Alcotest.testable (Fmt.of_to_string Value.to_string) Value.equal

let test_three_valued_logic () =
  (* NULL AND FALSE = FALSE (not NULL) *)
  Alcotest.check v "null and false" (Value.Bool false) (eval_str "c > 1.0 AND a < 0");
  Alcotest.check v "null and true" Value.Null (eval_str "c > 1.0 AND a > 0");
  Alcotest.check v "null or true" (Value.Bool true) (eval_str "c > 1.0 OR a > 0");
  Alcotest.check v "null or false" Value.Null (eval_str "c > 1.0 OR a < 0");
  Alcotest.check v "not null" Value.Null (eval_str "NOT c > 1.0")

let test_is_null () =
  Alcotest.check v "is null on null" (Value.Bool true) (eval_str "c IS NULL");
  Alcotest.check v "is not null on value" (Value.Bool true) (eval_str "a IS NOT NULL")

let test_between () =
  Alcotest.check v "in range" (Value.Bool true) (eval_str "a BETWEEN 1 AND 10");
  Alcotest.check v "below range" (Value.Bool false) (eval_str "a BETWEEN 6 AND 10");
  Alcotest.check v "null bound" Value.Null (eval_str "a BETWEEN 1 AND c")

let test_in_list () =
  Alcotest.check v "member" (Value.Bool true) (eval_str "a IN (1, 5, 9)");
  Alcotest.check v "not member" (Value.Bool false) (eval_str "a IN (1, 2)");
  Alcotest.check v "null in list is unknown" Value.Null (eval_str "c IN (1.0)");
  Alcotest.check v "miss with null member is unknown" Value.Null
    (eval_str "a IN (1, c)")

let test_like () =
  Alcotest.check v "suffix wildcard" (Value.Bool true) (eval_str "b LIKE 'hel%'");
  Alcotest.check v "infix" (Value.Bool true) (eval_str "b LIKE '%ell%'");
  Alcotest.check v "underscore" (Value.Bool true) (eval_str "b LIKE 'h_llo'");
  Alcotest.check v "no match" (Value.Bool false) (eval_str "b LIKE 'x%'");
  Alcotest.check v "not like" (Value.Bool true) (eval_str "b NOT LIKE 'x%'");
  Alcotest.check v "exact" (Value.Bool true) (eval_str "b LIKE 'hello'");
  Alcotest.check v "empty pattern vs nonempty" (Value.Bool false)
    (eval_str "b LIKE ''")

let test_eval_pred () =
  let bind e = Eval_expr.bind schema e in
  let p = bind (Sql_ast.Is_null (Sql_ast.Col (None, "c"))) in
  Alcotest.(check bool) "true pred" true (Eval_expr.eval_pred row p);
  let unknown = bind (Sql_ast.Cmp (Sql_ast.Gt, Sql_ast.Col (None, "c"), Sql_ast.Const (Value.Int 0))) in
  Alcotest.(check bool) "unknown filtered out" false (Eval_expr.eval_pred row unknown)

let test_agg_outside_context_fails () =
  Alcotest.(check bool) "aggregate rejected by binder" true
    (try
       ignore (Eval_expr.bind schema (Sql_ast.Agg (Sql_ast.Count_star, None)));
       false
     with Errors.Db_error (Errors.Unsupported _) -> true)

(* LIKE matcher against a naive reference implementation. *)
let naive_like ~pattern s =
  let rec go pi si =
    if pi = String.length pattern then si = String.length s
    else
      match pattern.[pi] with
      | '%' ->
        let rec try_from k = k <= String.length s && (go (pi + 1) k || try_from (k + 1)) in
        try_from si
      | '_' -> si < String.length s && go (pi + 1) (si + 1)
      | c -> si < String.length s && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

let prop_like_matches_naive =
  let gen =
    QCheck.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (int_bound 8))
        (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_bound 10)))
  in
  QCheck.Test.make ~count:500 ~name:"LIKE agrees with naive matcher"
    (QCheck.make ~print:(fun (p, s) -> Printf.sprintf "%S %S" p s) gen)
    (fun (pattern, s) ->
      Eval_expr.like_match ~pattern s = naive_like ~pattern s)

(* Boolean operators against a reference written on [Value.compare_sql]
   and the three-valued truth tables, over random INT, FLOAT, TEXT, BOOL
   and NULL operands, as constants and as columns of a row. Kleene's
   tables order the truth values FALSE < NULL < TRUE: AND is the
   minimum, OR the maximum, NOT the mirror image. *)
let truth_rank = function
  | Value.Bool false -> 0
  | Value.Null -> 1
  | Value.Bool true -> 2
  | _ -> Errors.type_error "not a truth value"

let of_rank = [| Value.Bool false; Value.Null; Value.Bool true |]

let rec reference row (e : Sql_ast.expr) : Value.t =
  let open Sql_ast in
  let cmp op a b =
    match Value.compare_sql a b with
    | None -> Value.Null
    | Some c ->
      Value.Bool
        (match op with
        | Eq -> c = 0
        | Neq -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0)
  in
  let conj a b = of_rank.(min (truth_rank a) (truth_rank b)) in
  let disj a b = of_rank.(max (truth_rank a) (truth_rank b)) in
  let neg a = of_rank.(2 - truth_rank a) in
  match e with
  | Const v -> v
  | Col (_, name) -> row.(int_of_string (String.sub name 1 1))
  | Cmp (op, a, b) -> cmp op (reference row a) (reference row b)
  | Between (a, lo, hi) ->
    let v = reference row a in
    conj (cmp Le (reference row lo) v) (cmp Le v (reference row hi))
  | In_list (a, members) ->
    (* members are compared left to right; the first equal one decides *)
    let v = reference row a in
    if Value.is_null v then Value.Null
    else
      List.fold_left
        (fun acc m ->
          if acc = Value.Bool true then acc
          else disj acc (cmp Eq v (reference row m)))
        (Value.Bool false) members
  | Is_null a -> Value.Bool (Value.is_null (reference row a))
  | Is_not_null a -> Value.Bool (not (Value.is_null (reference row a)))
  | Not a -> neg (reference row a)
  | And (a, b) -> conj (reference row a) (reference row b)
  | Or (a, b) -> disj (reference row a) (reference row b)
  | Like (a, pattern) -> (
    match reference row a with
    | Value.Str s -> Value.Bool (naive_like ~pattern s)
    | Value.Null -> Value.Null
    | _ -> Errors.type_error "not a string")
  | Not_like (a, pattern) -> neg (reference row (Like (a, pattern)))
  | _ -> invalid_arg "reference: not a boolean operator"

let gen_operand =
  QCheck.Gen.(
    frequency
      [ (1, return Value.Null);
        (3, map (fun i -> Value.Int i) (int_range (-2) 2));
        (* halves: some equal an INT, some fall between two *)
        (2, map (fun i -> Value.Float (float_of_int i /. 2.0)) (int_range (-4) 4));
        (2, map (fun s -> Value.Str s) (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_bound 2)));
        (1, map (fun b -> Value.Bool b) bool) ])

let n_cols = 4

let gen_bool_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun v -> Sql_ast.Const v) gen_operand;
        map (fun i -> Sql_ast.Col (None, Printf.sprintf "c%d" i)) (int_bound (n_cols - 1)) ]
  in
  let pattern = string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (int_bound 3) in
  let cmp = oneofl Sql_ast.[ Eq; Neq; Lt; Le; Gt; Ge ] in
  let atom =
    frequency
      [ (4, map3 (fun op a b -> Sql_ast.Cmp (op, a, b)) cmp leaf leaf);
        (2, map3 (fun a lo hi -> Sql_ast.Between (a, lo, hi)) leaf leaf leaf);
        (2, map2 (fun a ms -> Sql_ast.In_list (a, ms)) leaf (list_size (int_range 1 3) leaf));
        (1, map (fun a -> Sql_ast.Is_null a) leaf);
        (1, map (fun a -> Sql_ast.Is_not_null a) leaf);
        (1, map2 (fun a p -> Sql_ast.Like (a, p)) leaf pattern);
        (1, map2 (fun a p -> Sql_ast.Not_like (a, p)) leaf pattern);
        (* a bare operand under a connective: a non-boolean one is a
           type error *)
        (1, leaf) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then atom
      else
        frequency
          [ (2, atom);
            (1, map (fun a -> Sql_ast.Not a) (self (depth - 1)));
            (1, map2 (fun a b -> Sql_ast.And (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map2 (fun a b -> Sql_ast.Or (a, b)) (self (depth - 1)) (self (depth - 1))) ])
    2

(* A value, or the type error both sides must raise on an incomparable
   or mistyped operand. *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception Errors.Db_error (Errors.Type_error _) -> Error "type error"

let prop_boolean_operators =
  let schema =
    Schema.of_list
      (List.init n_cols (fun i -> Schema.column (Printf.sprintf "c%d" i) Value.Tint))
  in
  let gen = QCheck.Gen.(pair gen_bool_expr (array_repeat n_cols gen_operand)) in
  QCheck.Test.make ~count:1000 ~name:"boolean operators agree with a reference"
    (QCheck.make
       ~print:(fun (e, row) ->
         Printf.sprintf "%s on [%s]" (Pretty.expr_to_string e)
           (String.concat "; " (Array.to_list (Array.map Value.to_string row))))
       gen)
    (fun (e, row) ->
      let got = outcome (fun () -> Eval_expr.eval row (Eval_expr.bind schema e)) in
      let want = outcome (fun () -> reference row e) in
      match (got, want) with
      | Ok a, Ok b when Value.equal a b -> true
      | Error _, Error _ -> true
      | _ ->
        let show = function Ok v -> Value.to_string v | Error m -> m in
        QCheck.Test.fail_reportf "eval %s, reference %s" (show got) (show want))

(* The matcher runs on every row a LIKE filter scans, so it allocates
   nothing per call. *)
let test_like_allocation () =
  let names =
    Array.init 1_000 (fun i -> Printf.sprintf "Customer#%09d" (i * 37))
  in
  let hits = ref 0 in
  let words =
    Fixtures.allocated_words (fun () ->
        Array.iter
          (fun s ->
            if Eval_expr.like_match ~pattern:"%000000%" s then incr hits)
          names)
  in
  Alcotest.(check int) "matches" 28 !hits;
  if words >= 4.0 *. float_of_int (Array.length names) then
    Alcotest.failf "1000 calls allocated %.0f words" words

let suite =
  [ Alcotest.test_case "three-valued logic" `Quick test_three_valued_logic;
    Alcotest.test_case "is null" `Quick test_is_null;
    Alcotest.test_case "between" `Quick test_between;
    Alcotest.test_case "in list" `Quick test_in_list;
    Alcotest.test_case "like" `Quick test_like;
    Alcotest.test_case "predicate evaluation" `Quick test_eval_pred;
    Alcotest.test_case "aggregate outside context" `Quick test_agg_outside_context_fails;
    QCheck_alcotest.to_alcotest prop_like_matches_naive;
    Alcotest.test_case "like_match allocates nothing per call" `Quick
      test_like_allocation;
    QCheck_alcotest.to_alcotest prop_boolean_operators ]

(** Recursive-descent parser producing [Sql_ast] statements.

    Expression grammar, loosest to tightest binding:
      or_expr        := and_expr { OR and_expr }
      and_expr       := not_expr { AND not_expr }
      not_expr       := NOT not_expr | predicate
      predicate      := additive [ cmp additive | BETWEEN .. AND ..
                        | [NOT] LIKE | IN list-or-select | IS [NOT] NULL ]
      additive       := multiplicative { plus-minus-concat multiplicative }
      multiplicative := unary { times-divide unary }
      unary          := - unary | primary
      primary        := literal | column | aggregate | function call
                        | CASE .. END | EXISTS subquery | parenthesized
                        (expression or scalar subquery)

    FROM clauses are comma-separated join trees:
      table_ref   := primary_ref { [LEFT [OUTER] | INNER] JOIN primary_ref
                      ON or_expr }
      primary_ref := ident [AS OF int] [[AS] alias] | ( table_ref ) *)

open Sql_ast
module L = Sql_lexer

let parse_error lx msg = Errors.parse_error ~position:(L.peek_pos lx) msg

let parse_ident lx =
  match L.next lx with
  | L.Ident s -> s
  | tok ->
    Errors.parse_error ~position:(L.peek_pos lx)
      (Printf.sprintf "expected identifier, found %s" (L.token_to_string tok))

(* A column reference, possibly qualified: name | qual.name *)
let parse_column_ref lx =
  let first = parse_ident lx in
  if L.accept_sym lx "." then
    let second = parse_ident lx in
    (Some first, second)
  else (None, first)

let agg_of_kw = function
  | "COUNT" -> Some Count
  | "SUM" -> Some Sum
  | "AVG" -> Some Avg
  | "MIN" -> Some Min
  | "MAX" -> Some Max
  | _ -> None

let rec parse_or lx =
  let lhs = parse_and lx in
  if L.accept_kw lx "OR" then Or (lhs, parse_or lx) else lhs

and parse_and lx =
  let lhs = parse_not lx in
  if L.accept_kw lx "AND" then And (lhs, parse_and lx) else lhs

and parse_not lx =
  if L.accept_kw lx "NOT" then Not (parse_not lx) else parse_predicate lx

and parse_predicate lx =
  let lhs = parse_additive lx in
  match L.peek lx with
  | L.Sym "=" -> L.advance lx; Cmp (Eq, lhs, parse_additive lx)
  | L.Sym "<>" -> L.advance lx; Cmp (Neq, lhs, parse_additive lx)
  | L.Sym "<" -> L.advance lx; Cmp (Lt, lhs, parse_additive lx)
  | L.Sym "<=" -> L.advance lx; Cmp (Le, lhs, parse_additive lx)
  | L.Sym ">" -> L.advance lx; Cmp (Gt, lhs, parse_additive lx)
  | L.Sym ">=" -> L.advance lx; Cmp (Ge, lhs, parse_additive lx)
  | L.Kw "BETWEEN" ->
    L.advance lx;
    let lo = parse_additive lx in
    L.expect_kw lx "AND";
    let hi = parse_additive lx in
    Between (lhs, lo, hi)
  | L.Kw "LIKE" ->
    L.advance lx;
    (match L.next lx with
    | L.Str_lit pat -> Like (lhs, pat)
    | _ -> parse_error lx "LIKE expects a string literal pattern")
  | L.Kw "NOT" when L.peek2 lx = L.Kw "LIKE" ->
    L.advance lx;
    L.advance lx;
    (match L.next lx with
    | L.Str_lit pat -> Not_like (lhs, pat)
    | _ -> parse_error lx "NOT LIKE expects a string literal pattern")
  | L.Kw "IN" ->
    L.advance lx;
    L.expect_sym lx "(";
    if L.peek lx = L.Kw "SELECT" then begin
      L.advance lx;
      let sub = parse_select_body lx in
      L.expect_sym lx ")";
      In_select (lhs, sub)
    end
    else begin
      let rec items acc =
        let e = parse_or lx in
        if L.accept_sym lx "," then items (e :: acc)
        else begin
          L.expect_sym lx ")";
          List.rev (e :: acc)
        end
      in
      In_list (lhs, items [])
    end
  | L.Kw "IS" ->
    L.advance lx;
    if L.accept_kw lx "NOT" then begin
      L.expect_kw lx "NULL";
      Is_not_null lhs
    end
    else begin
      L.expect_kw lx "NULL";
      Is_null lhs
    end
  | _ -> lhs

and parse_additive lx =
  let rec go lhs =
    match L.peek lx with
    | L.Sym "+" -> L.advance lx; go (Arith (Add, lhs, parse_multiplicative lx))
    | L.Sym "-" -> L.advance lx; go (Arith (Sub, lhs, parse_multiplicative lx))
    | L.Sym "||" -> L.advance lx; go (Concat (lhs, parse_multiplicative lx))
    | _ -> lhs
  in
  go (parse_multiplicative lx)

and parse_multiplicative lx =
  let rec go lhs =
    match L.peek lx with
    | L.Sym "*" -> L.advance lx; go (Arith (Mul, lhs, parse_unary lx))
    | L.Sym "/" -> L.advance lx; go (Arith (Div, lhs, parse_unary lx))
    | _ -> lhs
  in
  go (parse_unary lx)

and parse_unary lx =
  if L.accept_sym lx "-" then Neg (parse_unary lx) else parse_primary lx

and parse_primary lx =
  match L.peek lx with
  | L.Int_lit i -> L.advance lx; Const (Value.Int i)
  | L.Float_lit f -> L.advance lx; Const (Value.Float f)
  | L.Str_lit s -> L.advance lx; Const (Value.Str s)
  | L.Kw "NULL" -> L.advance lx; Const Value.Null
  | L.Kw "TRUE" -> L.advance lx; Const (Value.Bool true)
  | L.Kw "FALSE" -> L.advance lx; Const (Value.Bool false)
  | L.Sym "(" ->
    L.advance lx;
    if L.peek lx = L.Kw "SELECT" then begin
      L.advance lx;
      let sub = parse_select_body lx in
      L.expect_sym lx ")";
      Scalar_subquery sub
    end
    else begin
      let e = parse_or lx in
      L.expect_sym lx ")";
      e
    end
  | L.Kw "CASE" ->
    L.advance lx;
    let rec branches acc =
      if L.accept_kw lx "WHEN" then begin
        let c = parse_or lx in
        L.expect_kw lx "THEN";
        let v = parse_or lx in
        branches ((c, v) :: acc)
      end
      else List.rev acc
    in
    let branches = branches [] in
    if branches = [] then parse_error lx "CASE requires at least one WHEN";
    let default = if L.accept_kw lx "ELSE" then Some (parse_or lx) else None in
    L.expect_kw lx "END";
    Case (branches, default)
  | L.Kw "EXISTS" ->
    L.advance lx;
    L.expect_sym lx "(";
    L.expect_kw lx "SELECT";
    let sub = parse_select_body lx in
    L.expect_sym lx ")";
    Exists sub
  | L.Kw kw when agg_of_kw kw <> None ->
    let fn = Option.get (agg_of_kw kw) in
    L.advance lx;
    L.expect_sym lx "(";
    if fn = Count && L.accept_sym lx "*" then begin
      L.expect_sym lx ")";
      Agg (Count_star, None)
    end
    else begin
      let arg = parse_or lx in
      L.expect_sym lx ")";
      Agg (fn, Some arg)
    end
  | L.Ident name when L.peek2 lx = L.Sym "(" ->
    (* scalar function call *)
    L.advance lx;
    L.advance lx;
    let rec args acc =
      if L.accept_sym lx ")" then List.rev acc
      else begin
        let e = parse_or lx in
        if L.accept_sym lx "," then args (e :: acc)
        else begin
          L.expect_sym lx ")";
          List.rev (e :: acc)
        end
      end
    in
    Func (name, args [])
  | L.Ident _ ->
    let q, n = parse_column_ref lx in
    Col (q, n)
  | tok ->
    parse_error lx
      (Printf.sprintf "unexpected token %s in expression" (L.token_to_string tok))

and parse_select_item lx =
  if L.accept_sym lx "*" then Star
  else begin
    let e = parse_or lx in
    if L.accept_kw lx "AS" then Item (e, Some (parse_ident lx))
    else
      match L.peek lx with
      | L.Ident alias -> L.advance lx; Item (e, Some alias)
      | _ -> Item (e, None)
  end

(* primary_ref := ident [AS OF int] [[AS] alias] | ( table_ref ) *)
and parse_primary_ref lx =
  if L.accept_sym lx "(" then begin
    let item = parse_table_ref lx in
    L.expect_sym lx ")";
    item
  end
  else begin
    let table = parse_ident lx in
    (* "AS OF n" vs "AS alias": decide on the token after AS *)
    let as_of, saw_as =
      if L.peek lx = L.Kw "AS" && L.peek2 lx = L.Kw "OF" then begin
        L.advance lx;
        L.advance lx;
        match L.next lx with
        | L.Int_lit n -> (Some n, false)
        | _ -> parse_error lx "AS OF expects an integer timestamp"
      end
      else if L.accept_kw lx "AS" then (None, true)
      else (None, false)
    in
    let alias =
      if saw_as then Some (parse_ident lx)
      else
        match L.peek lx with
        | L.Ident alias -> L.advance lx; Some alias
        | _ -> None
    in
    From_table { table; alias; as_of }
  end

(* table_ref := primary_ref { join-clause } *)
and parse_table_ref lx =
  let rec joins left =
    let kind =
      if L.peek lx = L.Kw "JOIN" then begin
        L.advance lx;
        Some Inner
      end
      else if L.peek lx = L.Kw "INNER" && L.peek2 lx = L.Kw "JOIN" then begin
        L.advance lx;
        L.advance lx;
        Some Inner
      end
      else if L.peek lx = L.Kw "LEFT" then begin
        L.advance lx;
        ignore (L.accept_kw lx "OUTER");
        L.expect_kw lx "JOIN";
        Some Left_outer
      end
      else None
    in
    match kind with
    | None -> left
    | Some kind ->
      let right = parse_primary_ref lx in
      L.expect_kw lx "ON";
      let on = parse_or lx in
      joins (From_join { left; right; kind; on })
  in
  joins (parse_primary_ref lx)

and parse_select_body lx : select =
  let distinct = L.accept_kw lx "DISTINCT" in
  let items = sep_list lx parse_select_item in
  let from =
    if L.accept_kw lx "FROM" then sep_list lx parse_table_ref else []
  in
  let where = if L.accept_kw lx "WHERE" then Some (parse_or lx) else None in
  let group_by =
    if L.accept_kw lx "GROUP" then begin
      L.expect_kw lx "BY";
      sep_list lx parse_column_ref
    end
    else []
  in
  let having = if L.accept_kw lx "HAVING" then Some (parse_or lx) else None in
  (* UNION binds before ORDER BY / LIMIT, which apply to the whole chain *)
  let rec unions acc =
    if L.peek lx = L.Kw "UNION" then begin
      L.advance lx;
      let op = if L.accept_kw lx "ALL" then Union_all else Union_distinct in
      L.expect_kw lx "SELECT";
      let rhs = parse_select_core lx in
      unions ((op, rhs) :: acc)
    end
    else List.rev acc
  in
  let set_ops = unions [] in
  let order_by =
    if L.accept_kw lx "ORDER" then begin
      L.expect_kw lx "BY";
      sep_list lx (fun lx ->
          let e = parse_or lx in
          let dir =
            if L.accept_kw lx "DESC" then Desc
            else begin
              ignore (L.accept_kw lx "ASC");
              Asc
            end
          in
          (e, dir))
    end
    else []
  in
  let limit =
    if L.accept_kw lx "LIMIT" then
      match L.next lx with
      | L.Int_lit i -> Some i
      | _ -> parse_error lx "LIMIT expects an integer"
    else None
  in
  { distinct; items; from; where; group_by; having; order_by; limit; set_ops }

(* a select without trailing UNION/ORDER BY/LIMIT handling: the rhs of a
   set operation *)
and parse_select_core lx : select =
  let distinct = L.accept_kw lx "DISTINCT" in
  let items = sep_list lx parse_select_item in
  let from =
    if L.accept_kw lx "FROM" then sep_list lx parse_table_ref else []
  in
  let where = if L.accept_kw lx "WHERE" then Some (parse_or lx) else None in
  let group_by =
    if L.accept_kw lx "GROUP" then begin
      L.expect_kw lx "BY";
      sep_list lx parse_column_ref
    end
    else []
  in
  let having = if L.accept_kw lx "HAVING" then Some (parse_or lx) else None in
  { distinct; items; from; where; group_by; having; order_by = []; limit = None;
    set_ops = [] }

and sep_list : 'a. L.t -> (L.t -> 'a) -> 'a list =
 fun lx parse_one ->
  let x = parse_one lx in
  if L.accept_sym lx "," then x :: sep_list lx parse_one else [ x ]

let parse_type lx =
  match L.next lx with
  | L.Kw ("INT" | "INTEGER") -> Value.Tint
  | L.Kw ("FLOAT" | "REAL") -> Value.Tfloat
  | L.Kw "DOUBLE" ->
    ignore (L.accept_kw lx "PRECISION");
    Value.Tfloat
  | L.Kw "TEXT" -> Value.Tstr
  | L.Kw ("VARCHAR" | "CHAR") ->
    if L.accept_sym lx "(" then begin
      (match L.next lx with
      | L.Int_lit _ -> ()
      | _ -> parse_error lx "expected length");
      L.expect_sym lx ")"
    end;
    Value.Tstr
  | L.Kw ("BOOL" | "BOOLEAN") -> Value.Tbool
  | tok ->
    parse_error lx
      (Printf.sprintf "expected a type name, found %s" (L.token_to_string tok))

let rec parse_statement_body lx =
  match L.peek lx with
  | L.Kw "SELECT" ->
    L.advance lx;
    Select (parse_select_body lx)
  | L.Kw "PROVENANCE" ->
    L.advance lx;
    L.expect_kw lx "SELECT";
    Provenance (parse_select_body lx)
  | L.Kw "EXPLAIN" ->
    L.advance lx;
    Explain (parse_statement_body lx)
  | L.Kw "BEGIN" ->
    L.advance lx;
    ignore (L.accept_kw lx "TRANSACTION" || L.accept_kw lx "WORK");
    Begin_tx
  | L.Kw "COMMIT" ->
    L.advance lx;
    ignore (L.accept_kw lx "TRANSACTION" || L.accept_kw lx "WORK");
    Commit_tx
  | L.Kw "ROLLBACK" ->
    L.advance lx;
    ignore (L.accept_kw lx "TRANSACTION" || L.accept_kw lx "WORK");
    Rollback_tx
  | L.Kw "INSERT" ->
    L.advance lx;
    L.expect_kw lx "INTO";
    let table = parse_ident lx in
    let columns =
      if L.peek lx = L.Sym "(" then begin
        L.advance lx;
        let cols = sep_list lx parse_ident in
        L.expect_sym lx ")";
        Some cols
      end
      else None
    in
    if L.accept_kw lx "VALUES" then begin
      let parse_row lx =
        L.expect_sym lx "(";
        let row = sep_list lx parse_or in
        L.expect_sym lx ")";
        row
      in
      let rows = sep_list lx parse_row in
      Insert { table; columns; source = Values rows }
    end
    else begin
      L.expect_kw lx "SELECT";
      Insert { table; columns; source = Query (parse_select_body lx) }
    end
  | L.Kw "UPDATE" ->
    L.advance lx;
    let table = parse_ident lx in
    L.expect_kw lx "SET";
    let parse_set lx =
      let col = parse_ident lx in
      L.expect_sym lx "=";
      (col, parse_or lx)
    in
    let sets = sep_list lx parse_set in
    let where = if L.accept_kw lx "WHERE" then Some (parse_or lx) else None in
    Update { table; sets; where }
  | L.Kw "DELETE" ->
    L.advance lx;
    L.expect_kw lx "FROM";
    let table = parse_ident lx in
    let where = if L.accept_kw lx "WHERE" then Some (parse_or lx) else None in
    Delete { table; where }
  | L.Kw "CREATE" when L.peek2 lx = L.Kw "TABLE" ->
    L.advance lx;
    L.advance lx;
    let table = parse_ident lx in
    L.expect_sym lx "(";
    let parse_col lx =
      let name = parse_ident lx in
      let ty = parse_type lx in
      (name, ty)
    in
    let columns = sep_list lx parse_col in
    L.expect_sym lx ")";
    Create_table { table; columns }
  | L.Kw "CREATE" when L.peek2 lx = L.Kw "INDEX" || L.peek2 lx = L.Kw "ORDERED"
    ->
    L.advance lx;
    let ordered = L.accept_kw lx "ORDERED" in
    L.expect_kw lx "INDEX";
    let index = parse_ident lx in
    L.expect_kw lx "ON";
    let table = parse_ident lx in
    L.expect_sym lx "(";
    let column = parse_ident lx in
    L.expect_sym lx ")";
    Create_index { index; table; column; ordered }
  | L.Kw "DROP" when L.peek2 lx = L.Kw "TABLE" ->
    L.advance lx;
    L.advance lx;
    Drop_table (parse_ident lx)
  | L.Kw "DROP" when L.peek2 lx = L.Kw "INDEX" ->
    L.advance lx;
    L.advance lx;
    Drop_index (parse_ident lx)
  | tok ->
    parse_error lx
      (Printf.sprintf "expected a statement, found %s" (L.token_to_string tok))

(** Parse a single SQL statement (a trailing semicolon is allowed). Each
    call counts one [sql.parse] while a sink is on. *)
let parse (input : string) : statement =
  if Ldv_obs.enabled () then Ldv_obs.counter "sql.parse";
  let lx = L.tokenize input in
  let stmt = parse_statement_body lx in
  ignore (L.accept_sym lx ";");
  (match L.peek lx with
  | L.Eof -> ()
  | tok ->
    parse_error lx
      (Printf.sprintf "trailing input: %s" (L.token_to_string tok)));
  stmt

(** Parse a semicolon-separated script into a list of statements. *)
let parse_script (input : string) : statement list =
  let lx = L.tokenize input in
  let rec go acc =
    match L.peek lx with
    | L.Eof -> List.rev acc
    | _ ->
      let stmt = parse_statement_body lx in
      ignore (L.accept_sym lx ";");
      go (stmt :: acc)
  in
  go []

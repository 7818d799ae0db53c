(** SQL values and scalar types.

    MiniDB supports the four scalar types needed by the TPC-H workload of the
    paper (integers, floats, strings, booleans) plus SQL [NULL]. Comparison
    and arithmetic follow SQL semantics: any operation involving [NULL]
    yields [NULL]; comparisons across numeric types coerce integers to
    floats. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ty = Tint | Tfloat | Tstr | Tbool

let type_name = function
  | Tint -> "INT"
  | Tfloat -> "FLOAT"
  | Tstr -> "TEXT"
  | Tbool -> "BOOL"

let type_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstr
  | Bool _ -> Some Tbool

let is_null = function Null -> true | _ -> false

(** [conforms v ty] holds when [v] may be stored in a column of type [ty].
    [Null] conforms to every type and integers conform to float columns. *)
let conforms v ty =
  match (v, ty) with
  | Null, _ -> true
  | Int _, Tint | Int _, Tfloat -> true
  | Float _, Tfloat -> true
  | Str _, Tstr -> true
  | Bool _, Tbool -> true
  | (Int _ | Float _ | Str _ | Bool _), _ -> false

(** Coerce a value for storage into a column of type [ty]. Integers widen to
    floats; everything else must already conform. *)
let coerce v ty =
  match (v, ty) with
  | Int i, Tfloat -> Float (float_of_int i)
  | v, _ ->
    if conforms v ty then v
    else
      Errors.type_error "value %s does not conform to type %s"
        (match v with
        | Null -> "NULL"
        | Int i -> string_of_int i
        | Float f -> string_of_float f
        | Str s -> Printf.sprintf "%S" s
        | Bool b -> string_of_bool b)
        (type_name ty)

(** SQL comparison of two non-NULL values, as for [compare]; integers
    compare with floats by value. It returns an unboxed [int], so a
    predicate's comparison allocates nothing.
    @raise Errors.Db_error [Type_error] when the types are incomparable.
    @raise Invalid_argument on [NULL]. *)
let compare_non_null a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Null, _ | _, Null -> invalid_arg "Value.compare_non_null: NULL"
  | (Int _ | Float _ | Str _ | Bool _), _ ->
    Errors.type_error "cannot compare values of different types"

(** SQL comparison: [None] when either side is [NULL], [Some c] otherwise
    with [c] as for [compare].
    @raise Errors.Db_error [Type_error] when the types are incomparable. *)
let compare_sql a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | a, b -> Some (compare_non_null a b)

(** Structural equality used for result comparison (treats [NULL] = [NULL]
    as true, unlike SQL equality). *)
let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | (Null | Int _ | Float _ | Str _ | Bool _), _ -> false

(** Total order for sorting; NULLs sort first (PostgreSQL's NULLS FIRST for
    ascending order is not the default, but a total order is all we need). *)
let compare_total a b =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | a, b -> compare_non_null a b

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Str _ | Bool _ -> None

let numeric_binop name fi ff a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (fi x y)
  | (Int _ | Float _), (Int _ | Float _) -> (
    match (to_float a, to_float b) with
    | Some x, Some y -> Float (ff x y)
    | _ -> assert false)
  | _ -> Errors.type_error "operator %s expects numeric arguments" name

let add = numeric_binop "+" ( + ) ( +. )
let sub = numeric_binop "-" ( - ) ( -. )
let mul = numeric_binop "*" ( * ) ( *. )

let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _, Int 0 -> Errors.type_error "division by zero"
  | _, Float 0.0 -> Errors.type_error "division by zero"
  | Int x, Int y -> Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) -> (
    match (to_float a, to_float b) with
    | Some x, Some y -> Float (x /. y)
    | _ -> assert false)
  | _ -> Errors.type_error "operator / expects numeric arguments"

let neg = function
  | Null -> Null
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | Str _ | Bool _ -> Errors.type_error "unary - expects a numeric argument"

let concat a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Str x, Str y -> Str (x ^ y)
  | _ -> Errors.type_error "operator || expects string arguments"

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "'%s'" (String.concat "''" (String.split_on_char '\'' s))
  | Bool b -> Format.pp_print_string ppf (if b then "TRUE" else "FALSE")

let to_string v = Format.asprintf "%a" pp v

(** Raw rendering without SQL quoting, used by the CSV codec and result
    hashing. *)
let to_raw_string = function
  | Null -> ""
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6f" f
  | Str s -> s
  | Bool b -> if b then "true" else "false"

(** Approximate storage footprint in bytes, used for package-size
    accounting. *)
let byte_size = function
  | Null -> 1
  | Int _ -> 8
  | Float _ -> 8
  | Bool _ -> 1
  | Str s -> String.length s + 1

let hash_fold acc v =
  let h = Hashtbl.hash in
  (acc * 31)
  + (match v with
    | Null -> 0
    | Int i -> h i
    | Float f -> h f
    | Str s -> h s
    | Bool b -> h b)

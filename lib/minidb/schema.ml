(** Table schemas and column resolution.

    A schema is an ordered array of columns. Columns carry an optional
    qualifier (the table name or alias they came from) so that SELECT
    statements over joins can resolve qualified references such as
    [o.o_orderkey]. *)

type column = {
  qualifier : string option;  (** table name or alias, lowercase *)
  name : string;  (** column name, lowercase *)
  ty : Value.ty;
}

type t = column array

let column ?qualifier name ty =
  { qualifier = Option.map String.lowercase_ascii qualifier;
    name = String.lowercase_ascii name;
    ty }

let of_list cols : t =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let key = (c.qualifier, c.name) in
      if Hashtbl.mem seen key then Errors.fail (Errors.Duplicate_column c.name);
      Hashtbl.add seen key ())
    cols;
  Array.of_list cols

let arity (s : t) = Array.length s

(** Re-qualify every column of [s] with alias [q]; used when a table is
    brought into scope under an alias in a FROM clause. *)
let with_qualifier q (s : t) : t =
  let q = String.lowercase_ascii q in
  Array.map (fun c -> { c with qualifier = Some q }) s

(** Concatenate schemas for a join result. *)
let append (a : t) (b : t) : t = Array.append a b

(** Resolve a possibly-qualified column reference to its index.

    Raises [Unknown_column] when no column matches and [Ambiguous_column]
    when an unqualified name matches columns from several tables. *)
let resolve (s : t) ?qualifier name =
  let name = String.lowercase_ascii name in
  let qualifier = Option.map String.lowercase_ascii qualifier in
  let matches = ref [] in
  Array.iteri
    (fun i c ->
      let q_ok =
        match qualifier with
        | None -> true
        | Some q -> c.qualifier = Some q
      in
      if q_ok && String.equal c.name name then matches := i :: !matches)
    s;
  match !matches with
  | [ i ] -> i
  | [] ->
    let full =
      match qualifier with Some q -> q ^ "." ^ name | None -> name
    in
    Errors.fail (Errors.Unknown_column full)
  | _ -> Errors.fail (Errors.Ambiguous_column name)

let find_opt (s : t) ?qualifier name =
  match resolve s ?qualifier name with
  | i -> Some i
  | exception Errors.Db_error (Errors.Unknown_column _) -> None

let pp_column ppf c =
  (match c.qualifier with
  | Some q -> Format.fprintf ppf "%s." q
  | None -> ());
  Format.fprintf ppf "%s %s" c.name (Value.type_name c.ty)

let pp ppf (s : t) =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_column)
    (Array.to_list s)

let check_arity (s : t) (row : Value.t array) =
  if Array.length row <> Array.length s then
    Errors.fail
      (Errors.Arity_error
         (Printf.sprintf "expected %d values, got %d" (Array.length s)
            (Array.length row)))

(** Validate that a row conforms to the schema, coercing where allowed. *)
let coerce_row (s : t) (row : Value.t array) =
  check_arity s row;
  Array.mapi (fun i v -> Value.coerce v s.(i).ty) row

(** As {!coerce_row}, but widens in place and returns [row] itself. *)
let coerce_row_in_place (s : t) (row : Value.t array) =
  check_arity s row;
  for i = 0 to Array.length row - 1 do
    let v = row.(i) in
    let c = Value.coerce v s.(i).ty in
    if c != v then row.(i) <- c
  done;
  row

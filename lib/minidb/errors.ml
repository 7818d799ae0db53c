(** Error types shared across the MiniDB engine.

    All engine errors are expressed as a single exception carrying a typed
    payload so that callers (the LDV auditing layer in particular) can react
    to specific failure classes without string matching. *)

type kind =
  | Parse_error of { message : string; position : int }
      (** Lexing or parsing failed at byte offset [position] of the input. *)
  | Unknown_table of string
  | Unknown_column of string
  | Ambiguous_column of string
  | Duplicate_table of string
  | Duplicate_column of string
  | Type_error of string
  | Arity_error of string
  | Constraint_violation of string
  | Serialization_failure of string
      (** A write-write conflict aborted the transaction (first-updater
          wins): the statement touched a row concurrently written by
          another transaction, or committed after this one's snapshot. *)
  | Tx_state of string
      (** BEGIN/COMMIT/ROLLBACK issued in the wrong session state (e.g. a
          second BEGIN while a transaction is already open). *)
  | Unsupported of string
  | Corrupt_image of string
      (** A table image (data file, checkpoint or base backup) failed its
          checksum or does not parse: bad magic or version, truncation, an
          unknown tag, or a row whose value count differs from its
          table's. *)

exception Db_error of kind

let fail kind = raise (Db_error kind)

let parse_error ~position message = fail (Parse_error { message; position })

let type_error fmt = Format.kasprintf (fun m -> fail (Type_error m)) fmt

let unsupported fmt = Format.kasprintf (fun m -> fail (Unsupported m)) fmt

let pp_kind ppf = function
  | Parse_error { message; position } ->
    Format.fprintf ppf "parse error at offset %d: %s" position message
  | Unknown_table t -> Format.fprintf ppf "unknown table %S" t
  | Unknown_column c -> Format.fprintf ppf "unknown column %S" c
  | Ambiguous_column c -> Format.fprintf ppf "ambiguous column %S" c
  | Duplicate_table t -> Format.fprintf ppf "table %S already exists" t
  | Duplicate_column c -> Format.fprintf ppf "duplicate column %S" c
  | Type_error m -> Format.fprintf ppf "type error: %s" m
  | Arity_error m -> Format.fprintf ppf "arity error: %s" m
  | Constraint_violation m -> Format.fprintf ppf "constraint violation: %s" m
  | Serialization_failure m ->
    Format.fprintf ppf "serialization failure: %s" m
  | Tx_state m -> Format.fprintf ppf "transaction state error: %s" m
  | Unsupported m -> Format.fprintf ppf "unsupported: %s" m
  | Corrupt_image m -> Format.fprintf ppf "corrupt table image: %s" m

let to_string kind = Format.asprintf "%a" pp_kind kind

let () =
  Printexc.register_printer (function
    | Db_error kind -> Some (Format.asprintf "Db_error (%a)" pp_kind kind)
    | _ -> None)

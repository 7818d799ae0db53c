(** The client/server wire protocol.

    Mirrors the slice of the PostgreSQL frontend/backend protocol that
    libpq interposition sees: a request is one statement's SQL text
    ({!Server.handle}), and the response is either a row set, an
    affected-row count, or an error. *)

open Minidb

type response =
  | Result_set of { schema : Schema.t; rows : Value.t array list }
  | Command_ok of { affected : int }
  | Ddl_ok
  | Error_response of string

let response_rows = function
  | Result_set { rows; _ } -> rows
  | Command_ok _ | Ddl_ok | Error_response _ -> []

(** Byte footprint of a response on the wire; drives recorded-result
    sizes for server-excluded packages. *)
let response_bytes = function
  | Ddl_ok -> 8
  | Command_ok _ -> 12
  | Error_response m -> 8 + String.length m
  | Result_set { schema; rows } ->
    let header =
      Array.fold_left
        (fun acc (c : Schema.column) -> acc + String.length c.Schema.name + 4)
        8 schema
    in
    List.fold_left
      (fun acc row ->
        acc + Array.fold_left (fun a v -> a + Value.byte_size v) 4 row)
      header rows

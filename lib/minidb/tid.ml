(** Tuple version identifiers.

    A stored tuple version is identified by [(table, rid, version)]:
    [rid] is the stable row identity (the paper's [prov_rowid]) and
    [version] is the logical timestamp of the write that produced this
    version (the paper's [prov_v]). These identifiers are the provenance
    variables of the annotation semiring and the DB entity ids of the
    combined execution trace. *)

type t = { table : string; rid : int; version : int }

(* Tables pass their (already lowercase) name for every tuple version:
   keeping that string instead of a fresh lowercase copy lets all versions
   of a table share one name, so [compare]/[equal] on them take the
   physical-equality fast path of the string comparison. *)
let make ~table ~rid ~version =
  let table =
    if String.exists (fun c -> c >= 'A' && c <= 'Z') table then
      String.lowercase_ascii table
    else table
  in
  { table; rid; version }

let compare a b =
  match String.compare a.table b.table with
  | 0 -> (
    match Int.compare a.rid b.rid with
    | 0 -> Int.compare a.version b.version
    | c -> c)
  | c -> c

let equal a b =
  Int.equal a.rid b.rid
  && Int.equal a.version b.version
  && String.equal a.table b.table

let pp ppf t = Format.fprintf ppf "%s:%d@@%d" t.table t.rid t.version

let to_string t =
  String.concat ""
    [ t.table; ":"; string_of_int t.rid; "@"; string_of_int t.version ]

(** Parse the [pp] rendering back; used by trace (de)serialization. *)
let of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
    let table = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match String.index_opt rest '@' with
    | None -> None
    | Some j -> (
      try
        let rid = int_of_string (String.sub rest 0 j) in
        let version =
          int_of_string (String.sub rest (j + 1) (String.length rest - j - 1))
        in
        Some { table; rid; version }
      with Failure _ -> None))

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

(** CSV encoding of tuple-version subsets.

    Server-included LDV packages carry the relevant DB subset as one CSV
    file per table (paper §VII-D). Each line carries the row identity and
    version so that restoring the subset reproduces the exact tuple-version
    identifiers recorded in the execution trace. *)

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let quote_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

(* Render a value with a type tag so that NULL and empty string are
   distinguishable on the way back. *)
let encode_value = function
  | Value.Null -> ""
  | Value.Int i -> "i" ^ string_of_int i
  (* hex float notation is lossless through float_of_string *)
  | Value.Float f -> "f" ^ Printf.sprintf "%h" f
  | Value.Str s -> "s" ^ s
  | Value.Bool b -> if b then "bt" else "bf"

(* Package content comes from outside the program: a malformed number is
   a typed error, never [int_of_string]'s [Failure]. *)
let decode_int what s =
  try int_of_string s
  with Failure _ -> Errors.type_error "malformed CSV %s %S" what s

let decode_value s =
  if String.length s = 0 then Value.Null
  else
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'i' -> Value.Int (decode_int "integer" body)
    | 'f' -> (
      try Value.Float (float_of_string body)
      with Failure _ -> Errors.type_error "malformed CSV float %S" body)
    | 's' -> Value.Str body
    | 'b' -> Value.Bool (body = "t")
    | _ -> Errors.type_error "malformed CSV value tag in %S" s

let encode_line fields =
  String.concat "," (List.map (fun f -> quote_field f) fields)

(* Split one CSV line into fields, handling quoted fields. *)
let split_line line =
  let n = String.length line in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let i = ref 0 in
  let flush () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  while !i < n do
    if line.[!i] = '"' then begin
      incr i;
      let closed = ref false in
      while not !closed do
        if !i >= n then Errors.type_error "unterminated quoted CSV field"
        else if line.[!i] = '"' then
          if !i + 1 < n && line.[!i + 1] = '"' then begin
            Buffer.add_char buf '"';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf line.[!i];
          incr i
        end
      done
    end
    else if line.[!i] = ',' then begin
      flush ();
      incr i
    end
    else begin
      Buffer.add_char buf line.[!i];
      incr i
    end
  done;
  flush ();
  List.rev !fields

(** Serialize a list of tuple versions of one table. The header records the
    column names; each data line is [rid,version,field...]. *)
let encode_versions (schema : Schema.t) (versions : (int * int * Value.t array) list) : string
    =
  let buf = Buffer.create 1024 in
  let header =
    "rid" :: "version"
    :: (Array.to_list schema |> List.map (fun (c : Schema.column) -> c.name))
  in
  Buffer.add_string buf (encode_line header);
  Buffer.add_char buf '\n';
  List.iter
    (fun (rid, version, values) ->
      let fields =
        string_of_int rid :: string_of_int version
        :: (Array.to_list values |> List.map encode_value)
      in
      Buffer.add_string buf (encode_line fields);
      Buffer.add_char buf '\n')
    versions;
  Buffer.contents buf

(** Parse back what [encode_versions] produced. Rids and versions must be
    integers; their range is checked where they are restored
    ([Table.restore_versions]).
    @raise Errors.Db_error [Type_error] on malformed input. *)
let decode_versions (data : string) : (int * int * Value.t array) list =
  match String.split_on_char '\n' data with
  | [] -> []
  | _header :: lines ->
    List.filter_map
      (fun line ->
        if String.length line = 0 then None
        else
          match split_line line with
          | rid :: version :: fields ->
            Some
              ( decode_int "rid" rid,
                decode_int "version" version,
                Array.of_list (List.map decode_value fields) )
          | _ -> Errors.type_error "malformed CSV line %S" line)
      lines

(** CSV encoding of tuple-version subsets.

    Server-included LDV packages carry the relevant DB subset as one CSV
    file per table (paper §VII-D). Each line carries the row identity and
    version so that restoring the subset reproduces the exact tuple-version
    identifiers recorded in the execution trace.

    This module is the only writer and the only reader of that row
    format. The writer appends each row straight into a buffer; the
    reader walks the payload by index and copies only what it keeps: the
    text of a TEXT value and the digits of a FLOAT. *)

(* Whether [s] from [i] on holds a separator, a quote or a line break.
   A top-level loop, unlike [String.exists], allocates no closure. *)
let rec needs_quoting s i =
  i < String.length s
  &&
  match String.unsafe_get s i with
  | ',' | '"' | '\n' | '\r' -> true
  | _ -> needs_quoting s (i + 1)

(* Append [tag ^ s] as one field, quoted when [s] holds a separator, a
   quote or a line break. *)
let add_field buf tag s =
  if needs_quoting s 0 then begin
    Buffer.add_char buf '"';
    Buffer.add_string buf tag;
    for i = 0 to String.length s - 1 do
      let c = String.unsafe_get s i in
      if c = '"' then Buffer.add_char buf '"';
      Buffer.add_char buf c
    done;
    Buffer.add_char buf '"'
  end
  else begin
    Buffer.add_string buf tag;
    Buffer.add_string buf s
  end

(* The digits of [n <= 0], most significant first: counting on the
   negative side gives [min_int] its digits too. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

(* [string_of_int i], without the string *)
let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

(* A value with its type tag, so that NULL and the empty string stay
   apart on the way back. *)
let add_value buf = function
  | Value.Null -> ()
  | Value.Int i ->
    Buffer.add_char buf 'i';
    add_int buf i
  (* hex float notation is lossless through float_of_string *)
  | Value.Float f -> Printf.bprintf buf "f%h" f
  | Value.Str s -> add_field buf "s" s
  | Value.Bool b -> Buffer.add_string buf (if b then "bt" else "bf")

(* One value with its tag, unquoted: the response recording's field. *)
let encode_value = function
  | Value.Null -> ""
  | Value.Int i -> "i" ^ string_of_int i
  | Value.Float f -> "f" ^ Printf.sprintf "%h" f
  | Value.Str s -> "s" ^ s
  | Value.Bool b -> if b then "bt" else "bf"

(** Append the header line: [rid,version] and the column names. *)
let add_header buf (schema : Schema.t) =
  Buffer.add_string buf "rid,version";
  Array.iter
    (fun (c : Schema.column) ->
      Buffer.add_char buf ',';
      add_field buf "" c.Schema.name)
    schema;
  Buffer.add_char buf '\n'

(** Append one data line: [rid,version,field...]. *)
let add_row buf ~rid ~version (values : Value.t array) =
  add_int buf rid;
  Buffer.add_char buf ',';
  add_int buf version;
  for i = 0 to Array.length values - 1 do
    Buffer.add_char buf ',';
    add_value buf (Array.unsafe_get values i)
  done;
  Buffer.add_char buf '\n'

(** Serialize a list of tuple versions of one table. The header records the
    column names; each data line is [rid,version,field...]. *)
let encode_versions (schema : Schema.t) (versions : (int * int * Value.t array) list) : string
    =
  let buf = Buffer.create 1024 in
  add_header buf schema;
  List.iter
    (fun (rid, version, values) -> add_row buf ~rid ~version values)
    versions;
  Buffer.contents buf

(* Package content comes from outside the program: a malformed number is
   a typed error, never [int_of_string]'s [Failure]. *)
let decode_int what s =
  try int_of_string s
  with Failure _ -> Errors.type_error "malformed CSV %s %S" what s

(* The value of the digits [s.[k .. j-1]] after [acc], or -1 when one
   of them is not a digit. *)
let rec digits s k j acc =
  if k = j then acc
  else
    let d = Char.code (String.unsafe_get s k) - Char.code '0' in
    if d < 0 || d > 9 then -1 else digits s (k + 1) j ((acc * 10) + d)

(* The integer [s.[i .. j-1]]. An optional '-' and 1 to 18 digits cannot
   overflow and is read in place; anything else goes through
   [decode_int], so it converts as [int_of_string] does or fails typed. *)
let int_in what s i j =
  let d = if i < j && String.unsafe_get s i = '-' then i + 1 else i in
  let n = if j - d >= 1 && j - d <= 18 then digits s d j 0 else -1 in
  if n < 0 then decode_int what (String.sub s i (j - i))
  else if d > i then -n
  else n

(* The tagged value [s.[i .. j-1]]; NULL when empty. *)
let value_in s i j =
  if i = j then Value.Null
  else
    match String.unsafe_get s i with
    | 'i' -> Value.Int (int_in "integer" s (i + 1) j)
    | 'f' -> (
      let body = String.sub s (i + 1) (j - i - 1) in
      try Value.Float (float_of_string body)
      with Failure _ -> Errors.type_error "malformed CSV float %S" body)
    | 's' -> Value.Str (String.sub s (i + 1) (j - i - 1))
    | 'b' -> Value.Bool (j - i = 2 && String.unsafe_get s (i + 1) = 't')
    | _ ->
      Errors.type_error "malformed CSV value tag in %S" (String.sub s i (j - i))

let decode_value s = value_in s 0 (String.length s)

(* The end of the unquoted field starting at [k]: the next separator or
   line break, or the end of the payload. No encoder writes a quote
   there. *)
let rec field_end s n k =
  if k >= n then k
  else
    match String.unsafe_get s k with
    | ',' | '\n' -> k
    | '"' -> Errors.type_error "quote inside an unquoted CSV field"
    | _ -> field_end s n (k + 1)

(* Unquote the field whose opening quote precedes [from] into [buf], a
   run of plain bytes at a time; a doubled quote is one quote and line
   breaks belong to the field. Returns the index after the closing
   quote. *)
let rec unquote s n buf from k =
  if k >= n then Errors.type_error "unterminated quoted CSV field"
  else if String.unsafe_get s k <> '"' then unquote s n buf from (k + 1)
  else begin
    Buffer.add_substring buf s from (k - from);
    if k + 1 < n && String.unsafe_get s (k + 1) = '"' then
      unquote s n buf (k + 1) (k + 2)
    else k + 1
  end

(* The value unquoted into [buf], whose closing quote sits before [e];
   the field must end there. Clears [buf] for the next one. *)
let unquoted_value s n buf e =
  if e < n && String.unsafe_get s e <> ',' && String.unsafe_get s e <> '\n'
  then Errors.type_error "text after a quoted CSV field";
  let len = Buffer.length buf in
  let v =
    if len > 0 && Buffer.nth buf 0 = 's' then
      Value.Str (Buffer.sub buf 1 (len - 1))
    else decode_value (Buffer.contents buf)
  in
  Buffer.clear buf;
  v

let malformed_line s start =
  let stop =
    match String.index_from_opt s start '\n' with
    | Some stop -> stop
    | None -> String.length s
  in
  Errors.type_error "malformed CSV line %S" (String.sub s start (stop - start))

(** Parse back what [encode_versions] produced, in one pass over the
    payload. Empty lines are skipped and the final newline is optional.
    Rids and versions must be integers; their range is checked where they
    are restored ([Table.restore_versions]).
    @raise Errors.Db_error [Type_error] on malformed input. *)
let decode_versions (data : string) : (int * int * Value.t array) list =
  let n = String.length data in
  let quoted = Buffer.create 64 in
  (* one row's values, copied out at the row's end *)
  let fields = ref (Array.make 16 Value.Null) in
  let rows = ref [] in
  let pos =
    ref (match String.index_opt data '\n' with Some i -> i + 1 | None -> n)
  in
  while !pos < n do
    let start = !pos in
    if String.unsafe_get data start = '\n' then pos := start + 1
    else begin
      let e = field_end data n start in
      let rid = int_in "rid" data start e in
      if e >= n || String.unsafe_get data e <> ',' then
        malformed_line data start;
      let e' = field_end data n (e + 1) in
      let version = int_in "version" data (e + 1) e' in
      (* [k] sits on the separator before each value, or on the row's end *)
      let k = ref e' and count = ref 0 in
      while !k < n && String.unsafe_get data !k = ',' do
        let i = !k + 1 in
        let v =
          if i < n && String.unsafe_get data i = '"' then begin
            k := unquote data n quoted (i + 1) (i + 1);
            unquoted_value data n quoted !k
          end
          else begin
            k := field_end data n i;
            value_in data i !k
          end
        in
        if !count = Array.length !fields then
          fields := Array.append !fields (Array.make !count Value.Null);
        Array.unsafe_set !fields !count v;
        incr count
      done;
      rows := (rid, version, Array.sub !fields 0 !count) :: !rows;
      pos := !k + 1
    end
  done;
  List.rev !rows

(** CSV encoding of tuple-version subsets.

    Server-included LDV packages carry the relevant DB subset as one CSV
    file per table (paper §VII-D). Each line carries the row identity and
    version so that restoring the subset reproduces the exact tuple-version
    identifiers recorded in the execution trace.

    This module is the only writer and the only reader of that row
    format. The writer appends each row straight into a buffer; the
    reader walks the payload by index and copies only what it keeps: the
    text of a TEXT value. *)

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

let hex_digits = "0123456789abcdef"

(* [Printf.sprintf "%h" f], without Printf: the sign, then [infinity] or
   [nan], or [0x], the lead digit, a point and the 52-bit fraction's hex
   digits up to its last nonzero one when it has any, [p] and the signed
   decimal exponent. Hex notation is lossless through [float_of_string]
   (a NaN keeps only its sign). *)
let add_hex_float buf f =
  if Float.sign_bit f then Buffer.add_char buf '-';
  (* the low 63 bits: [Int64.to_int] drops bit 63, the sign *)
  let bits = Int64.to_int (Int64.bits_of_float f) in
  let biased = (bits lsr 52) land 0x7ff in
  let frac = bits land ((1 lsl 52) - 1) in
  if biased = 0x7ff then
    Buffer.add_string buf (if frac = 0 then "infinity" else "nan")
  else begin
    (* a subnormal or zero leads with 0 *)
    Buffer.add_string buf (if biased = 0 then "0x0" else "0x1");
    if frac <> 0 then begin
      Buffer.add_char buf '.';
      let last = ref 0 in
      while (frac lsr (4 * !last)) land 0xf = 0 do
        incr last
      done;
      for k = 12 downto !last do
        Buffer.add_char buf
          (String.unsafe_get hex_digits ((frac lsr (4 * k)) land 0xf))
      done
    end;
    Buffer.add_char buf 'p';
    let exponent =
      if biased > 0 then biased - 1023 else if frac = 0 then 0 else -1022
    in
    if exponent >= 0 then Buffer.add_char buf '+';
    add_int buf exponent
  end

(* A value with its type tag, so that NULL and the empty string stay
   apart on the way back. *)
let add_value buf = function
  | Value.Null -> ()
  | Value.Int i ->
    Buffer.add_char buf 'i';
    add_int buf i
  | Value.Float f ->
    Buffer.add_char buf 'f';
    add_hex_float buf f
  | Value.Str s -> add_field buf "s" s
  | Value.Bool b -> Buffer.add_string buf (if b then "bt" else "bf")

(* One value with its tag, unquoted: the response recording's field. *)
let encode_value = function
  | Value.Null -> ""
  | Value.Int i -> "i" ^ string_of_int i
  | Value.Float f ->
    (* at most 25 bytes: [f-0x1.] and 13 digits, [p-1022] *)
    let buf = Buffer.create 25 in
    Buffer.add_char buf 'f';
    add_hex_float buf f;
    Buffer.contents buf
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

(* [s.[k]], or a NUL past [j]. *)
let char_at s j k = if k < j then String.unsafe_get s k else '\000'

(* The value of the lowercase hex digit [c], or -1. *)
let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> -1

(* The float [s.[i .. j-1]] when it is spelled as [add_hex_float] spells
   a finite float, read in place; NaN for any other spelling. Such a
   spelling holds at most 53 significant bits and an exponent in range,
   so its value is exact, the one [float_of_string] reads. *)
let hex_float_in s i j =
  let neg = char_at s j i = '-' in
  let k = ref (if neg then i + 1 else i) in
  (* [0x] and the lead digit, 0 or 1 *)
  let lead = Char.code (char_at s j (!k + 2)) - Char.code '0' in
  if
    char_at s j !k <> '0'
    || char_at s j (!k + 1) <> 'x'
    || lead < 0 || lead > 1
  then Float.nan
  else begin
    k := !k + 3;
    (* the fraction: a point and 1 to 13 digits, the last nonzero, laid
       down from bit 52 *)
    let frac = ref 0 and shift = ref 52 in
    if char_at s j !k = '.' then begin
      let d = ref (hex_value (char_at s j (!k + 1))) in
      while !d >= 0 && !shift > 0 do
        shift := !shift - 4;
        frac := !frac lor (!d lsl !shift);
        incr k;
        d := hex_value (char_at s j (!k + 1))
      done;
      incr k;
      if !shift = 52 || (!frac lsr !shift) land 0xf = 0 then frac := -1
    end;
    (* the exponent: [p], a sign and 1 to 4 decimal digits *)
    let sign = char_at s j (!k + 1) in
    let magnitude =
      if
        !frac < 0 || char_at s j !k <> 'p' || (sign <> '+' && sign <> '-')
        || j - (!k + 2) < 1 || j - (!k + 2) > 4
      then -1
      else digits s (!k + 2) j 0
    in
    let e = if sign = '-' then -magnitude else magnitude in
    (* a normal float leads with 1; a subnormal with 0 at 2^-1022, and
       zero with 0 at 2^0 *)
    let biased =
      if magnitude < 0 then -1
      else if lead = 1 then if e >= -1022 && e <= 1023 then e + 1023 else -1
      else if (!frac > 0 && e = -1022) || (!frac = 0 && e = 0) then 0
      else -1
    in
    if biased < 0 then Float.nan
    else
      (* [biased lsl 52] would overflow a native int *)
      let f =
        Int64.float_of_bits
          (Int64.logor
             (Int64.shift_left (Int64.of_int biased) 52)
             (Int64.of_int !frac))
      in
      if neg then Float.neg f else f
  end

(* The FLOAT [s.[i .. j-1]]: in place when spelled as written, else
   through [float_of_string] (infinities and NaNs too), failing typed. *)
let float_in s i j =
  let f = hex_float_in s i j in
  if not (Float.is_nan f) then f
  else
    let body = String.sub s i (j - i) in
    try float_of_string body
    with Failure _ -> Errors.type_error "malformed CSV float %S" body

(* The tagged value [s.[i .. j-1]]; NULL when empty. *)
let value_in s i j =
  if i = j then Value.Null
  else
    match String.unsafe_get s i with
    | 'i' -> Value.Int (int_in "integer" s (i + 1) j)
    | 'f' -> Value.Float (float_in s (i + 1) j)
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

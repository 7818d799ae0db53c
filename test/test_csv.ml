open Minidb

let schema =
  Schema.of_list
    [ Schema.column "a" Value.Tint;
      Schema.column "b" Value.Tstr;
      Schema.column "c" Value.Tfloat ]

let test_roundtrip_basic () =
  let versions =
    [ (1, 10, [| Value.Int 1; Value.Str "hello"; Value.Float 2.5 |]);
      (2, 11, [| Value.Null; Value.Str ""; Value.Null |]);
      (3, 12, [| Value.Int (-7); Value.Str "a,b\"c'd"; Value.Float 0.0 |]) ]
  in
  let encoded = Csv.encode_versions schema versions in
  let decoded = Csv.decode_versions encoded in
  Alcotest.(check int) "row count" 3 (List.length decoded);
  List.iter2
    (fun (r1, v1, row1) (r2, v2, row2) ->
      Alcotest.(check int) "rid" r1 r2;
      Alcotest.(check int) "version" v1 v2;
      Alcotest.(check bool) "values" true
        (Array.for_all2 Value.equal row1 row2))
    versions decoded

let test_null_vs_empty_string () =
  let versions = [ (1, 1, [| Value.Null; Value.Str ""; Value.Null |]) ] in
  match Csv.decode_versions (Csv.encode_versions schema versions) with
  | [ (_, _, row) ] ->
    Alcotest.(check bool) "null stays null" true (Value.is_null row.(0));
    Alcotest.(check bool) "empty string stays string" true
      (Value.equal row.(1) (Value.Str ""))
  | _ -> Alcotest.fail "expected one row"

let test_newline_in_field () =
  (* newlines are not allowed to break framing: they are quoted, and a
     quoted field is read across them *)
  let text = Schema.of_list [ Schema.column "t" Value.Tstr ] in
  List.iter
    (fun field ->
      let rows =
        [ (1, 1, [| Value.Str field |]); (2, 1, [| Value.Str "z" |]) ]
      in
      let encoded = Csv.encode_versions text rows in
      Alcotest.(check bool) (Printf.sprintf "%S quoted" field) true
        (String.contains encoded '"');
      Alcotest.(check bool) (Printf.sprintf "%S round-trips" field) true
        (Csv.decode_versions encoded = rows))
    [ "line1\nline2"; "a\r\nb"; "x\n"; "\n"; "\r"; "\"\n\"" ]

let value_gen =
  QCheck.Gen.(
    oneof
      [ return Value.Null;
        map (fun i -> Value.Int i) small_signed_int;
        map (fun f -> Value.Float f) (float_bound_inclusive 100.0);
        map (fun s -> Value.Str s)
          (string_size ~gen:(oneofl [ 'a'; ','; '"'; '\''; 'z' ]) (int_bound 8));
        map (fun b -> Value.Bool b) bool ])

let prop_value_roundtrip =
  QCheck.Test.make ~count:500 ~name:"encode/decode value roundtrip"
    (QCheck.make ~print:Value.to_string value_gen) (fun v ->
      Value.equal v (Csv.decode_value (Csv.encode_value v)))

(* each string as a one-column TEXT row, through the row codec *)
let prop_line_roundtrip =
  let text = Schema.of_list [ Schema.column "t" Value.Tstr ] in
  QCheck.Test.make ~count:300 ~name:"encode/split line roundtrip"
    (QCheck.make
       ~print:(fun l -> String.concat ";" l)
       QCheck.Gen.(
         list_size (int_range 1 5)
           (string_size ~gen:(oneofl [ 'a'; ','; '"'; 'x' ]) (int_bound 6))))
    (fun fields ->
      let rows = List.mapi (fun i f -> (i + 1, 1, [| Value.Str f |])) fields in
      Csv.decode_versions (Csv.encode_versions text rows) = rows)

(* ---------------- the row codec, against a reference ------------- *)

(* The encoder as a field-by-field string build: every field rendered
   with its type tag, quoted when it holds a separator, a quote or a
   line break, and joined with commas. *)
let reference_encode (schema : Schema.t) rows =
  let quote s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
    then "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  in
  let line fields = String.concat "," (List.map quote fields) ^ "\n" in
  let field = function
    | Value.Null -> ""
    | Value.Int i -> "i" ^ string_of_int i
    | Value.Float f -> "f" ^ Printf.sprintf "%h" f
    | Value.Str s -> "s" ^ s
    | Value.Bool b -> if b then "bt" else "bf"
  in
  line
    ("rid" :: "version"
    :: List.map
         (fun (c : Schema.column) -> c.Schema.name)
         (Array.to_list schema))
  ^ String.concat ""
      (List.map
         (fun (rid, version, values) ->
           line
             (string_of_int rid :: string_of_int version
             :: List.map field (Array.to_list values)))
         rows)

(* Decoded values match bit for bit; a NaN only has to stay a NaN, since
   the hex rendering keeps no payload. *)
let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    if Float.is_nan x then Float.is_nan y
    else Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let same_row (r1, v1, a1) (r2, v2, a2) =
  r1 = r2 && v1 = v2
  && Array.length a1 = Array.length a2
  && Array.for_all2 same_value a1 a2

let text_chars = [ 'a'; ','; '"'; '\''; '\r'; '\n'; ' ' ]

let table_gen =
  let open QCheck.Gen in
  let value ty =
    let typed =
      match ty with
      | Value.Tint ->
        map
          (fun i -> Value.Int i)
          (oneof [ oneofl [ min_int; max_int; -1; 0 ]; small_signed_int; int ])
      | Value.Tfloat ->
        map
          (fun f -> Value.Float f)
          (oneof
             [ map Int64.float_of_bits int64;
               oneofl
                 [ 0.0; -0.0; infinity; neg_infinity; nan; -.nan; 5e-324;
                   -2.2e-310; 2.5 ] ])
      | Value.Tstr ->
        map
          (fun s -> Value.Str s)
          (string_size ~gen:(oneofl text_chars) (int_bound 8))
      | Value.Tbool -> map (fun b -> Value.Bool b) bool
    in
    frequency [ (1, return Value.Null); (5, typed) ]
  in
  let* tys =
    list_size (int_range 1 6) (oneofl Value.[ Tint; Tfloat; Tstr; Tbool ])
  in
  let schema =
    Schema.of_list
      (List.mapi (fun i ty -> Schema.column (Printf.sprintf "c%d" i) ty) tys)
  in
  let row =
    map3
      (fun rid version values -> (rid, version, Array.of_list values))
      (oneof [ small_nat; int ])
      (oneof [ small_nat; int ])
      (flatten_l (List.map value tys))
  in
  map (fun rows -> (schema, rows)) (list_size (int_bound 12) row)

let print_table (schema, rows) =
  Printf.sprintf "%d columns: %s" (Array.length schema)
    (String.concat "; "
       (List.map
          (fun (rid, version, values) ->
            Printf.sprintf "%d,%d,%s" rid version
              (String.concat ","
                 (List.map
                    (function
                      | Value.Float f -> Printf.sprintf "%h" f
                      | v -> Printf.sprintf "%S" (Value.to_string v))
                    (Array.to_list values))))
          rows))

let prop_codec_matches_reference =
  QCheck.Test.make ~count:300 ~name:"row codec matches the reference"
    (QCheck.make ~print:print_table table_gen)
    (fun (schema, rows) ->
      let encoded = Csv.encode_versions schema rows in
      String.equal encoded (reference_encode schema rows)
      && List.equal same_row (Csv.decode_versions encoded) rows)

(* a malformed number in package content is a typed error, never
   [int_of_string]'s or [float_of_string]'s [Failure] *)
let test_malformed_numbers_are_typed () =
  List.iter
    (fun line ->
      match Csv.decode_versions ("rid,version,a,b,c\n" ^ line) with
      | _ -> Alcotest.failf "%S decoded" line
      | exception Errors.Db_error (Errors.Type_error _) -> ())
    [ "1,1,i4x,sa,f1.0";
      "1,1,i4,sa,fx";
      "1,1,i4,\"sa";
      "7";
      "1,1,x1";
      "1,1,i99999999999999999999";
      "99999999999999999999,1,i1" ]

(* whatever the bytes after the header, the reader returns rows or fails
   with a typed error *)
let prop_any_payload_typed =
  QCheck.Test.make ~count:500 ~name:"any payload decodes or fails typed"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         string_size
           ~gen:
             (oneofl
                [ '1'; '9'; '-'; ','; '"'; '\n'; '\r'; 'i'; 'f'; 's'; 'b';
                  't'; 'x'; '.'; 'p' ])
           (int_bound 40)))
    (fun body ->
      match Csv.decode_versions ("rid,version,a\n" ^ body) with
      | _ -> true
      | exception Errors.Db_error (Errors.Type_error _) -> true)

(* ---------------- hex floats, against Printf and float_of_string -- *)

let bits = Int64.bits_of_float

(* Random bit patterns, and the edge cases: ±0, subnormals (a random
   fraction, whole or its low 20 bits, under exponent 0), the normal
   extremes, ±inf and NaNs of both signs, with and without a payload. *)
let float_gen =
  let open QCheck.Gen in
  let signed g = map2 (fun neg f -> if neg then Float.neg f else f) bool g in
  let with_bits f = map (fun b -> Int64.float_of_bits (f b)) int64 in
  oneof
    [ with_bits Fun.id;
      signed (with_bits (Int64.logand 0xfffffffffffffL));
      signed (with_bits (Int64.logand 0xfffffL));
      signed
        (map
           (fun f -> Int64.float_of_bits (Int64.logor (bits f) 1L))
           (oneofl [ 0.0; Float.min_float; 1.0; Float.max_float ]));
      signed
        (oneofl
           [ 0.0; 5e-324; Float.min_float; Float.max_float; 1.0; 0.5; infinity;
             nan; Int64.float_of_bits 0x7ff0000000000001L;
             Int64.float_of_bits 0x7fffffffffffffffL ]) ]

let print_float f = Printf.sprintf "%h (%Lx)" f (bits f)

let prop_hex_writer_matches_printf =
  QCheck.Test.make ~count:2000 ~name:"FLOAT writer matches Printf %h"
    (QCheck.make ~print:print_float float_gen) (fun f ->
      let expected = Printf.sprintf "%h" f in
      let buf = Buffer.create 32 in
      Csv.add_row buf ~rid:1 ~version:1 [| Value.Float f |];
      String.equal (Csv.encode_value (Value.Float f)) ("f" ^ expected)
      && String.equal (Buffer.contents buf) ("1,1,f" ^ expected ^ "\n"))

(* [body] as a FLOAT field, next to [float_of_string body]: the same
   bits, or both refuse it (the reader with a typed error) *)
let reads_as_float_of_string body =
  match (Csv.decode_value ("f" ^ body), float_of_string_opt body) with
  | Value.Float x, Some y -> Int64.equal (bits x) (bits y)
  | _ -> false
  | exception Errors.Db_error (Errors.Type_error _) ->
    Option.is_none (float_of_string_opt body)

(* The written form reads in place as [float_of_string] reads it, and
   any other spelling still reads as [float_of_string] reads it or fails
   typed where it fails: the written form with one character changed,
   dropped or added, or a short string of float characters. *)
let prop_hex_reader_matches_float_of_string =
  let chars = "0123456789abcdefABCDEFxXpP+-._ni" in
  let float_char =
    QCheck.Gen.map (String.get chars)
      (QCheck.Gen.int_bound (String.length chars - 1))
  in
  let written = QCheck.Gen.map (Printf.sprintf "%h") float_gen in
  let edit =
    let open QCheck.Gen in
    let* s = written in
    let n = String.length s in
    let* at = int_bound (n - 1) in
    let* c = float_char in
    oneofl
      [ String.mapi (fun i x -> if i = at then c else x) s;
        String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1);
        String.sub s 0 at ^ String.make 1 c ^ String.sub s at (n - at) ]
  in
  QCheck.Test.make ~count:4000 ~name:"FLOAT reader matches float_of_string"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         oneof
           [ written; edit; string_size ~gen:float_char (int_bound 12) ]))
    reads_as_float_of_string

(* ---------------- allocation: the codec pays for its bytes -------- *)

let pin_schema =
  Schema.of_list
    [ Schema.column "k" Value.Tint;
      Schema.column "name" Value.Tstr;
      Schema.column "note" Value.Tstr;
      Schema.column "flag" Value.Tbool;
      Schema.column "price" Value.Tfloat ]

let pin_rows =
  List.init 10_000 (fun i ->
      ( i + 1,
        1,
        [| Value.Int (i * 7);
           Value.Str (Printf.sprintf "name%d" i);
           Value.Null;
           Value.Bool (i mod 2 = 0);
           Value.Float (float_of_int i *. 1.37) |] ))

(* per row, a few words of output and the decoded values themselves:
   about 19 words to encode and 29 to decode. Building each field as its
   own string costs more than twice that, and a FLOAT through Printf's
   [%h] or a copy of its digits costs 29 or 4 more. *)
let check_words_per_row what ~below f =
  let words = Fixtures.allocated_words f /. 10_000.0 in
  if words >= below then
    Alcotest.failf "%s allocates %.1f words per row" what words

let test_encode_allocation () =
  check_words_per_row "encoding" ~below:32.0 (fun () ->
      ignore (Csv.encode_versions pin_schema pin_rows))

let test_decode_allocation () =
  let encoded = Csv.encode_versions pin_schema pin_rows in
  check_words_per_row "decoding" ~below:31.0 (fun () ->
      ignore (Csv.decode_versions encoded))

let suite =
  [ Alcotest.test_case "roundtrip" `Quick test_roundtrip_basic;
    Alcotest.test_case "malformed numbers are typed" `Quick
      test_malformed_numbers_are_typed;
    Alcotest.test_case "null vs empty string" `Quick test_null_vs_empty_string;
    Alcotest.test_case "newline quoting" `Quick test_newline_in_field;
    QCheck_alcotest.to_alcotest prop_value_roundtrip;
    QCheck_alcotest.to_alcotest prop_line_roundtrip;
    QCheck_alcotest.to_alcotest prop_codec_matches_reference;
    QCheck_alcotest.to_alcotest prop_hex_writer_matches_printf;
    QCheck_alcotest.to_alcotest prop_hex_reader_matches_float_of_string;
    Alcotest.test_case "encoding allocates per byte" `Quick
      test_encode_allocation;
    Alcotest.test_case "decoding allocates per value" `Quick
      test_decode_allocation;
    QCheck_alcotest.to_alcotest prop_any_payload_typed ]

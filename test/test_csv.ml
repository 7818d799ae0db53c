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
  (* newlines are not allowed to break framing: they are quoted *)
  let field = "line1\nline2" in
  let line = Csv.encode_line [ Csv.encode_value (Value.Str field) ] in
  Alcotest.(check bool) "quoted" true (String.contains line '"')

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

let prop_line_roundtrip =
  QCheck.Test.make ~count:300 ~name:"encode/split line roundtrip"
    (QCheck.make
       ~print:(fun l -> String.concat ";" l)
       QCheck.Gen.(
         list_size (int_range 1 5)
           (string_size ~gen:(oneofl [ 'a'; ','; '"'; 'x' ]) (int_bound 6))))
    (fun fields -> Csv.split_line (Csv.encode_line fields) = fields)

(* a malformed number in package content is a typed error, never
   [int_of_string]'s or [float_of_string]'s [Failure] *)
let test_malformed_numbers_are_typed () =
  List.iter
    (fun line ->
      match Csv.decode_versions ("rid,version,a,b,c\n" ^ line) with
      | _ -> Alcotest.failf "%S decoded" line
      | exception Errors.Db_error (Errors.Type_error _) -> ())
    [ "1,1,i4x,sa,f1.0"; "1,1,i4,sa,fx" ]

let suite =
  [ Alcotest.test_case "roundtrip" `Quick test_roundtrip_basic;
    Alcotest.test_case "malformed numbers are typed" `Quick
      test_malformed_numbers_are_typed;
    Alcotest.test_case "null vs empty string" `Quick test_null_vs_empty_string;
    Alcotest.test_case "newline quoting" `Quick test_newline_in_field;
    QCheck_alcotest.to_alcotest prop_value_roundtrip;
    QCheck_alcotest.to_alcotest prop_line_roundtrip ]

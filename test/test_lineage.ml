(* Packed lineage against the boxed reference: [Tid.Set] over the same
   versions. *)

open Minidb

let test_pack_bounds () =
  List.iter
    (fun (rid, version) ->
      let p = Lineage.pack ~rid ~version in
      Alcotest.(check bool)
        (Printf.sprintf "rid %d version %d packs non-negative" rid version)
        true (p >= 0);
      Alcotest.(check (pair int int))
        (Printf.sprintf "rid %d version %d round-trips" rid version)
        (rid, version)
        (Lineage.rid p, Lineage.version p))
    [ (1, 0); (1, Table.max_version); (Table.max_rid, 0);
      (Table.max_rid, Table.max_version) ];
  Alcotest.(check int) "max_version is 2^36 - 1" ((1 lsl 36) - 1)
    Table.max_version;
  (* the extremes order as Tid.compare orders them *)
  let order =
    [ (1, 0); (1, Table.max_version); (2, 0); (Table.max_rid, 0);
      (Table.max_rid, Table.max_version) ]
  in
  let packed = List.map (fun (rid, version) -> Lineage.pack ~rid ~version) order in
  Alcotest.(check (list int)) "packed ids ascend with (rid, version)"
    (List.sort Int.compare packed) packed

let test_singleton_and_empty () =
  let tid = Tid.make ~table:"t" ~rid:3 ~version:9 in
  Alcotest.(check bool) "empty is empty" true (Lineage.is_empty Lineage.empty);
  Alcotest.(check int) "singleton holds one" 1
    (Lineage.cardinal (Lineage.singleton tid));
  Alcotest.(check (list string)) "singleton element" [ "t:3@9" ]
    (List.map Tid.to_string (Lineage.elements (Lineage.singleton tid)));
  Alcotest.(check (list string)) "singleton = of_tids"
    (List.map Tid.to_string (Lineage.elements (Lineage.singleton tid)))
    (List.map Tid.to_string (Lineage.elements (Lineage.of_tids [ tid; tid ])))

(* Versions over two or three tables: mostly a small pool, so lists hold
   duplicates and shared rids, plus the extremes of both fields. Lists
   long enough to take the radix sort. *)
let version_gen =
  QCheck.Gen.(
    let field small big = frequency [ (6, small); (1, big) ] in
    map3
      (fun table rid version -> Tid.make ~table ~rid ~version)
      (oneofl [ "lineitem"; "orders"; "customer" ])
      (field (int_range 1 6)
         (oneof [ return Table.max_rid; int_range 1 Table.max_rid ]))
      (field (int_range 0 4)
         (oneof [ return Table.max_version; int_range 0 Table.max_version ])))

let tids_gen = QCheck.Gen.(list_size (int_range 0 400) version_gen)

let print_tids l = String.concat " " (List.map Tid.to_string l)
let arb_tids = QCheck.make ~print:print_tids tids_gen

let arb_tids_list =
  QCheck.make
    ~print:(fun ls -> String.concat " | " (List.map print_tids ls))
    QCheck.Gen.(list_size (int_range 0 6) tids_gen)

let same_elements lin set =
  List.equal Tid.equal (Lineage.elements lin) (Tid.Set.elements set)

let prop name count arb f = QCheck.Test.make ~name ~count arb f

let properties =
  [ prop "to_set (of_tids l) = Tid.Set.of_list l" 300 arb_tids (fun l ->
        Tid.Set.equal (Lineage.to_set (Lineage.of_tids l)) (Tid.Set.of_list l));
    prop "iteration follows Tid.Set.elements" 300 arb_tids (fun l ->
        let lin = Lineage.of_tids l in
        let seen = ref [] in
        Lineage.iter_tables
          (fun table ids ->
            Array.iter
              (fun p ->
                seen :=
                  Tid.make ~table ~rid:(Lineage.rid p)
                    ~version:(Lineage.version p)
                  :: !seen)
              ids)
          lin;
        let set = Tid.Set.of_list l in
        same_elements lin set
        (* an ascending buffer takes the one-pass path, duplicates and all *)
        && same_elements (Lineage.of_tids (List.sort Tid.compare (l @ l))) set
        && List.equal Tid.equal (List.rev !seen) (Tid.Set.elements set)
        && Lineage.cardinal lin = Tid.Set.cardinal set);
    prop "union agrees with Tid.Set.union" 300 (QCheck.pair arb_tids arb_tids)
      (fun (a, b) ->
        same_elements
          (Lineage.union (Lineage.of_tids a) (Lineage.of_tids b))
          (Tid.Set.union (Tid.Set.of_list a) (Tid.Set.of_list b)));
    prop "union_all agrees with Tid.Set.union" 200 arb_tids_list (fun ls ->
        same_elements
          (Lineage.union_all (List.map Lineage.of_tids ls))
          (List.fold_left
             (fun acc l -> Tid.Set.union acc (Tid.Set.of_list l))
             Tid.Set.empty ls));
    prop "diff agrees with Tid.Set.diff" 300 (QCheck.pair arb_tids arb_tids)
      (fun (a, b) ->
        same_elements
          (Lineage.diff (Lineage.of_tids a) (Lineage.of_tids b))
          (Tid.Set.diff (Tid.Set.of_list a) (Tid.Set.of_list b)));
    prop "mem agrees with Tid.Set.mem" 300 (QCheck.pair arb_tids arb_tids)
      (fun (a, probes) ->
        let lin = Lineage.of_tids a and set = Tid.Set.of_list a in
        List.for_all
          (fun tid -> Lineage.mem tid lin = Tid.Set.mem tid set)
          (probes @ a)) ]

let suite =
  [ Alcotest.test_case "pack bounds" `Quick test_pack_bounds;
    Alcotest.test_case "singleton and empty" `Quick test_singleton_and_empty ]
  @ List.map QCheck_alcotest.to_alcotest properties

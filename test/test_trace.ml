open Prov

let mk () = Trace.create Combined.model

let test_add_node_validation () =
  let t = mk () in
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ());
  Alcotest.(check bool) "unknown type rejected" true
    (try
       ignore (Trace.add_node t ~id:"x" ~node_type:"martian" ());
       false
     with Invalid_argument _ -> true);
  (* idempotent re-add with same type is fine *)
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ());
  Alcotest.(check int) "one node" 1 (Trace.node_count t);
  Alcotest.(check bool) "re-add with different type rejected" true
    (try
       ignore (Trace.add_node t ~id:"p1" ~node_type:"file" ());
       false
     with Invalid_argument _ -> true)

let test_add_edge_validation () =
  let t = mk () in
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ());
  ignore (Trace.add_node t ~id:"f1" ~node_type:"file" ());
  ignore
    (Trace.add_edge t ~label:"readFrom" ~src:"f1" ~dst:"p1"
       ~time:(Interval.make 1 3));
  Alcotest.(check bool) "wrong direction rejected" true
    (try
       ignore
         (Trace.add_edge t ~label:"readFrom" ~src:"p1" ~dst:"f1"
            ~time:(Interval.point 1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown node rejected" true
    (try
       ignore
         (Trace.add_edge t ~label:"readFrom" ~src:"ghost" ~dst:"p1"
            ~time:(Interval.point 1));
       false
     with Invalid_argument _ -> true)

let test_adjacency () =
  let t = mk () in
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ());
  ignore (Trace.add_node t ~id:"f1" ~node_type:"file" ());
  ignore (Trace.add_node t ~id:"f2" ~node_type:"file" ());
  ignore (Trace.add_edge t ~label:"readFrom" ~src:"f1" ~dst:"p1" ~time:(Interval.make 1 2));
  ignore (Trace.add_edge t ~label:"hasWritten" ~src:"p1" ~dst:"f2" ~time:(Interval.make 3 4));
  Alcotest.(check int) "in edges of p1" 1 (List.length (Trace.in_edges t "p1"));
  Alcotest.(check int) "out edges of p1" 1 (List.length (Trace.out_edges t "p1"));
  Alcotest.(check int) "entities" 2 (List.length (Trace.entities t));
  Alcotest.(check int) "activities" 1 (List.length (Trace.activities t))

let test_state () =
  (* Definition 10: incoming interactions that began no later than T *)
  let t = mk () in
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ());
  ignore (Trace.add_node t ~id:"f1" ~node_type:"file" ());
  ignore (Trace.add_node t ~id:"f2" ~node_type:"file" ());
  ignore (Trace.add_edge t ~label:"readFrom" ~src:"f1" ~dst:"p1" ~time:(Interval.make 2 4));
  ignore (Trace.add_edge t ~label:"readFrom" ~src:"f2" ~dst:"p1" ~time:(Interval.make 6 8));
  Alcotest.(check (list string)) "state at 1 empty" [] (Trace.state t "p1" ~at:1);
  Alcotest.(check (list string)) "state at 4" [ "f1" ] (Trace.state t "p1" ~at:4);
  Alcotest.(check (list string)) "state at 7 has both" [ "f1"; "f2" ]
    (List.sort compare (Trace.state t "p1" ~at:7))

let test_dependency_registry () =
  let t = mk () in
  ignore (Trace.add_node t ~id:"t1" ~node_type:"tuple" ());
  ignore (Trace.add_node t ~id:"t2" ~node_type:"tuple" ());
  ignore (Trace.add_node t ~id:"p" ~node_type:"process" ());
  Trace.add_dependency t ~later:"t2" ~earlier:"t1";
  Trace.add_dependency t ~later:"t2" ~earlier:"t1" (* dedup *);
  Alcotest.(check (list string)) "deps recorded" [ "t1" ] (Trace.direct_deps_of t "t2");
  Alcotest.(check bool) "has_direct_dep" true
    (Trace.has_direct_dep t ~later:"t2" ~earlier:"t1");
  Alcotest.(check bool) "activity endpoint rejected" true
    (try
       Trace.add_dependency t ~later:"t2" ~earlier:"p";
       false
     with Invalid_argument _ -> true)

let build_rich_trace () =
  let t = mk () in
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ~label:"app[1]"
            ~attrs:[ ("pid", "1"); ("weird", "a\tb\nc") ] ());
  ignore (Trace.add_node t ~id:"f1" ~node_type:"file" ());
  ignore (Trace.add_node t ~id:"q1" ~node_type:"query" ());
  ignore (Trace.add_node t ~id:"t1" ~node_type:"tuple" ());
  ignore (Trace.add_edge t ~label:"readFrom" ~src:"f1" ~dst:"p1" ~time:(Interval.make 1 6));
  ignore (Trace.add_edge t ~label:"run" ~src:"p1" ~dst:"q1" ~time:(Interval.point 7));
  ignore (Trace.add_edge t ~label:"hasRead" ~src:"t1" ~dst:"q1" ~time:(Interval.point 7));
  Trace.add_dependency t ~later:"t1" ~earlier:"t1" |> ignore;
  t

let test_serialize_roundtrip () =
  let t = build_rich_trace () in
  let data = Trace.serialize t in
  let t' = Trace.deserialize Combined.model data in
  Alcotest.(check int) "nodes survive" (Trace.node_count t) (Trace.node_count t');
  Alcotest.(check int) "edges survive" (Trace.edge_count t) (Trace.edge_count t');
  let n = Trace.node_exn t' "p1" in
  Alcotest.(check string) "label survives" "app[1]" n.Trace.label;
  Alcotest.(check (option string)) "attr with tab/newline survives"
    (Some "a\tb\nc")
    (List.assoc_opt "weird" n.Trace.attrs);
  Alcotest.(check (list string)) "deps survive" [ "t1" ]
    (Trace.direct_deps_of t' "t1");
  (* double roundtrip is stable *)
  Alcotest.(check string) "serialize fixpoint" (Trace.serialize t')
    (Trace.serialize (Trace.deserialize Combined.model (Trace.serialize t')))

let raises f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let test_indexed_api_rejects () =
  let t = mk () in
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ());
  ignore (Trace.add_node t ~id:"f1" ~node_type:"file" ());
  ignore (Trace.add_node t ~id:"t1" ~node_type:"tuple" ());
  let p = Trace.index_of t "p1" and f = Trace.index_of t "f1" in
  let tu = Trace.index_of t "t1" in
  let time = Interval.point 1 in
  Alcotest.(check bool) "unknown id has no index" true
    (raises (fun () -> ignore (Trace.index_of t "ghost")));
  Alcotest.(check bool) "disallowed edge type" true
    (raises (fun () ->
         ignore (Trace.add_edge_ix t ~label:"readFrom" ~src:p ~dst:f ~time)));
  Alcotest.(check bool) "unknown edge index" true
    (raises (fun () ->
         ignore (Trace.add_edge_ix t ~label:"readFrom" ~src:f ~dst:3 ~time)));
  Alcotest.(check bool) "negative edge index" true
    (raises (fun () ->
         ignore (Trace.add_edge_ix t ~label:"readFrom" ~src:(-1) ~dst:p ~time)));
  Alcotest.(check bool) "non-entity dependency" true
    (raises (fun () -> Trace.add_dependency_ix t ~later:tu ~earlier:p));
  Alcotest.(check bool) "unknown dependency index" true
    (raises (fun () -> Trace.add_dependency_ix t ~later:tu ~earlier:99));
  Alcotest.(check int) "rejected inputs added nothing" 0 (Trace.edge_count t);
  Alcotest.(check (list string)) "no dependency registered" []
    (Trace.direct_deps_of t "t1")

let test_indexed_adjacency_newest_first () =
  let t = mk () in
  ignore (Trace.add_node t ~id:"p1" ~node_type:"process" ());
  ignore (Trace.add_node t ~id:"f1" ~node_type:"file" ());
  ignore (Trace.add_node t ~id:"f2" ~node_type:"file" ());
  let ix = Trace.index_of t in
  ignore
    (Trace.add_edge_ix t ~label:"readFrom" ~src:(ix "f1") ~dst:(ix "p1")
       ~time:(Interval.point 1));
  ignore
    (Trace.add_edge t ~label:"readFrom" ~src:"f2" ~dst:"p1"
       ~time:(Interval.point 2));
  ignore
    (Trace.add_edge_ix t ~label:"hasWritten" ~src:(ix "p1") ~dst:(ix "f1")
       ~time:(Interval.point 3));
  ignore
    (Trace.add_edge_ix t ~label:"hasWritten" ~src:(ix "p1") ~dst:(ix "f2")
       ~time:(Interval.point 4));
  let srcs es = List.map (fun (e : Trace.edge) -> e.Trace.src) es in
  let dsts es = List.map (fun (e : Trace.edge) -> e.Trace.dst) es in
  Alcotest.(check (list string)) "in_edges newest first" [ "f2"; "f1" ]
    (srcs (Trace.in_edges t "p1"));
  Alcotest.(check (list string)) "out_edges newest first" [ "f2"; "f1" ]
    (dsts (Trace.out_edges t "p1"));
  Alcotest.(check (list int)) "edges oldest first" [ 1; 2; 3; 4 ]
    (List.map (fun (e : Trace.edge) -> Interval.b e.Trace.time) (Trace.edges t))

(* A trace of [n] files and processes with edges and dependencies among
   them, built through the indexed API. *)
let big_trace n =
  let t = mk () in
  for i = 0 to n - 1 do
    ignore (Trace.add_node t ~id:(Printf.sprintf "f%d" i) ~node_type:"file" ());
    ignore
      (Trace.add_node t ~id:(Printf.sprintf "p%d" i) ~node_type:"process" ())
  done;
  let ix fmt i = Trace.index_of t (Printf.sprintf fmt i) in
  for i = 0 to n - 1 do
    ignore
      (Trace.add_edge_ix t ~label:"readFrom" ~src:(ix "f%d" i)
         ~dst:(ix "p%d" ((i * 7) mod n))
         ~time:(Interval.make i (i + 2)));
    Trace.add_dependency_ix t ~later:(ix "f%d" i)
      ~earlier:(ix "f%d" ((i * 13) mod n))
  done;
  t

let test_growth_past_capacity () =
  let n = 700 in
  let t = big_trace n in
  Alcotest.(check int) "all nodes kept" (2 * n) (Trace.node_count t);
  Alcotest.(check int) "indices follow insertion order" 1001
    (Trace.index_of t "p500");
  Alcotest.(check string) "node at a grown index" "f699"
    (Trace.node_exn t "f699").Trace.id;
  Alcotest.(check (list string)) "adjacency of an early node survives growth"
    [ "f600"; "f500"; "f400"; "f300"; "f200"; "f100"; "f0" ]
    (List.map (fun (e : Trace.edge) -> e.Trace.src) (Trace.in_edges t "p0"));
  Alcotest.(check (list string)) "dependency of a late node" [ "f687" ]
    (Trace.direct_deps_of t "f699");
  Alcotest.(check bool) "has_direct_dep" true
    (Trace.has_direct_dep t ~later:"f699" ~earlier:"f687")

(* [nodes] enumerates in the iteration order of an id-keyed Hashtbl of the
   initial size, filled in insertion order. *)
let test_nodes_order () =
  let t = big_trace 300 in
  let reference = Hashtbl.create 256 in
  for i = 0 to 299 do
    Hashtbl.replace reference (Printf.sprintf "f%d" i) ();
    Hashtbl.replace reference (Printf.sprintf "p%d" i) ()
  done;
  Alcotest.(check (list string)) "order of an id-keyed table"
    (Hashtbl.fold (fun id () acc -> id :: acc) reference [])
    (List.map (fun (n : Trace.node) -> n.Trace.id) (Trace.nodes t))

(* Deserialization re-adds nodes in id order, so what survives is the node
   set, the edge sequence, each node's adjacency, and each dependency set. *)
let test_indexed_roundtrip () =
  let t = big_trace 400 in
  let t' = Trace.deserialize Combined.model (Trace.serialize t) in
  let ids t =
    List.sort String.compare
      (List.map (fun (n : Trace.node) -> n.Trace.id) (Trace.nodes t))
  in
  Alcotest.(check (list string)) "nodes" (ids t) (ids t');
  let show (e : Trace.edge) =
    Printf.sprintf "%s %s->%s %s" e.Trace.elabel e.Trace.src e.Trace.dst
      (Interval.to_string e.Trace.time)
  in
  let same name f id =
    Alcotest.(check (list string)) (name ^ " " ^ id) (f t id) (f t' id)
  in
  Alcotest.(check (list string)) "edges" (List.map show (Trace.edges t))
    (List.map show (Trace.edges t'));
  List.iter
    (fun id ->
      same "in_edges" (fun t id -> List.map show (Trace.in_edges t id)) id;
      same "out_edges" (fun t id -> List.map show (Trace.out_edges t id)) id;
      same "deps"
        (fun t id -> List.sort String.compare (Trace.direct_deps_of t id))
        id)
    (ids t)

let tid_roundtrip =
  let gen =
    QCheck.Gen.(
      map3
        (fun table rid version -> Minidb.Tid.make ~table ~rid ~version)
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 12))
        int int)
  in
  QCheck.Test.make ~name:"tid to_string/of_string roundtrip" ~count:500
    (QCheck.make ~print:Minidb.Tid.to_string gen) (fun tid ->
      let s = Minidb.Tid.to_string tid in
      String.equal s (Format.asprintf "%a" Minidb.Tid.pp tid)
      && Option.equal Minidb.Tid.equal (Minidb.Tid.of_string s) (Some tid))

let suite =
  [ Alcotest.test_case "node validation" `Quick test_add_node_validation;
    Alcotest.test_case "edge validation" `Quick test_add_edge_validation;
    Alcotest.test_case "adjacency" `Quick test_adjacency;
    Alcotest.test_case "state (Def. 10)" `Quick test_state;
    Alcotest.test_case "dependency registry" `Quick test_dependency_registry;
    Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
    Alcotest.test_case "indexed API rejects" `Quick test_indexed_api_rejects;
    Alcotest.test_case "indexed adjacency newest first" `Quick
      test_indexed_adjacency_newest_first;
    Alcotest.test_case "growth past capacity" `Quick test_growth_past_capacity;
    Alcotest.test_case "nodes order" `Quick test_nodes_order;
    Alcotest.test_case "indexed roundtrip" `Quick test_indexed_roundtrip;
    QCheck_alcotest.to_alcotest tid_roundtrip ]

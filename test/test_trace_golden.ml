(* Golden digests of every rendering of the provenance traces built from
   fixed, seeded audits. Q3-1 (3-way join + COUNT) carries thousands of
   lineage dependencies on a handful of result tuples; Q1-1 (selective
   scan) registers dependencies on over a thousand distinct result tuples,
   so the Hashtbl-ordered node and dependency output is exercised across
   many table resizes. A change to how traces are stored or built must
   leave all of them byte-identical. *)

open Ldv_core

let digest s = Digest.to_hex (Digest.string s)

(* The fixture's program runs under a fixed name: the process label lands
   in the trace, so it must not depend on which tests ran before. *)
let golden_audit ~vid ~app_name =
  lazy
    (let kernel, server, _cfg, binary, program, _registered =
       Ldv_fixtures.make_setup ~vid ~n_insert:6 ~n_update:3 ~n_select:2 ()
     in
     Audit.run ~packaging:Audit.Included kernel server ~app_name
       ~app_binary:binary ~app_libs:Tpch.Workload.app_libs program)

let q3 = golden_audit ~vid:"Q3-1" ~app_name:"golden-q3"
let q1 = golden_audit ~vid:"Q1-1" ~app_name:"golden-q1"

let node_ids trace =
  String.concat "\n"
    (List.map (fun (n : Prov.Trace.node) -> n.Prov.Trace.id)
       (Prov.Trace.nodes trace))

let check name expected s =
  Alcotest.(check string) name expected (digest s)

let test_full_trace () =
  let audit = Lazy.force q3 in
  let full = Audit.build_trace audit.Audit.tracer (Audit.stmts audit) in
  Alcotest.(check string) "the audit's own trace is the rebuilt one"
    (Prov.Trace.serialize audit.Audit.trace)
    (Prov.Trace.serialize full);
  check "full serialize" "9e6e193347345ae37d81400636ec5ced"
    (Prov.Trace.serialize full);
  check "full nodes order" "dfb63f15705e2dba7e973c8454d5ab41" (node_ids full);
  check "full dot" "006dd812026fa799def05dbe9e72193e" (Prov.Dot.to_dot full);
  check "full prov-json" "5d0a2bcb2f69361c0e746e595b72c813"
    (Prov.Prov_export.to_prov_json full);
  check "full prov-n" "8089b8ebed9d72de47ce358a8b7440b9"
    (Prov.Prov_export.to_prov_n full)

let test_compact_trace () =
  let audit = Lazy.force q3 in
  let compact = Audit.compact_trace audit in
  check "compact serialize" "66db859f983ca4e71a7361627974003f"
    (Prov.Trace.serialize compact);
  check "compact dot" "1387fa6426e7c1e78db2332c089f279b"
    (Prov.Dot.to_dot compact);
  check "compact prov-json" "00abe83d0a7d7c0b2193b92756ad2f60"
    (Prov.Prov_export.to_prov_json compact)

let test_q1_traces () =
  let audit = Lazy.force q1 in
  check "full serialize" "dfc09ddf03d84811cbe121aadd7aedbb"
    (Prov.Trace.serialize audit.Audit.trace);
  check "full nodes order" "e95544fa302de7e077830d11bac4ccf1"
    (node_ids audit.Audit.trace);
  check "compact serialize" "bb8fbf29b5180bf40f0fe3a6f0bc091e"
    (Prov.Trace.serialize (Audit.compact_trace audit))

let suite =
  [ Alcotest.test_case "Q3-1 full trace digests" `Quick test_full_trace;
    Alcotest.test_case "Q3-1 compact trace digests" `Quick test_compact_trace;
    Alcotest.test_case "Q1-1 trace digests" `Quick test_q1_traces ]

open Minidb

let tid table rid = Tid.make ~table ~rid ~version:1

let a = tid "t" 1
let b = tid "t" 2
let c = tid "u" 1

let poly = Alcotest.testable (Fmt.of_to_string Annotation.to_string) Annotation.equal

let test_normal_form () =
  let open Annotation in
  Alcotest.check poly "x + x has coefficient 2" (mul (of_int 2) (var a))
    (add (var a) (var a));
  Alcotest.check poly "x*y = y*x" (mul (var a) (var b)) (mul (var b) (var a));
  Alcotest.check poly "p + 0 = p" (var a) (add (var a) zero);
  Alcotest.check poly "p * 1 = p" (var a) (mul (var a) one);
  Alcotest.check poly "p * 0 = 0" zero (mul (var a) zero);
  Alcotest.check poly "x - coeff cancels" zero
    (add (var a) (mul (of_int (-1)) (var a)))

let test_sum_matches_folded_add () =
  let open Annotation in
  let ps = [ var a; mul (var a) (var b); var c; var a; one ] in
  Alcotest.check poly "sum = fold add"
    (List.fold_left add zero ps)
    (sum ps)

let test_lineage () =
  let open Annotation in
  let p = add (mul (var a) (var b)) (var c) in
  Alcotest.(check int) "lineage cardinality" 3 (Lineage.cardinal (lineage p));
  Alcotest.(check bool) "lineage membership" true (Lineage.mem c (lineage p))

let test_why () =
  let open Annotation in
  let p = add (mul (var a) (var b)) (var c) in
  Alcotest.(check int) "two witnesses" 2 (List.length (why p));
  let p2 = add (var a) (mul (var a) (var a)) in
  (* {a} appears once deduplicated *)
  Alcotest.(check int) "witnesses dedup" 1 (List.length (why p2))

let test_derivation_count () =
  let open Annotation in
  let p = add (add (var a) (var a)) (mul (var b) (var c)) in
  Alcotest.(check int) "three derivations" 3 (derivation_count p)

let test_eval_homomorphism () =
  let open Annotation in
  (* evaluating under Nat with all-ones assignment = derivation count *)
  let p = add (mul (var a) (var b)) (mul (of_int 2) (var c)) in
  let n = eval (module Nat_semiring) (fun _ -> 1) p in
  Alcotest.(check int) "nat eval = derivation count" (derivation_count p) n;
  (* boolean eval: true iff some monomial is all-true *)
  let bl = eval (module Bool_semiring) (fun t -> Tid.equal t c) p in
  Alcotest.(check bool) "bool eval finds the c monomial" true bl;
  let bl2 = eval (module Bool_semiring) (fun t -> Tid.equal t a) p in
  Alcotest.(check bool) "a alone is not a witness" false bl2

let test_tropical () =
  let open Annotation in
  (* cheapest derivation: min over monomials of the sum of var costs *)
  let p = add (mul (var a) (var b)) (var c) in
  let cost t = if Tid.equal t c then Some 10 else Some 2 in
  Alcotest.(check (option int)) "min cost path" (Some 4)
    (eval (module Tropical_semiring) cost p)

let test_cancellation () =
  let open Annotation in
  let cancelled = add (var a) (mul (of_int (-1)) (var a)) in
  Alcotest.(check bool) "x + (-1)*x is zero" true (is_zero cancelled);
  Alcotest.(check int) "x + (-1)*x has empty lineage" 0
    (Lineage.cardinal (lineage cancelled));
  Alcotest.check poly "x + (-1)*x = 0" zero cancelled;
  let p = add (mul (var b) cancelled) (var c) in
  Alcotest.(check (list string)) "a cancelled factor drops its variables"
    [ Tid.to_string c ]
    (List.map Tid.to_string (Lineage.elements (lineage p)))

let test_shared_subcircuits () =
  let open Annotation in
  let s = sum [ var a; var b ] in
  let p = mul s (add s (var c)) in
  let names q = List.map Tid.to_string (Lineage.elements (lineage q)) in
  Alcotest.(check (list string)) "shared sum counted once"
    (List.map Tid.to_string [ a; b; c ]) (names p);
  (* a later walk must not see the earlier walk's visited marks *)
  Alcotest.(check (list string)) "sub-circuit after its parent"
    (List.map Tid.to_string [ a; b ]) (names s);
  Alcotest.(check (list string)) "same circuit twice" (names (mul s (var c)))
    (names p);
  Alcotest.(check int) "(a+b)(a+b+c) has 6 derivations" 6 (derivation_count p)

let test_lineage_semiring_agrees () =
  let open Annotation in
  let p = add (mul (var a) (var b)) (var c) in
  let le = eval (module Lineage_semiring) (fun t -> Lineage_semiring.Set (Tid.Set.singleton t)) p in
  match le with
  | Lineage_semiring.Set s ->
    Alcotest.(check bool) "lineage semiring = syntactic lineage" true
      (Tid.Set.equal s (Lineage.to_set (lineage p)))
  | Lineage_semiring.Bottom -> Alcotest.fail "expected a set"

(* ------------------------------------------------------------------ *)
(* Property tests: the polynomials form a commutative semiring.        *)

let tid_gen =
  QCheck.Gen.(
    map2 (fun t r -> Tid.make ~table:(String.make 1 t) ~rid:r ~version:1)
      (char_range 'a' 'c') (int_range 1 3))

let poly_gen =
  QCheck.Gen.(
    let base =
      oneof
        [ return Annotation.zero;
          return Annotation.one;
          map Annotation.var tid_gen;
          (* coefficients stay in N so that evaluation into arbitrary
             semirings (which have no subtraction) is a homomorphism *)
          map Annotation.of_int (int_range 0 3) ]
    in
    let rec go n =
      if n = 0 then base
      else
        frequency
          [ (2, base);
            (2, map2 Annotation.add (go (n - 1)) (go (n - 1)));
            (2, map2 Annotation.mul (go (n - 1)) (go (n - 1))) ]
    in
    go 3)

(* Signed circuits: constants may be negative (outside N[X], so monomials
   can cancel), [p + (-1)*p] builds zeros that are not the [zero]
   constructor, and [p*p] / [p+p] share one sub-circuit. *)
let signed_poly_gen =
  QCheck.Gen.(
    let base =
      oneof
        [ return Annotation.zero;
          return Annotation.one;
          map Annotation.var tid_gen;
          map Annotation.of_int (int_range (-3) 3) ]
    in
    let rec go n =
      if n = 0 then base
      else
        let sub = go (n - 1) in
        frequency
          [ (2, base);
            (2, map2 Annotation.add sub sub);
            (2, map2 Annotation.mul sub sub);
            (1, map (fun p ->
                     Annotation.(add p (mul (of_int (-1)) p))) sub);
            (1, map (fun p -> Annotation.mul p p) sub);
            (1, map (fun p -> Annotation.add p p) sub) ]
    in
    go 3)

let arb_poly = QCheck.make ~print:Annotation.to_string poly_gen
let arb2 = QCheck.pair arb_poly arb_poly
let arb3 = QCheck.triple arb_poly arb_poly arb_poly

let prop name count arb f = QCheck.Test.make ~name ~count arb f

let semiring_laws =
  let open Annotation in
  [ prop "add commutative" 200 arb2 (fun (p, q) -> equal (add p q) (add q p));
    prop "add associative" 200 arb3 (fun (p, q, r) ->
        equal (add (add p q) r) (add p (add q r)));
    prop "mul commutative" 200 arb2 (fun (p, q) -> equal (mul p q) (mul q p));
    prop "mul associative" 100 arb3 (fun (p, q, r) ->
        equal (mul (mul p q) r) (mul p (mul q r)));
    prop "mul distributes over add" 100 arb3 (fun (p, q, r) ->
        equal (mul p (add q r)) (add (mul p q) (mul p r)));
    prop "zero annihilates" 200 arb_poly (fun p -> equal (mul p zero) zero);
    prop "one is identity" 200 arb_poly (fun p -> equal (mul p one) p);
    prop "lineage(p*q) = lineage p U lineage q (p,q nonzero)" 200 arb2
      (fun (p, q) ->
        if is_zero p || is_zero q then QCheck.assume_fail ()
        else
          Tid.Set.equal
            (Lineage.to_set (lineage (mul p q)))
            (Tid.Set.union (Lineage.to_set (lineage p))
               (Lineage.to_set (lineage q))));
    prop "eval is additive homomorphism (Nat)" 200 arb2 (fun (p, q) ->
        let f _ = 2 in
        eval (module Nat_semiring) f (add p q)
        = eval (module Nat_semiring) f p + eval (module Nat_semiring) f q);
    prop "eval is multiplicative homomorphism (Nat)" 100 arb2 (fun (p, q) ->
        let f _ = 2 in
        eval (module Nat_semiring) f (mul p q)
        = eval (module Nat_semiring) f p * eval (module Nat_semiring) f q);
    prop "sum = iterated add" 100 (QCheck.list_of_size (QCheck.Gen.int_bound 8) arb_poly)
      (fun ps -> equal (sum ps) (List.fold_left add zero ps)) ]

(* The circuit answers [lineage], [is_zero] and comparisons with [zero]
   and [one] without expanding the polynomial; the normal form behind
   [why] and [to_string] is the reference they must agree with. *)
let circuit_vs_normal_form =
  let open Annotation in
  let arb = QCheck.make ~print:to_string signed_poly_gen in
  [ prop "lineage p = union of why p" 300 arb (fun p ->
        Tid.Set.equal
          (Lineage.to_set (lineage p))
          (List.fold_left Tid.Set.union Tid.Set.empty (why p)));
    (* a product of nonzero polynomials over Z[X] is nonzero and keeps
       every variable of both factors, so the law holds with signs too *)
    prop "lineage(p*q) = lineage p U lineage q (signed)" 300
      (QCheck.pair arb arb) (fun (p, q) ->
        if is_zero p || is_zero q then QCheck.assume_fail ()
        else
          Tid.Set.equal
            (Lineage.to_set (lineage (mul p q)))
            (Tid.Set.union (Lineage.to_set (lineage p))
               (Lineage.to_set (lineage q))));
    prop "is_zero p iff why p = []" 300 arb (fun p ->
        is_zero p = (why p = []));
    prop "equal to zero/one agrees with the normal form" 300 arb (fun p ->
        equal p zero = (to_string p = "0")
        && equal zero p = (to_string p = "0")
        && equal p one = (to_string p = "1")
        && equal one p = (to_string p = "1")) ]

let suite =
  [ Alcotest.test_case "normal form" `Quick test_normal_form;
    Alcotest.test_case "sum matches folded add" `Quick test_sum_matches_folded_add;
    Alcotest.test_case "lineage" `Quick test_lineage;
    Alcotest.test_case "why provenance" `Quick test_why;
    Alcotest.test_case "derivation count" `Quick test_derivation_count;
    Alcotest.test_case "eval homomorphism" `Quick test_eval_homomorphism;
    Alcotest.test_case "tropical semiring" `Quick test_tropical;
    Alcotest.test_case "lineage semiring" `Quick test_lineage_semiring_agrees;
    Alcotest.test_case "cancellation" `Quick test_cancellation;
    Alcotest.test_case "shared sub-circuits" `Quick test_shared_subcircuits ]
  @ List.map QCheck_alcotest.to_alcotest
      (semiring_laws @ circuit_vs_normal_form)

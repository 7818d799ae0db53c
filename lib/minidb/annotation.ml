(** Provenance annotations: the N[X] semiring of provenance polynomials,
    represented as provenance circuits.

    Following the semiring annotation framework (Green et al.; the paper's
    §VI-A), every base tuple carries the indeterminate [var tid] and the
    executor propagates annotations through operators: joins multiply,
    union/duplicate-elimination/aggregation-grouping add.

    As in ProvSQL (Sen, Maniu, Senellart), an annotation is a gate of a
    circuit whose sub-circuits are shared: a join output's product gate
    points at its inputs' gates instead of copying their monomials. Every
    constructor allocates at most one gate; [zero] absorbs and [one] is
    neutral, so on circuits without negative constants a gate is
    semantically zero (one) exactly when it is the [Zero] ([One])
    constructor.

    The polynomial's normal form (a sorted sum of monomials with collected
    coefficients, module [Nf]) is the reference semantics. It makes
    equality decidable and is expanded only where a caller needs the
    polynomial itself: [equal], [why], [derivation_count], [pp] and [eval].
    Lineage — the set of base tuples a result depends on (Definition 7) —
    is read off the circuit in one walk. *)

(* ------------------------------------------------------------------ *)
(* Normal form: the reference semantics.                               *)

module Nf = struct
  (** A monomial is a coefficient and a sorted multiset of variables with
      positive exponents. *)
  type mono = { coeff : int; vars : (Tid.t * int) list }

  (** A polynomial in normal form: monomials sorted by their variable part,
      no duplicate variable parts, no zero coefficients. *)
  type t = mono list

  let zero : t = []
  let one : t = [ { coeff = 1; vars = [] } ]
  let var tid : t = [ { coeff = 1; vars = [ (tid, 1) ] } ]
  let of_int n : t = if n = 0 then [] else [ { coeff = n; vars = [] } ]

  let compare_vars = List.compare (fun (a, i) (b, j) ->
      match Tid.compare a b with 0 -> Int.compare i j | c -> c)

  (* Merge-add two normalized polynomials. *)
  let add (p : t) (q : t) : t =
    let rec go p q =
      match (p, q) with
      | [], r | r, [] -> r
      | m :: p', n :: q' -> (
        match compare_vars m.vars n.vars with
        | 0 ->
          let c = m.coeff + n.coeff in
          if c = 0 then go p' q' else { m with coeff = c } :: go p' q'
        | c when c < 0 -> m :: go p' q
        | _ -> n :: go p q')
    in
    go p q

  (** Sum a list of polynomials in O(N log N) (folding [add] pairwise is
      quadratic in the number of monomials — aggregation over large groups
      needs this). *)
  let sum (ps : t list) : t =
    let monos = List.concat ps in
    let sorted =
      List.sort (fun (m : mono) (n : mono) -> compare_vars m.vars n.vars) monos
    in
    let flush acc = function
      | Some m when m.coeff <> 0 -> m :: acc
      | _ -> acc
    in
    let acc, pending =
      List.fold_left
        (fun (acc, pending) (n : mono) ->
          match pending with
          | Some m when compare_vars m.vars n.vars = 0 ->
            (acc, Some { m with coeff = m.coeff + n.coeff })
          | _ -> (flush acc pending, Some n))
        ([], None) sorted
    in
    List.rev (flush acc pending)

  (* Multiply two monomials: multiply coefficients, merge variable multisets
     adding exponents. *)
  let mul_mono m n =
    let rec merge a b =
      match (a, b) with
      | [], r | r, [] -> r
      | (x, i) :: a', (y, j) :: b' -> (
        match Tid.compare x y with
        | 0 -> (x, i + j) :: merge a' b'
        | c when c < 0 -> (x, i) :: merge a' b
        | _ -> (y, j) :: merge a b')
    in
    { coeff = m.coeff * n.coeff; vars = merge m.vars n.vars }

  let mul (p : t) (q : t) : t =
    List.fold_left
      (fun acc m ->
        List.fold_left (fun acc n -> add acc [ mul_mono m n ]) acc q)
      zero p

  let equal (p : t) (q : t) =
    List.length p = List.length q
    && List.for_all2
         (fun m n -> m.coeff = n.coeff && compare_vars m.vars n.vars = 0)
         p q

  let variables (p : t) : Tid.t list =
    List.concat_map (fun m -> List.map fst m.vars) p
end

(* ------------------------------------------------------------------ *)
(* Circuits.                                                           *)

(** A circuit gate. [neg] records whether a negative constant occurs
    below the gate: only then can monomials cancel, so that the gate's
    variables or its being [Zero] no longer follow from its shape. [mark]
    lets a walk visit each shared gate once. *)
type t =
  | Zero
  | One
  | Const of int  (** never 0 or 1: those are [Zero] and [One] *)
  | Var of Tid.t
  | Add of { terms : t array; neg : bool; mutable mark : int }
      (** at least two terms, none of them [Zero] *)
  | Mul of { l : t; r : t; neg : bool; mutable mark : int }
      (** neither factor is [Zero] or [One] *)

let neg = function
  | Zero | One | Var _ -> false
  | Const n -> n < 0
  | Add g -> g.neg
  | Mul g -> g.neg

let zero = Zero
let one = One
let var tid = Var tid
let of_int = function 0 -> Zero | 1 -> One | n -> Const n

(** [sum ps] allocates one gate however long [ps] is, so aggregating a
    large group costs O(group size). *)
let sum (ps : t list) : t =
  match List.filter (function Zero -> false | _ -> true) ps with
  | [] -> Zero
  | [ p ] -> p
  | ps ->
    let terms = Array.of_list ps in
    Add { terms; neg = Array.exists neg terms; mark = 0 }

let add p q = sum [ p; q ]

let mul p q =
  match (p, q) with
  | Zero, _ | _, Zero -> Zero
  | One, r | r, One -> r
  | _ -> Mul { l = p; r = q; neg = neg p || neg q; mark = 0 }

(* Expand a circuit into its normal form. Shared sub-circuits are expanded
   once per path: callers that need the polynomial pay for its size. *)
let rec normalize : t -> Nf.t = function
  | Zero -> Nf.zero
  | One -> Nf.one
  | Const n -> Nf.of_int n
  | Var v -> Nf.var v
  | Add g -> Nf.sum (List.map normalize (Array.to_list g.terms))
  | Mul g -> Nf.mul (normalize g.l) (normalize g.r)

(* Without negative constants [Zero] and [One] are the only circuits for
   0 and 1 (see the header), so comparing against either is a constructor
   check; anything else compares normal forms. *)
let equal p q =
  p == q
  ||
  match (p, q) with
  | (Zero | One), _ | _, (Zero | One) when not (neg p || neg q) -> false
  | _ -> Nf.equal (normalize p) (normalize q)

let is_zero p =
  match p with
  | Zero -> true
  | p when neg p -> normalize p = []
  | _ -> false

(* Each walk takes a fresh epoch, so marks left by earlier walks never read
   as visited. *)
let epoch = ref 0

(** All variables occurring in the polynomial: the Lineage of the annotated
    tuple (Definition 7's [Lin]). Without negative constants nothing
    cancels, so these are the circuit's variables: one walk visiting each
    gate once and appending each variable to its table's int buffer, then
    one sort per buffer. A lone variable needs no buffer. *)
let lineage (p : t) : Lineage.t =
  match p with
  | Var v -> Lineage.singleton v
  | p when neg p -> Lineage.of_tids (Nf.variables (normalize p))
  | p ->
    incr epoch;
    let e = !epoch in
    let vars = Lineage.builder () in
    let rec go = function
      | Zero | One | Const _ -> ()
      | Var v -> Lineage.add vars v
      | Add g ->
        if g.mark <> e then begin
          g.mark <- e;
          Array.iter go g.terms
        end
      | Mul g ->
        if g.mark <> e then begin
          g.mark <- e;
          go g.l;
          go g.r
        end
    in
    go p;
    Lineage.build vars

(** Why-provenance: the witness sets, one per distinct monomial. *)
let why (p : t) : Tid.Set.t list =
  List.map (fun (m : Nf.mono) -> Tid.Set.of_list (List.map fst m.vars))
    (normalize p)
  |> List.sort_uniq Tid.Set.compare

(** Number of derivations when every base tuple has multiplicity 1: evaluate
    the polynomial under the all-ones assignment. *)
let derivation_count (p : t) : int =
  List.fold_left (fun acc (m : Nf.mono) -> acc + m.coeff) 0 (normalize p)

let pp ppf (p : t) =
  let pp_mono ppf (m : Nf.mono) =
    if m.vars = [] then Format.pp_print_int ppf m.coeff
    else begin
      if m.coeff <> 1 then Format.fprintf ppf "%d*" m.coeff;
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "*")
        (fun ppf (v, e) ->
          if e = 1 then Tid.pp ppf v else Format.fprintf ppf "%a^%d" Tid.pp v e)
        ppf m.vars
    end
  in
  match normalize p with
  | [] -> Format.pp_print_string ppf "0"
  | nf ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " + ")
      pp_mono ppf nf

let to_string p = Format.asprintf "%a" pp p

(** A commutative semiring, for evaluating polynomials under alternative
    provenance semantics. *)
module type SEMIRING = sig
  type elt

  val zero : elt
  val one : elt
  val add : elt -> elt -> elt
  val mul : elt -> elt -> elt
  val equal : elt -> elt -> bool
end

(** Evaluate polynomial [p] under assignment [f] in semiring [S]
    (the unique semiring homomorphism extending [f]). *)
let eval (type a) (module S : SEMIRING with type elt = a) (f : Tid.t -> a)
    (p : t) : a =
  let pow base e =
    let rec go acc e = if e = 0 then acc else go (S.mul acc base) (e - 1) in
    go S.one e
  in
  let nat n =
    (* semirings have no additive inverses: evaluation is only defined for
       N[X] polynomials *)
    if n < 0 then
      invalid_arg "Annotation.eval: negative coefficient outside N[X]";
    let rec go acc n = if n = 0 then acc else go (S.add acc S.one) (n - 1) in
    go S.zero n
  in
  List.fold_left
    (fun acc (m : Nf.mono) ->
      let mv =
        List.fold_left (fun acc (v, e) -> S.mul acc (pow (f v) e)) S.one m.vars
      in
      S.add acc (S.mul (nat m.coeff) mv))
    S.zero (normalize p)

(** The boolean semiring: evaluates to set-semantics membership. *)
module Bool_semiring = struct
  type elt = bool

  let zero = false
  let one = true
  let add = ( || )
  let mul = ( && )
  let equal = Bool.equal
end

(** The counting semiring (natural numbers): bag-semantics multiplicity. *)
module Nat_semiring = struct
  type elt = int

  let zero = 0
  let one = 1
  let add = ( + )
  let mul = ( * )
  let equal = Int.equal
end

(** The tropical semiring (min, +) over int-with-infinity: cost of the
    cheapest derivation. *)
module Tropical_semiring = struct
  type elt = int option  (** [None] is +infinity *)

  let zero = None
  let one = Some 0

  let add a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)

  let mul a b =
    match (a, b) with
    | None, _ | _, None -> None
    | Some a, Some b -> Some (a + b)

  let equal = Option.equal Int.equal
end

(** The Lineage semiring over a fixed variable universe: sets of variables
    where both [add] and [mul] are union (with the usual 0/1 adjustments
    absorbed by representing 0 as a distinguished bottom). *)
module Lineage_semiring = struct
  type elt = Bottom | Set of Tid.Set.t

  let zero = Bottom
  let one = Set Tid.Set.empty

  let add a b =
    match (a, b) with
    | Bottom, x | x, Bottom -> x
    | Set a, Set b -> Set (Tid.Set.union a b)

  let mul a b =
    match (a, b) with
    | Bottom, _ | _, Bottom -> Bottom
    | Set a, Set b -> Set (Tid.Set.union a b)

  let equal a b =
    match (a, b) with
    | Bottom, Bottom -> true
    | Set a, Set b -> Tid.Set.equal a b
    | Bottom, Set _ | Set _, Bottom -> false
end

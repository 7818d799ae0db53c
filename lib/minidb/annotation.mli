(** Provenance annotations: the N[X] semiring of provenance polynomials.

    Following the semiring annotation framework (Green et al.; the paper's
    §VI-A), every base tuple carries the indeterminate [var tid] and the
    executor propagates annotations through operators: joins multiply,
    union/duplicate-elimination/aggregation-grouping add.

    An annotation is a provenance circuit, as in ProvSQL: the constructors
    below allocate at most one gate each and share their arguments, so a
    query pays nothing for polynomials nobody reads. The polynomial's
    canonical normal form is computed on demand by the functions that need
    the polynomial itself ([equal], [why], [derivation_count], [pp],
    [to_string], [eval]); [equal] is semantic equality.

    Lineage — the set of base tuples a result depends on (Definition 7) —
    and why-provenance are homomorphic images of the polynomial. [lineage]
    and [is_zero] read the circuit directly, expanding it only when a
    negative [of_int] constant (outside N[X]) could cancel monomials. *)

type t

val zero : t
val one : t
val var : Tid.t -> t
val of_int : int -> t

val add : t -> t -> t
val mul : t -> t -> t

(** [sum ps] equals [List.fold_left add zero ps] but allocates a single
    gate — required when aggregating large groups. *)
val sum : t list -> t

(** Semantic equality of the polynomials. O(1) when either side is [zero]
    or [one] and no negative constant occurs; otherwise both normal forms
    are expanded. *)
val equal : t -> t -> bool

val is_zero : t -> bool

(** All variables of the polynomial: the Lineage [Lin] of Definition 7,
    packed. *)
val lineage : t -> Lineage.t

(** Why-provenance: the distinct witness sets, one per monomial. *)
val why : t -> Tid.Set.t list

(** Number of distinct derivations (bag multiplicity) when every base
    tuple has multiplicity 1. *)
val derivation_count : t -> int

(** Prints the normal form. *)
val pp : Format.formatter -> t -> unit
val to_string : t -> string

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

(** [eval (module S) f p] is the image of [p] under the unique semiring
    homomorphism extending the variable assignment [f].
    @raise Invalid_argument on polynomials with negative coefficients
    (semirings have no subtraction). *)
val eval : (module SEMIRING with type elt = 'a) -> (Tid.t -> 'a) -> t -> 'a

module Bool_semiring : SEMIRING with type elt = bool
module Nat_semiring : SEMIRING with type elt = int
module Tropical_semiring : SEMIRING with type elt = int option

module Lineage_semiring : sig
  type elt = Bottom | Set of Tid.Set.t

  include SEMIRING with type elt := elt
end

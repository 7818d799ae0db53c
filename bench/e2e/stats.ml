(* Order statistics, the tail-percentile rule, and the regression
   verdicts of [ldvbench compare]. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median_of_sorted a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so the spreads printed here are the
   ones a reader recomputes from the raw samples. *)
let quartiles_of_sorted a =
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

let summarize (xs : float list) : summary =
  let a = sorted xs in
  let q1, q3 = quartiles_of_sorted a in
  { median = median_of_sorted a; q1; q3; n = Array.length a }

(** Quartile distance as a share of the median (0 for a zero median). *)
let spread (s : summary) =
  if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

(** Nearest-rank percentile [p] (0 < p <= 100) of a sorted sample. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan else a.(max 0 (((p * n) + 99) / 100 - 1))

(** How many of [n] samples lie beyond the nearest-rank percentile [p]. *)
let beyond p n = n - (((p * n) + 99) / 100)

(** Candidate tail percentiles, highest first. *)
let tail_candidates = [ 99; 95; 90; 75; 50 ]

(** The highest candidate percentile with at least ten of [n] samples
    beyond it, if any. *)
let tail_percentile n = List.find_opt (fun p -> beyond p n >= 10) tail_candidates

(** Verdict of one metric between a base run [a] and a new run [b]. *)
type verdict = Same | Improved | Regressed | Unresolved

let verdict_name = function
  | Same -> "same"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"

(** Relative change of [b]'s median against [a]'s, signed so that
    positive is worse. *)
let worsening ~lower_is_better (a : summary) (b : summary) =
  let change =
    if a.median = 0.0 then (if b.median = 0.0 then 0.0 else Float.infinity)
    else (b.median -. a.median) /. Float.abs a.median
  in
  if lower_is_better then change else -.change

(** [bound = 0] means any worsening regresses, whatever the spread (the
    failure fraction). Otherwise a metric whose quartile spread on either
    side, or whose other known [noise] (a share of the median), exceeds
    its bound is unresolved: the runs cannot tell a change of that size
    from noise. *)
let verdict ?(noise = 0.0) ~lower_is_better ~bound (a : summary) (b : summary) :
    verdict =
  let worse = worsening ~lower_is_better a b in
  if bound = 0.0 then
    if worse > 0.0 then Regressed else if worse < 0.0 then Improved else Same
  else if Float.max noise (Float.max (spread a) (spread b)) > bound then Unresolved
  else if worse > bound then Regressed
  else if worse < -.bound then Improved
  else Same

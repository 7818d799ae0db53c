(** Packed lineage: a set of stored tuple versions, held per table as a
    sorted, deduplicated [int array] of packed [(rid, version)] ids.

    A tuple version packs into one native int as
    [((rid - 1) lsl version_bits) lor version]. Stored rids run over
    [1 .. Table.max_rid] = [1 .. 2^26], so [rid - 1] fits 26 bits and the
    version takes the low 36 of a non-negative 63-bit int. Ids of one
    table then compare as ints exactly as [Tid.compare] compares their
    versions, and tables are kept in name order ([String.compare], as in
    [Tid.compare]): iterating a lineage visits versions in
    [Tid.Set.elements] order.

    Sets are built by appending into per-table buffers and sorting each
    buffer once: a buffer that is already ascending (a scan emits a table's
    versions in rid order) costs one pass, a short one an insertion sort,
    any other an LSD radix sort.
    Polymorphic or closure-based sorts are avoided throughout: at tens of
    thousands of versions per statement they cost as much as boxing. *)

let version_bits = 36
let max_version = (1 lsl version_bits) - 1
let pack ~rid ~version = ((rid - 1) lsl version_bits) lor version
let rid p = (p asr version_bits) + 1
let version p = p land max_version

(* Invariant: tables strictly ascending by name, every array non-empty and
   strictly ascending. Arrays may be shared between lineages and are never
   modified once built. *)
type t = (string * int array) list

let empty : t = []
let is_empty (l : t) = match l with [] -> true | _ :: _ -> false

let cardinal (l : t) =
  List.fold_left (fun acc (_, ids) -> acc + Array.length ids) 0 l

(* ------------------------------------------------------------------ *)
(* Sorting.                                                            *)

let radix_bits = 11
let radix_mask = (1 lsl radix_bits) - 1

let is_sorted (a : int array) n =
  let i = ref 1 in
  while !i < n && a.(!i - 1) <= a.(!i) do
    incr i
  done;
  !i >= n

(* Below this length an insertion sort beats the radix sort, whose every
   pass clears and sums a 2048-entry histogram: an aggregate group's or a
   join row's lineage holds a handful of versions per table. *)
let small_sort = 64

let insertion_sort (s : int array) n =
  for i = 1 to n - 1 do
    let x = s.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && s.(!j) > x do
      s.(!j + 1) <- s.(!j);
      decr j
    done;
    s.(!j + 1) <- x
  done

(* LSD radix sort of the non-negative [a.(0 .. n-1)], [hi] the largest,
   into a fresh array. A digit on which all keys agree leaves the order as
   it is, so its scatter pass is skipped: packed ids leave most of the
   version's high bits zero. *)
let radix_sort (a : int array) n ~hi : int array =
  let src = ref (Array.sub a 0 n) and dst = ref (Array.make n 0) in
  let counts = Array.make (radix_mask + 1) 0 in
  let shift = ref 0 in
  while !shift < Sys.int_size && hi lsr !shift > 0 do
    let s = !src and d = !dst and sh = !shift in
    Array.fill counts 0 (radix_mask + 1) 0;
    for i = 0 to n - 1 do
      let k = (Array.unsafe_get s i lsr sh) land radix_mask in
      Array.unsafe_set counts k (Array.unsafe_get counts k + 1)
    done;
    if counts.((s.(0) lsr sh) land radix_mask) <> n then begin
      let sum = ref 0 in
      for k = 0 to radix_mask do
        let c = counts.(k) in
        counts.(k) <- !sum;
        sum := !sum + c
      done;
      for i = 0 to n - 1 do
        let x = Array.unsafe_get s i in
        let k = (x lsr sh) land radix_mask in
        let pos = Array.unsafe_get counts k in
        Array.unsafe_set d pos x;
        Array.unsafe_set counts k (pos + 1)
      done;
      src := d;
      dst := s
    end;
    shift := sh + radix_bits
  done;
  !src

(* An array whose first [n] values are [a.(0 .. n-1)] ascending: [a]
   itself when they already are or when few enough to sort in place,
   else a radix-sorted copy. Negative values, which no stored version's
   packed id is, fall back to a comparison sort. *)
let sort_prefix (a : int array) n : int array =
  if is_sorted a n then a
  else if n <= small_sort then begin
    insertion_sort a n;
    a
  end
  else begin
    let lo = ref max_int and hi = ref 0 in
    for i = 0 to n - 1 do
      let x = a.(i) in
      if x < !lo then lo := x;
      if x > !hi then hi := x
    done;
    if !lo >= 0 then radix_sort a n ~hi:!hi
    else begin
      let s = Array.sub a 0 n in
      Array.stable_sort Int.compare s;
      s
    end
  end

(* The distinct values of [a.(0 .. n-1)], ascending, as an array of
   exactly that length. [a] is sorted in place and may be returned
   itself, so callers pass arrays they own. *)
let sort_dedup (a : int array) n : int array =
  if n = 0 then [||]
  else begin
    let s = sort_prefix a n in
    let distinct = ref 1 in
    for i = 1 to n - 1 do
      if s.(i) <> s.(i - 1) then incr distinct
    done;
    if !distinct = n && Array.length s = n then s
    else begin
      let out = Array.make !distinct s.(0) in
      let j = ref 1 in
      for i = 1 to n - 1 do
        if s.(i) <> s.(i - 1) then begin
          out.(!j) <- s.(i);
          incr j
        end
      done;
      out
    end
  end

let by_table (a, _) (b, _) = String.compare a b

(* ------------------------------------------------------------------ *)
(* Building.                                                           *)

(* A walk appends each version's packed id, and the index of its table in
   [names], to two int arrays. [names] registers every table a scratch has
   seen, and [rank] orders them by name, so a build orders its tables by
   int comparison. Versions of one table share their name string, so a
   lookup is a physical-equality test against the last table, then
   against the registered ones; the string comparison runs only for a
   name not seen before under that string. [counts] holds how many ids
   each table got in the current walk, and [used] which tables those are. *)
type scratch = {
  mutable ids : int array;
  mutable tix : int array;
  mutable len : int;
  mutable names : string array;
  mutable rank : int array;
  mutable n_names : int;
  mutable counts : int array;
  mutable used : int array;
  mutable n_used : int;
  mutable last : int;  (** index of the last table used, -1 before any *)
}

let fresh_scratch () =
  { ids = Array.make 256 0;
    tix = Array.make 256 0;
    len = 0;
    names = Array.make 8 "";
    rank = Array.make 8 0;
    n_names = 0;
    counts = Array.make 8 0;
    used = Array.make 8 0;
    n_used = 0;
    last = -1 }

(* The scratch [builder] hands out whenever no other builder holds it, so
   a walk allocates little besides its result: an aggregate's lineage is
   one walk per group. A builder abandoned before [build] (an exception
   mid-walk) leaves it held, and later builders allocate their own. *)
let shared = fresh_scratch ()
let shared_busy = ref false

type builder = scratch

let builder () =
  if !shared_busy then fresh_scratch ()
  else begin
    shared_busy := true;
    shared
  end

let register sc table =
  let i = sc.n_names in
  if i = Array.length sc.names then begin
    let widen a fill = Array.append a (Array.make i fill) in
    sc.names <- widen sc.names "";
    sc.rank <- widen sc.rank 0;
    sc.counts <- widen sc.counts 0;
    sc.used <- widen sc.used 0
  end;
  sc.names.(i) <- table;
  sc.n_names <- i + 1;
  (* the new name's rank, and one more for every name above it *)
  let r = ref 0 in
  for j = 0 to i - 1 do
    if String.compare sc.names.(j) table < 0 then incr r
    else sc.rank.(j) <- sc.rank.(j) + 1
  done;
  sc.rank.(i) <- !r;
  i

let rec find_same sc table i =
  if i = sc.n_names then find_equal sc table 0
  else if sc.names.(i) == table then i
  else find_same sc table (i + 1)

and find_equal sc table i =
  if i = sc.n_names then register sc table
  else if String.equal sc.names.(i) table then begin
    (* later lookups of this string take the physical test *)
    sc.names.(i) <- table;
    i
  end
  else find_equal sc table (i + 1)

let add sc (tid : Tid.t) =
  let table = tid.Tid.table in
  let i =
    if sc.last >= 0 && sc.names.(sc.last) == table then sc.last
    else begin
      let i = find_same sc table 0 in
      sc.last <- i;
      i
    end
  in
  if sc.len = Array.length sc.ids then begin
    let ids = Array.make (2 * sc.len) 0 and tix = Array.make (2 * sc.len) 0 in
    Array.blit sc.ids 0 ids 0 sc.len;
    Array.blit sc.tix 0 tix 0 sc.len;
    sc.ids <- ids;
    sc.tix <- tix
  end;
  Array.unsafe_set sc.ids sc.len (pack ~rid:tid.Tid.rid ~version:tid.Tid.version);
  Array.unsafe_set sc.tix sc.len i;
  sc.len <- sc.len + 1;
  if sc.counts.(i) = 0 then begin
    sc.used.(sc.n_used) <- i;
    sc.n_used <- sc.n_used + 1
  end;
  sc.counts.(i) <- sc.counts.(i) + 1

(* One array per table, sorted and deduplicated once, consed in
   descending name order so the list ends in name order. Leaves the
   scratch empty for the next walk. *)
let build sc : t =
  let k = sc.n_used in
  let used = sc.used in
  let l =
    if k = 1 then
      let ids =
        if sc.len = 1 then [| sc.ids.(0) |]
        else sort_dedup (Array.sub sc.ids 0 sc.len) sc.len
      in
      [ (sc.names.(used.(0)), ids) ]
    else begin
      (* the walk's tables by rank: an insertion sort over a handful *)
      for i = 1 to k - 1 do
        let x = used.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && sc.rank.(used.(!j)) > sc.rank.(x) do
          used.(!j + 1) <- used.(!j);
          decr j
        done;
        used.(!j + 1) <- x
      done;
      let l = ref [] in
      for r = k - 1 downto 0 do
        let i = used.(r) in
        let n = sc.counts.(i) in
        let part = if n = 1 then [| 0 |] else Array.make n 0 in
        let filled = ref 0 in
        for j = 0 to sc.len - 1 do
          if Array.unsafe_get sc.tix j = i then begin
            part.(!filled) <- Array.unsafe_get sc.ids j;
            incr filled
          end
        done;
        l := (sc.names.(i), if n = 1 then part else sort_dedup part n) :: !l
      done;
      !l
    end
  in
  for r = 0 to k - 1 do
    sc.counts.(used.(r)) <- 0
  done;
  sc.n_used <- 0;
  sc.len <- 0;
  if sc == shared then begin
    shared_busy := false;
    (* a walk over a huge circuit must not pin its buffers *)
    if Array.length sc.ids > 1 lsl 16 then begin
      sc.ids <- Array.make 256 0;
      sc.tix <- Array.make 256 0
    end
  end;
  l

let singleton (tid : Tid.t) : t =
  [ (tid.Tid.table, [| pack ~rid:tid.Tid.rid ~version:tid.Tid.version |]) ]

let of_tids = function
  | [] -> empty
  | [ tid ] -> singleton tid
  | tids ->
    let b = builder () in
    List.iter (add b) tids;
    build b

let of_set s =
  let b = builder () in
  Tid.Set.iter (add b) s;
  build b

let of_packed tables : t =
  List.filter_map
    (fun (table, ids) ->
      match sort_dedup ids (Array.length ids) with
      | [||] -> None
      | ids -> Some (table, ids))
    tables
  |> List.sort by_table

(* ------------------------------------------------------------------ *)
(* Queries.                                                            *)

let find_table (l : t) table =
  List.find_map
    (fun (name, ids) -> if String.equal name table then Some ids else None)
    l

let mem_packed (ids : int array) p =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) lsr 1 in
    let x = ids.(mid) in
    if x = p then true else if x < p then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ids)

let mem (tid : Tid.t) (l : t) =
  match find_table l tid.Tid.table with
  | None -> false
  | Some ids -> mem_packed ids (pack ~rid:tid.Tid.rid ~version:tid.Tid.version)

let tables (l : t) = List.map fst l
let iter_tables f (l : t) = List.iter (fun (table, ids) -> f table ids) l

let tid_at table p = Tid.make ~table ~rid:(rid p) ~version:(version p)

let elements (l : t) =
  List.fold_right
    (fun (table, ids) acc ->
      Array.fold_right (fun p acc -> tid_at table p :: acc) ids acc)
    l []

let to_set l = Tid.Set.of_list (elements l)

(* ------------------------------------------------------------------ *)
(* Set operations.                                                     *)

let merge_ids (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  let emit x =
    out.(!k) <- x;
    incr k
  in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x <= y then incr i;
    if y <= x then incr j;
    emit (min x y)
  done;
  Array.blit a !i out !k (na - !i);
  k := !k + (na - !i);
  Array.blit b !j out !k (nb - !j);
  k := !k + (nb - !j);
  if !k = na + nb then out else Array.sub out 0 !k

let rec union (a : t) (b : t) : t =
  match (a, b) with
  | [], l | l, [] -> l
  | ((ta, ia) as x) :: a', ((tb, ib) as y) :: b' ->
    let c = String.compare ta tb in
    if c < 0 then x :: union a' b
    else if c > 0 then y :: union a b'
    else (ta, if ia == ib then ia else merge_ids ia ib) :: union a' b'

type group = { name : string; mutable parts : int array list; mutable total : int }

let union_all (ls : t list) : t =
  match List.filter (fun l -> not (is_empty l)) ls with
  | [] -> []
  | [ l ] -> l
  | ls ->
    let groups = ref [] in
    let group name =
      match List.find_opt (fun g -> g.name == name) !groups with
      | Some g -> g
      | None -> (
        match List.find_opt (fun g -> String.equal g.name name) !groups with
        | Some g -> g
        | None ->
          let g = { name; parts = []; total = 0 } in
          groups := g :: !groups;
          g)
    in
    List.iter
      (List.iter (fun (table, ids) ->
           let g = group table in
           g.parts <- ids :: g.parts;
           g.total <- g.total + Array.length ids))
      ls;
    List.map
      (fun g ->
        match g.parts with
        | [ ids ] -> (g.name, ids)
        | [ a; b ] -> (g.name, merge_ids a b)
        | parts ->
          let all = Array.concat (List.rev parts) in
          (g.name, sort_dedup all g.total))
      !groups
    |> List.sort by_table

let diff_ids (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make na 0 in
  let j = ref 0 and k = ref 0 in
  for i = 0 to na - 1 do
    let x = a.(i) in
    while !j < nb && b.(!j) < x do
      incr j
    done;
    if not (!j < nb && b.(!j) = x) then begin
      out.(!k) <- x;
      incr k
    end
  done;
  if !k = na then a else Array.sub out 0 !k

let rec diff (a : t) (b : t) : t =
  match (a, b) with
  | [], _ -> []
  | l, [] -> l
  | ((ta, ia) as x) :: a', (tb, ib) :: b' ->
    let c = String.compare ta tb in
    if c < 0 then x :: diff a' b
    else if c > 0 then diff a b'
    else
      match diff_ids ia ib with
      | [||] -> diff a' b'
      | ids -> (ta, ids) :: diff a' b'

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* fold the rid bits onto the version bits, then mix the product's high
     bits back down: the table index is taken from the low bits *)
  let hash p =
    let h = (p lxor (p lsr version_bits)) * 0x9e3779b1 in
    (h lxor (h lsr 32)) land max_int
end)

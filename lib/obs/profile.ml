(** Critical-path and self/total-time analysis over collected span
    forests. See the interface for the model; the paper connection is
    that the span format mirrors [Prov.Trace]'s edge vocabulary, so an
    LDV run's own trace is analyzed with the same structural machinery
    (forest reconstruction, path extraction, graph rendering) as the
    provenance traces it captures. *)

open Obs_types

type node = {
  n_span : span;
  n_children : node list;
  n_total : float;
  n_self : float;
}

type t = {
  forest : node list;
  orphans : int;
  wall : float;
}

let span_total (sp : span) = Float.max 0.0 sp.sp_dur

let of_snapshot (snap : snapshot) : t =
  let ids = Hashtbl.create 256 in
  List.iter (fun sp -> Hashtbl.replace ids sp.sp_id ()) snap.spans;
  (* children grouped by parent id, then ordered by span id (start order) *)
  let by_parent : (int, span list ref) Hashtbl.t = Hashtbl.create 256 in
  let orphans = ref 0 in
  let root_spans = ref [] in
  List.iter
    (fun sp ->
      if sp.sp_parent <> 0 && not (Hashtbl.mem ids sp.sp_parent) then begin
        (* the parent was evicted from the ring or never closed: promote *)
        incr orphans;
        root_spans := sp :: !root_spans
      end
      else if sp.sp_parent = 0 then root_spans := sp :: !root_spans
      else
        match Hashtbl.find_opt by_parent sp.sp_parent with
        | Some r -> r := sp :: !r
        | None -> Hashtbl.replace by_parent sp.sp_parent (ref [ sp ]))
    snap.spans;
  let rec build (sp : span) : node =
    let children =
      match Hashtbl.find_opt by_parent sp.sp_id with
      | None -> []
      | Some r ->
        List.map build
          (List.sort (fun (a : span) b -> compare a.sp_id b.sp_id) !r)
    in
    let total = span_total sp in
    let in_children =
      List.fold_left (fun acc c -> acc +. c.n_total) 0.0 children
    in
    { n_span = sp;
      n_children = children;
      n_total = total;
      n_self = Float.max 0.0 (total -. in_children) }
  in
  let forest = List.rev_map build !root_spans in
  { forest;
    orphans = !orphans;
    wall = List.fold_left (fun acc n -> acc +. n.n_total) 0.0 forest }

(* ------------------------------------------------------------------ *)
(* Self/total aggregation.                                             *)

type row = {
  r_name : string;
  r_count : int;
  r_total : float;
  r_self : float;
  r_max : float;
}

let rows (t : t) : row list =
  let tbl : (string, row ref) Hashtbl.t = Hashtbl.create 64 in
  let rec visit n =
    (match Hashtbl.find_opt tbl n.n_span.sp_name with
    | Some r ->
      r :=
        { !r with
          r_count = !r.r_count + 1;
          r_total = !r.r_total +. n.n_total;
          r_self = !r.r_self +. n.n_self;
          r_max = Float.max !r.r_max n.n_total }
    | None ->
      Hashtbl.replace tbl n.n_span.sp_name
        (ref
           { r_name = n.n_span.sp_name;
             r_count = 1;
             r_total = n.n_total;
             r_self = n.n_self;
             r_max = n.n_total }));
    List.iter visit n.n_children
  in
  List.iter visit t.forest;
  Hashtbl.fold (fun _ r acc -> !r :: acc) tbl []
  |> List.sort (fun a b ->
         match compare b.r_self a.r_self with
         | 0 -> String.compare a.r_name b.r_name
         | c -> c)

(* ------------------------------------------------------------------ *)
(* Critical path.                                                      *)

type step = {
  st_span : span;
  st_total : float;
  st_self : float;
  st_step : float;
}

let heaviest_child (n : node) : node option =
  List.fold_left
    (fun acc c ->
      match acc with
      | Some best when best.n_total >= c.n_total -> acc
      | _ -> Some c)
    None n.n_children

let critical_path (root : node) : step list =
  let rec go n =
    let next = heaviest_child n in
    let descend = match next with Some c -> c.n_total | None -> 0.0 in
    { st_span = n.n_span;
      st_total = n.n_total;
      st_self = n.n_self;
      st_step = Float.max 0.0 (n.n_total -. descend) }
    :: (match next with Some c -> go c | None -> [])
  in
  go root

let critical_paths (t : t) : (node * step list) list =
  List.map (fun root -> (root, critical_path root)) t.forest

(* ------------------------------------------------------------------ *)
(* Collapsed stacks (flamegraph.pl / speedscope input).                *)

let frame_name (sp : span) =
  String.map (fun c -> if c = ' ' || c = ';' then '_' else c) sp.sp_name

let to_collapsed (t : t) : string =
  let stacks : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let rec visit prefix n =
    let stack =
      if prefix = "" then frame_name n.n_span
      else prefix ^ ";" ^ frame_name n.n_span
    in
    let us = int_of_float (Float.round (n.n_self *. 1e6)) in
    if us > 0 then begin
      match Hashtbl.find_opt stacks stack with
      | Some r -> r := !r + us
      | None -> Hashtbl.replace stacks stack (ref us)
    end;
    List.iter (visit stack) n.n_children
  in
  List.iter (visit "") t.forest;
  let lines =
    Hashtbl.fold (fun stack r acc -> (stack, !r) :: acc) stacks []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (stack, us) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" stack us))
    lines;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Graphviz overlay (the [Prov.Dot] visual vocabulary).                *)

let seconds s =
  if s >= 1.0 then Printf.sprintf "%.3f s" s
  else if s >= 1e-3 then Printf.sprintf "%.3f ms" (s *. 1e3)
  else Printf.sprintf "%.1f us" (s *. 1e6)

let dot_escape s = String.concat "\\\"" (String.split_on_char '"' s)

(* Same palette as [Prov.Dot.node_color]: processes lightblue, files
   khaki, tuples/statements palegreen, everything else lightsalmon. *)
let prov_shape_color (id : string) =
  let has_prefix p =
    String.length id > String.length p && String.sub id 0 (String.length p) = p
  in
  if has_prefix "proc:" then ("box", "lightblue")
  else if has_prefix "file:" then ("ellipse", "khaki")
  else if has_prefix "stmt:" then ("box", "palegreen")
  else if has_prefix "tuple:" then ("ellipse", "palegreen")
  else ("ellipse", "lightsalmon")

let heat_color ~max_self self =
  let ratio = if max_self <= 0.0 then 0.0 else self /. max_self in
  if ratio >= 0.75 then "orangered"
  else if ratio >= 0.5 then "orange"
  else if ratio >= 0.25 then "gold"
  else if ratio > 0.0 then "khaki"
  else "white"

let to_dot (t : t) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph profile {\n  rankdir=LR;\n";
  let max_self =
    let rec go acc n =
      List.fold_left go (Float.max acc n.n_self) n.n_children
    in
    List.fold_left go 0.0 t.forest
  in
  let prov_nodes = Hashtbl.create 32 in
  let rec emit parent n =
    let sp = n.n_span in
    Buffer.add_string buf
      (Printf.sprintf
         "  \"s%d\" [shape=box, style=filled, fillcolor=%s, \
          label=\"%s\\n%s self / %s total\"];\n"
         sp.sp_id
         (heat_color ~max_self n.n_self)
         (dot_escape sp.sp_name) (seconds n.n_self) (seconds n.n_total));
    (match parent with
    | Some (p : span) ->
      Buffer.add_string buf
        (Printf.sprintf "  \"s%d\" -> \"s%d\" [label=\"%.6f .. %.6f\"];\n"
           p.sp_id sp.sp_id sp.sp_start
           (sp.sp_start +. span_total sp))
    | None -> ());
    List.iter
      (fun id ->
        if not (Hashtbl.mem prov_nodes id) then begin
          Hashtbl.replace prov_nodes id ();
          let shape, color = prov_shape_color id in
          Buffer.add_string buf
            (Printf.sprintf
               "  \"%s\" [shape=%s, style=filled, fillcolor=%s, label=\"%s\"];\n"
               (dot_escape id) shape color (dot_escape id))
        end;
        Buffer.add_string buf
          (Printf.sprintf "  \"s%d\" -> \"%s\" [style=dashed, color=gray];\n"
             sp.sp_id (dot_escape id)))
      (prov_refs sp);
    List.iter (emit (Some sp)) n.n_children
  in
  List.iter (emit None) t.forest;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Run-to-run diff.                                                    *)

type diff_row = {
  d_name : string;
  d_count_a : int;
  d_count_b : int;
  d_total_a : float;
  d_total_b : float;
  d_p95_a : float;
  d_p95_b : float;
}

(* deltas below a microsecond are clock jitter, not regressions *)
let jitter_floor = 1e-6

let delta_pct (d : diff_row) =
  if d.d_total_a > 0.0 then
    (d.d_total_b -. d.d_total_a) /. d.d_total_a *. 100.0
  else if d.d_total_b > 0.0 then Float.infinity
  else 0.0

let regressed ~budget_pct (d : diff_row) =
  d.d_total_b -. d.d_total_a > jitter_floor
  &&
  if d.d_total_a > 0.0 then
    d.d_total_b > d.d_total_a *. (1.0 +. (budget_pct /. 100.0))
  else true (* a span new in [b] with measurable time *)

let diff (a : snapshot) (b : snapshot) : diff_row list =
  let aggregate (snap : snapshot) =
    let tbl : (string, int * float) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (sp : span) ->
        let count, total =
          Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl sp.sp_name)
        in
        Hashtbl.replace tbl sp.sp_name (count + 1, total +. span_total sp))
      snap.spans;
    (* the ring may have evicted spans whose [span:<name>] histogram
       survived; trusting the ring alone would silently drop those names
       from the diff (or under-count them), so prefer the histogram's
       count/sum whenever it saw more completions than the ring holds *)
    List.iter
      (fun (hname, (s : Histogram.summary)) ->
        let prefix = "span:" in
        let plen = String.length prefix in
        if
          String.length hname > plen
          && String.equal (String.sub hname 0 plen) prefix
        then begin
          let name = String.sub hname plen (String.length hname - plen) in
          let count, _ =
            Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl name)
          in
          if s.Histogram.s_count > count then
            Hashtbl.replace tbl name (s.Histogram.s_count, s.Histogram.s_sum)
        end)
      snap.histograms;
    tbl
  in
  let p95 (snap : snapshot) name =
    match List.assoc_opt ("span:" ^ name) snap.histograms with
    | Some s -> s.Histogram.s_p95
    | None -> Float.nan
  in
  let ta = aggregate a and tb = aggregate b in
  let names = Hashtbl.create 64 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) ta;
  Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) tb;
  Hashtbl.fold
    (fun name () acc ->
      let count_a, total_a =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt ta name)
      in
      let count_b, total_b =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt tb name)
      in
      { d_name = name;
        d_count_a = count_a;
        d_count_b = count_b;
        d_total_a = total_a;
        d_total_b = total_b;
        d_p95_a = p95 a name;
        d_p95_b = p95 b name }
      :: acc)
    names []
  |> List.sort (fun x y ->
         match
           compare (y.d_total_b -. y.d_total_a) (x.d_total_b -. x.d_total_a)
         with
         | 0 -> String.compare x.d_name y.d_name
         | c -> c)

(** The loaded-trace model and the analyses over it. See the interface
    for the model; the paper connection is that the span format mirrors
    [Prov.Trace]'s edge vocabulary, so an LDV run's own trace is analyzed
    with the same structural machinery (forest reconstruction, path
    extraction, graph rendering) as the provenance traces it captures. *)

open Obs_types

type node = {
  n_span : span;
  n_children : node list;
  n_total : float;
  n_self : float;
  n_session : int;
  n_trace : int;
  n_stmt : int;
  n_repl_node : int;
}

type row = {
  r_name : string;
  r_nodes : node list;
  r_count : int;
  r_total : float;
  r_self : float;
  r_max : float;
  r_hist : Histogram.t;
}

type phase_sum = {
  p_name : string;
  p_audit : bool;
  p_count : int;
  p_sum : float;
}

type t = {
  snap : snapshot;
  forest : node list;
  orphans : int;
  wall : float;
  names : row list;
  sessions : (int * row list) list;
  span_hists : (string * Histogram.summary) list;
  metric_hists : (string * Histogram.summary) list;
  ledger : (Histogram.summary * phase_sum list) option;
}

let span_total (sp : span) = Float.max 0.0 sp.sp_dur

(* An integer attribute (session, trace, statement, replica ids), its
   first binding as [List.assoc_opt] finds it; -1 when absent or not a
   number. *)
let int_attr (sp : span) key =
  match
    List.find_map
      (fun (k, v) -> if String.equal k key then Some v else None)
      sp.sp_attrs
  with
  | Some v -> Option.value ~default:(-1) (int_of_string_opt v)
  | None -> -1

let group_by (key : node -> 'k) (nodes : node list) : ('k * node list) list =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun n ->
      let k = key n in
      match Hashtbl.find_opt tbl k with
      | Some r -> r := n :: !r
      | None ->
        Hashtbl.replace tbl k (ref [ n ]);
        order := k :: !order)
    nodes;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

let row_of r_name r_nodes : row =
  let fold f init get = List.fold_left (fun acc n -> f acc (get n)) init r_nodes in
  let r_hist = Histogram.create () in
  List.iter (fun n -> Histogram.observe r_hist n.n_total) r_nodes;
  { r_name;
    r_nodes;
    r_count = List.length r_nodes;
    r_total = fold ( +. ) 0.0 (fun n -> n.n_total);
    r_self = fold ( +. ) 0.0 (fun n -> n.n_self);
    r_max = fold Float.max Float.neg_infinity (fun n -> n.n_total);
    r_hist }

let rows_by_name nodes =
  List.map (fun (name, nodes) -> row_of name nodes)
    (group_by (fun n -> n.n_span.sp_name) nodes)

let compare_session a b = compare (a < 0, a) (b < 0, b)

let id_label id = if id < 0 then "-" else string_of_int id

(* The collector keeps a [span:<name>] duration histogram per span name
   beside the ring ([Ldv_obs.commit_span]). *)
let span_hist_prefix = "span:"

let ledger_of (snap : snapshot) =
  let hist name = List.assoc_opt name snap.histograms in
  let phase p_name hist_name p_audit =
    let p_count, p_sum =
      match hist hist_name with
      | Some s -> (s.Histogram.s_count, s.Histogram.s_sum)
      | None -> (0, 0.0)
    in
    { p_name; p_audit; p_count; p_sum }
  in
  Option.map
    (fun stmt ->
      ( stmt,
        List.map
          (fun p ->
            phase (Ledger.phase_name p) (Ledger.hist_of_phase p)
              (Ledger.is_audit_phase p))
          Ledger.phases
        @ [ phase "other" Ledger.other_hist false ] ))
    (hist Ledger.stmt_hist)

let of_snapshot (snap : snapshot) : t =
  let spans = Array.of_list snap.spans in
  let ids = Hashtbl.create 256 in
  Array.iter (fun sp -> Hashtbl.replace ids sp.sp_id ()) spans;
  (* A span hangs below its parent when the parent is in the snapshot and
     started first (a smaller id). Any other span with a parent is
     promoted to a root: the parent was evicted from the ring or never
     closed (or the trace was edited by hand). *)
  let attached sp =
    sp.sp_parent <> 0 && Hashtbl.mem ids sp.sp_parent && sp.sp_parent < sp.sp_id
  in
  (* building by descending id completes each node's children (in id
     order) before the node itself *)
  let children = Hashtbl.create 256 in
  let kids id = Option.value ~default:[] (Hashtbl.find_opt children id) in
  let nodes = Array.make (Array.length spans) None in
  let order = Array.init (Array.length spans) Fun.id in
  Array.stable_sort (fun a b -> compare spans.(b).sp_id spans.(a).sp_id) order;
  Array.iter
    (fun i ->
      let sp = spans.(i) in
      let n_children = kids sp.sp_id in
      let n_total = span_total sp in
      let in_children =
        List.fold_left (fun acc c -> acc +. c.n_total) 0.0 n_children
      in
      let n =
        { n_span = sp;
          n_children;
          n_total;
          n_self = Float.max 0.0 (n_total -. in_children);
          n_session = int_attr sp Trace.session_attr;
          n_trace = int_attr sp Trace.trace_attr;
          n_stmt = int_attr sp Trace.stmt_attr;
          n_repl_node = int_attr sp "repl.node" }
      in
      nodes.(i) <- Some n;
      let p = sp.sp_parent in
      if attached sp then Hashtbl.replace children p (n :: kids p))
    order;
  let nodes = Array.to_list (Array.map Option.get nodes) in
  let forest = List.filter (fun n -> not (attached n.n_span)) nodes in
  let span_hists, metric_hists =
    List.partition_map
      (fun (name, s) ->
        let n = String.length span_hist_prefix in
        if String.starts_with ~prefix:span_hist_prefix name then
          Either.Left (String.sub name n (String.length name - n), s)
        else Either.Right (name, s))
      snap.histograms
  in
  { snap;
    forest;
    orphans = List.length (List.filter (fun n -> n.n_span.sp_parent <> 0) forest);
    wall = List.fold_left (fun acc n -> acc +. n.n_total) 0.0 forest;
    names = rows_by_name nodes;
    sessions =
      group_by (fun n -> n.n_session) nodes
      |> List.map (fun (id, nodes) ->
             ( id,
               List.sort
                 (fun a b -> String.compare a.r_name b.r_name)
                 (rows_by_name nodes) ))
      |> List.sort (fun (a, _) (b, _) -> compare_session a b);
    span_hists;
    metric_hists;
    ledger = ledger_of snap }

let span_hist (t : t) name = List.assoc_opt name t.span_hists

let find (rows : row list) name =
  List.find_opt (fun r -> String.equal r.r_name name) rows

let nodes rows name =
  match find rows name with Some r -> r.r_nodes | None -> []

let extent (nodes : node list) =
  List.fold_left
    (fun (lo, hi) n ->
      (Float.min lo n.n_span.sp_start, Float.max hi (n.n_span.sp_start +. n.n_total)))
    (Float.infinity, Float.neg_infinity)
    nodes

(* ------------------------------------------------------------------ *)
(* Self/total aggregation.                                             *)

let rows (t : t) : row list =
  List.sort
    (fun a b ->
      match compare b.r_self a.r_self with
      | 0 -> String.compare a.r_name b.r_name
      | c -> c)
    t.names

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

let diff (a : t) (b : t) : diff_row list =
  (* the ring may have evicted spans whose [span:<name>] histogram
     survived; trusting the ring alone would silently drop those names
     from the diff (or under-count them), so prefer the histogram's
     count/sum whenever it saw more completions than the ring holds *)
  let stats t name =
    let count, total =
      match find t.names name with
      | Some r -> (r.r_count, r.r_total)
      | None -> (0, 0.0)
    in
    match span_hist t name with
    | Some s when s.Histogram.s_count > count ->
      (s.Histogram.s_count, s.Histogram.s_sum, s.Histogram.s_p95)
    | Some s -> (count, total, s.Histogram.s_p95)
    | None -> (count, total, Float.nan)
  in
  let names t =
    List.map (fun r -> r.r_name) t.names
    @ List.filter_map
        (fun (name, s) -> if s.Histogram.s_count > 0 then Some name else None)
        t.span_hists
  in
  List.sort_uniq String.compare (names a @ names b)
  |> List.map (fun d_name ->
         let d_count_a, d_total_a, d_p95_a = stats a d_name in
         let d_count_b, d_total_b, d_p95_b = stats b d_name in
         { d_name; d_count_a; d_count_b; d_total_a; d_total_b; d_p95_a; d_p95_b })
  |> List.sort (fun x y ->
         match
           compare (y.d_total_b -. y.d_total_a) (x.d_total_b -. x.d_total_a)
         with
         | 0 -> String.compare x.d_name y.d_name
         | c -> c)

(* The benchmark's own span recorder. Spans wrap the benchmark's calls
   into public library functions; nothing inside the library is
   instrumented. Spans are kept in memory and written out when the run
   ends.

   Recording is off by default: untraced iterations pay one [bool] test
   per call site. *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  iter : int;  (** iteration the span belongs to *)
  t0 : float;
  mutable t1 : float;
}

let now = Clock.now
let on = ref false
let iteration = ref 0
let next_id = ref 1
let recorded : span list ref = ref [] (* newest first *)

(* Spans opened by [with_span] and not yet closed, innermost first. *)
let stack : span list ref = ref []

let reset () =
  recorded := [];
  stack := [];
  next_id := 1

let fresh ~parent name t0 =
  let s = { id = !next_id; parent; name; iter = !iteration; t0; t1 = t0 } in
  incr next_id;
  s

let current () = match !stack with s :: _ -> s.id | [] -> 0

(** Run [f] inside a span nested under the innermost open span. *)
let with_span name f =
  if not !on then f ()
  else begin
    let s = fresh ~parent:(current ()) name (now ()) in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.filter (fun o -> o.id <> s.id) !stack;
        recorded := s :: !recorded)
      f
  end

(** Record an already-timed leaf span under the innermost open span.
    Client calls use this: under the cooperative scheduler two sessions'
    calls overlap in wall time, so they must not sit on the nesting
    stack. *)
let leaf name ~t0 ~t1 =
  if !on then begin
    let s = fresh ~parent:(current ()) name t0 in
    s.t1 <- t1;
    recorded := s :: !recorded
  end

let dur s = s.t1 -. s.t0

(** Self time of every span, keyed by id: each instant is charged to the
    most recently opened span still open at that instant. For properly
    nested spans this is a span's duration minus what its children
    cover; overlapping siblings (concurrent sessions) are charged once,
    so the self times of a tree always add up to the time its root
    covers. *)
let self_times (spans : span list) : (int, float) Hashtbl.t =
  let self = Hashtbl.create 256 in
  let events =
    List.concat_map (fun s -> [ (s.t0, 1, s); (s.t1, 0, s) ]) spans
    |> List.sort (fun (ta, ka, a) (tb, kb, b) ->
           match Float.compare ta tb with
           | 0 -> (
             (* closes before opens; opens outermost first *)
             match Int.compare ka kb with 0 -> Int.compare a.id b.id | c -> c)
           | c -> c)
  in
  (* open spans, most recently opened first *)
  let opened = ref [] in
  let last = ref 0.0 in
  List.iter
    (fun (t, kind, s) ->
      (match !opened with
      | top :: _ ->
        let acc = Option.value ~default:0.0 (Hashtbl.find_opt self top.id) in
        Hashtbl.replace self top.id (acc +. (t -. !last))
      | [] -> ());
      last := t;
      if kind = 1 then opened := s :: !opened
      else opened := List.filter (fun o -> o.id <> s.id) !opened)
    events;
  self

let self_of self s = Option.value ~default:0.0 (Hashtbl.find_opt self s.id)

(** Every span in the subtrees rooted at [roots]. *)
let subtrees (spans : span list) (roots : span list) : span list =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let rec walk acc s =
    List.fold_left walk (s :: acc) (Hashtbl.find_all children s.id)
  in
  List.fold_left walk [] roots

(** Per span path ("iteration/audit/client.select"): (count, total
    seconds, self seconds), sorted by self time, largest first. *)
let table (spans : span list) : (string * int * float * float) list =
  let self = self_times spans in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec path s =
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> path p ^ "/" ^ s.name
    | None -> s.name
  in
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let key = path s in
      let n, tot, slf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt rows key)
      in
      Hashtbl.replace rows key (n + 1, tot +. dur s, slf +. self_of self s))
    spans;
  Hashtbl.fold (fun key (n, tot, slf) acc -> (key, n, tot, slf) :: acc) rows []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

module Json = Ldv_obs.Json

(** One JSON object per span, oldest first. *)
let write_jsonl oc ~workload (spans : span list) =
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("workload", Json.Str workload);
                ("iter", Json.Int s.iter);
                ("id", Json.Int s.id);
                ("parent", Json.Int s.parent);
                ("name", Json.Str s.name);
                ("start", Json.Float s.t0);
                ("dur", Json.Float (dur s)) ]));
      output_char oc '\n')
    (List.sort (fun a b -> Int.compare a.id b.id) spans)

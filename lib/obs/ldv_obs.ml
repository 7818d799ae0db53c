(** Structured observability for the LDV pipeline.

    The paper's entire evaluation (§IX) is about *measuring* LDV — audit
    overhead, package size, replay time — so the reproduction carries a
    first-class instrumentation layer:

    - hierarchical {b spans} with monotonic wall-clock timing, nesting and
      per-span key/value attributes ([with_span "slice.relevant" f]);
    - {b metrics}: named counters, gauges and log-scale histograms in a
      process-wide registry;
    - pluggable {b sinks}: an in-memory ring buffer (tests, summaries) and
      a streaming JSONL exporter whose span records mirror the
      provenance-graph edge format of [Prov.Trace] ([label]/[src]/[dst]
      plus a [b..e] time interval) — an LDV run's own execution trace is
      inspectable with the same vocabulary as the traces it captures.

    Everything is a guaranteed no-op while the sink is [Null]: every entry
    point checks the sink first and performs no formatting, allocation or
    clock reads on the disabled path. *)

module Json = Json
module Histogram = Histogram
module Profile = Profile
module Trace = Trace
module Contention = Contention
module Ledger = Ledger

(* ------------------------------------------------------------------ *)
(* Spans. The plain-data types ([span], [snapshot]) live in
   [Obs_types] so that [Profile] can analyze them; re-export them here
   with type equality.                                                 *)

include Obs_types

type sink =
  | Null  (** disabled: all entry points are no-ops *)
  | Memory  (** ring buffer + metric registry only *)
  | Jsonl of out_channel
      (** [Memory] plus one JSONL record streamed per closed span *)

type state = {
  mutable sink : sink;
  mutable clock : unit -> float;
  mutable next_id : int;
  mutable stack : span list;  (** open spans, innermost first *)
  ring : span Queue.t;  (** closed spans, completion order *)
  mutable ring_cap : int;
  mutable dropped : int;
  quanta : quantum Queue.t;  (** per-round gauge samples, oldest first *)
  mutable dropped_quanta : int;
  quantum_gauges : (string, unit -> float) Hashtbl.t;
      (** gauge providers sampled once per scheduler round *)
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histos : (string, Histogram.t) Hashtbl.t;
}

let st =
  { sink = Null;
    clock = Unix.gettimeofday;
    next_id = 1;
    stack = [];
    ring = Queue.create ();
    ring_cap = 65536;
    dropped = 0;
    quanta = Queue.create ();
    dropped_quanta = 0;
    quantum_gauges = Hashtbl.create 8;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histos = Hashtbl.create 32 }

let enabled () = st.sink <> Null

(** The overhead ledger follows the sink: enabled whenever spans are
    collected, a guaranteed no-op under [Null]. *)
let set_sink s =
  st.sink <- s;
  Ledger.set_enabled (s <> Null)

(** Override the clock (tests substitute a deterministic one). The
    ledger shares it, so phase attribution is deterministic whenever the
    spans are. *)
let set_clock f =
  st.clock <- f;
  Ledger.set_clock f

let now () = st.clock ()

let set_ring_capacity n = st.ring_cap <- max 1 n

(** Drop all collected spans and metrics; keeps the sink. Also restores
    the pristine trace context and restarts trace-id minting, so two
    identically seeded runs separated by a [reset] stamp identical ids. *)
let reset () =
  st.next_id <- 1;
  st.stack <- [];
  Queue.clear st.ring;
  st.dropped <- 0;
  Queue.clear st.quanta;
  st.dropped_quanta <- 0;
  Hashtbl.reset st.quantum_gauges;
  Hashtbl.reset st.counters;
  Hashtbl.reset st.gauges;
  Hashtbl.reset st.histos;
  Trace.reset ();
  Ledger.reset ()

(* ------------------------------------------------------------------ *)
(* Metrics. Every entry point is guarded by the sink check.            *)

let counter ?(by = 1) name =
  if enabled () then
    match Hashtbl.find_opt st.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace st.counters name (ref by)

let gauge name v =
  if enabled () then
    match Hashtbl.find_opt st.gauges name with
    | Some r -> r := v
    | None -> Hashtbl.replace st.gauges name (ref v)

let observe name v =
  if enabled () then begin
    let h =
      match Hashtbl.find_opt st.histos name with
      | Some h -> h
      | None ->
        let h = Histogram.create () in
        Hashtbl.replace st.histos name h;
        h
    in
    Histogram.observe h v
  end

(* The ledger is a sibling module and cannot call the collector; feed
   its per-statement phase totals into the histogram registry here, so
   they stream/export exactly like every other metric. *)
let () = Ledger.set_observer observe

(* ------------------------------------------------------------------ *)
(* Span lifecycle.                                                     *)

(** The JSONL record of a closed span, mirroring [Prov.Trace]'s edge
    vocabulary: [label] is the edge label (span name), [src] the parent
    span, [dst] the span itself, [b]/[e] the time interval. *)
let span_record (sp : span) : Json.t =
  Json.Obj
    ([ ("t", Json.Str "span");
       ("label", Json.Str sp.sp_name);
       ("src", Json.Int sp.sp_parent);
       ("dst", Json.Int sp.sp_id);
       ("b", Json.Float sp.sp_start);
       ("e", Json.Float (sp.sp_start +. Float.max 0.0 sp.sp_dur)) ]
    @
    if sp.sp_attrs = [] then []
    else
      [ ( "attrs",
          Json.Obj
            (List.rev_map (fun (k, v) -> (k, Json.Str v)) sp.sp_attrs) ) ])

(** One scheduler round's gauge sample as a JSONL record. *)
let quantum_record (q : quantum) : Json.t =
  Json.Obj
    [ ("t", Json.Str "quantum");
      ("round", Json.Int q.q_round);
      ("at", Json.Float q.q_time);
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) q.q_gauges)) ]

let start_span ?(attrs = []) name : span =
  let parent = match st.stack with [] -> 0 | p :: _ -> p.sp_id in
  let sp =
    { sp_id = st.next_id;
      sp_parent = parent;
      sp_name = name;
      (* every span carries the ambient trace identity (trace.id /
         trace.session / trace.stmt) in front of its own attributes *)
      sp_attrs = Trace.attrs () @ attrs;
      sp_start = st.clock ();
      sp_dur = -1.0 }
  in
  st.next_id <- st.next_id + 1;
  st.stack <- sp :: st.stack;
  sp

(* Retire a closed span: bounded ring (evictions counted), the per-name
   duration histogram, and — under the streaming sink — one JSONL record
   out the door immediately. Shared by [finish_span] and [emit_span]. *)
let commit_span (sp : span) =
  if Queue.length st.ring >= st.ring_cap then begin
    ignore (Queue.pop st.ring);
    st.dropped <- st.dropped + 1
  end;
  Queue.push sp st.ring;
  (* per-stage duration histogram, so summaries keep percentiles even when
     the ring has dropped early spans *)
  observe ("span:" ^ sp.sp_name) sp.sp_dur;
  match st.sink with
  | Jsonl oc ->
    output_string oc (Json.to_string (span_record sp));
    output_char oc '\n'
  | Null | Memory -> ()

let finish_span (sp : span) =
  sp.sp_dur <- st.clock () -. sp.sp_start;
  (match st.stack with
  | top :: rest when top == sp -> st.stack <- rest
  | _ ->
    (* unbalanced finish (an inner span escaped); drop it wherever it is *)
    st.stack <- List.filter (fun s -> s != sp) st.stack);
  commit_span sp

(** Record an already-measured interval as a closed span. The wait-state
    spans (latch acquisition, group-commit stalls, scheduler resume gaps)
    are measured across parks where no lexical [with_span] scope exists,
    so they arrive with explicit [start]/[dur]. Deliberately a root span:
    parenting it on the shared span stack would attach one session's wait
    to whatever span another session happens to have open. It still
    carries the ambient trace-context attributes plus [attrs]. *)
let emit_span ?(attrs = []) ~start ~dur name =
  if enabled () then begin
    let sp =
      { sp_id = st.next_id;
        sp_parent = 0;
        sp_name = name;
        sp_attrs = Trace.attrs () @ attrs;
        sp_start = start;
        sp_dur = Float.max 0.0 dur }
    in
    st.next_id <- st.next_id + 1;
    commit_span sp
  end

(** Run [f] inside a span. The span nests under whichever span is
    currently open; on the disabled path this is exactly a call to [f]. *)
let with_span ?attrs name f =
  match st.sink with
  | Null -> f ()
  | Memory | Jsonl _ ->
    let sp = start_span ?attrs name in
    Fun.protect ~finally:(fun () -> finish_span sp) f

(** Attach an attribute to the innermost open span, if any. *)
let add_attr k v =
  if enabled () then
    match st.stack with
    | sp :: _ -> sp.sp_attrs <- (k, v) :: sp.sp_attrs
    | [] -> ()

(* ------------------------------------------------------------------ *)
(* Per-quantum telemetry. Subsystems register gauge providers (run-queue
   depth, snapshot age, fsync barriers); the kernel samples them all once
   per scheduler round via its quantum hook.                           *)

(** Register (or replace) a named gauge provider. Registration is always
    accepted — only sampling is gated on the sink — so providers set up
    while the sink was [Null] still report once it is enabled. *)
let register_quantum_gauge name (f : unit -> float) =
  Hashtbl.replace st.quantum_gauges name f

(** Sample every registered gauge provider into one [quantum] record for
    scheduler round [round]. The readings also update the plain gauge
    registry (last-value-wins), the record lands in a bounded queue
    (evictions counted in [dropped_quanta]), and under the streaming sink
    it is written out — and flushed — immediately, which is what makes
    the JSONL file grow while the run is still in progress. *)
let sample_quantum ~round () =
  if enabled () then begin
    let readings =
      Hashtbl.fold
        (fun name f acc ->
          (* a faulty provider must not take the scheduler round down *)
          let v = match f () with v -> v | exception _ -> 0.0 in
          (name, v) :: acc)
        st.quantum_gauges []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    List.iter (fun (name, v) -> gauge name v) readings;
    let q = { q_round = round; q_time = st.clock (); q_gauges = readings } in
    if Queue.length st.quanta >= st.ring_cap then begin
      ignore (Queue.pop st.quanta);
      st.dropped_quanta <- st.dropped_quanta + 1
    end;
    Queue.push q st.quanta;
    match st.sink with
    | Jsonl oc ->
      output_string oc (Json.to_string (quantum_record q));
      output_char oc '\n';
      flush oc
    | Null | Memory -> ()
  end

(* ------------------------------------------------------------------ *)
(* Snapshots: everything collected so far, in plain data (the
   [snapshot] type itself comes from [Obs_types]).                     *)

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () : snapshot =
  { spans = List.of_seq (Queue.to_seq st.ring);
    dropped_spans = st.dropped;
    ring_capacity = st.ring_cap;
    quanta = List.of_seq (Queue.to_seq st.quanta);
    dropped_quanta = st.dropped_quanta;
    counters = sorted_bindings st.counters (fun r -> !r);
    gauges = sorted_bindings st.gauges (fun r -> !r);
    histograms = sorted_bindings st.histos Histogram.summarize }

let find_spans (snap : snapshot) (name : string) : span list =
  List.filter (fun sp -> String.equal sp.sp_name name) snap.spans

(* ------------------------------------------------------------------ *)
(* JSONL codec.                                                        *)

let num f = Json.Float f

let hist_record name (s : Histogram.summary) : Json.t =
  Json.Obj
    [ ("t", Json.Str "hist");
      ("name", Json.Str name);
      ("count", Json.Int s.Histogram.s_count);
      ("sum", num s.Histogram.s_sum);
      ("min", num s.Histogram.s_min);
      ("max", num s.Histogram.s_max);
      ("p50", num s.Histogram.s_p50);
      ("p95", num s.Histogram.s_p95);
      ("p99", num s.Histogram.s_p99) ]

(** The run-level record flushed with the metrics: ring evictions and the
    ring capacity, so a JSONL reader knows whether the span list is
    complete ([of_jsonl] would otherwise silently report 0 drops). *)
let meta_record (snap : snapshot) : Json.t =
  Json.Obj
    [ ("t", Json.Str "meta");
      ("dropped", Json.Int snap.dropped_spans);
      ("dropped_quanta", Json.Int snap.dropped_quanta);
      ("ring_cap", Json.Int snap.ring_capacity) ]

let metric_records (snap : snapshot) : Json.t list =
  meta_record snap
  :: List.map
    (fun (name, v) ->
      Json.Obj
        [ ("t", Json.Str "counter"); ("name", Json.Str name);
          ("value", Json.Int v) ])
    snap.counters
  @ List.map
      (fun (name, v) ->
        Json.Obj
          [ ("t", Json.Str "gauge"); ("name", Json.Str name);
            ("value", num v) ])
      snap.gauges
  @ List.map (fun (name, s) -> hist_record name s) snap.histograms

(** Stream a snapshot's metric records to [oc]. The [Jsonl] sink already
    streamed the spans as they closed; this is the end-of-run flush. *)
let output_metrics oc (snap : snapshot) =
  List.iter
    (fun record ->
      output_string oc (Json.to_string record);
      output_char oc '\n')
    (metric_records snap)

(** The whole snapshot as JSONL text: spans, then quanta, then metrics
    (the streaming sink interleaves spans and quanta in real time
    instead; [output_metrics] deliberately re-emits neither). *)
let to_jsonl (snap : snapshot) : string =
  let buf = Buffer.create 4096 in
  List.iter
    (fun sp ->
      Buffer.add_string buf (Json.to_string (span_record sp));
      Buffer.add_char buf '\n')
    snap.spans;
  List.iter
    (fun q ->
      Buffer.add_string buf (Json.to_string (quantum_record q));
      Buffer.add_char buf '\n')
    snap.quanta;
  List.iter
    (fun record ->
      Buffer.add_string buf (Json.to_string record);
      Buffer.add_char buf '\n')
    (metric_records snap);
  Buffer.contents buf

let span_of_record (j : Json.t) : span =
  let get key =
    match Json.member key j with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "obs record misses %S" key)
  in
  let b = Json.to_float (get "b") and e = Json.to_float (get "e") in
  { sp_id = Json.to_int (get "dst");
    sp_parent = Json.to_int (get "src");
    sp_name = Json.to_str (get "label");
    sp_attrs =
      (match Json.member "attrs" j with
      | Some attrs ->
        List.map (fun (k, v) -> (k, Json.to_str v)) (Json.to_obj attrs)
      | None -> []);
    sp_start = b;
    sp_dur = e -. b }

let summary_of_record (j : Json.t) : Histogram.summary =
  let f key =
    match Json.member key j with Some v -> Json.to_float v | None -> Float.nan
  in
  let i key =
    match Json.member key j with Some v -> Json.to_int v | None -> 0
  in
  { Histogram.s_count = i "count";
    s_sum = f "sum";
    s_min = f "min";
    s_max = f "max";
    s_p50 = f "p50";
    s_p95 = f "p95";
    s_p99 = f "p99" }

(** Rebuild a snapshot from exported JSONL (the [ldv stats] reader).
    Unknown record types are skipped so the format can grow. A malformed
    or truncated line raises [Ldv_errors.Error (Decode_error _)] with its
    1-based line number, matching the [Recorder.decode] convention —
    except on the file's final line: a crash kills the streaming sink
    mid-record, so an unreadable trailing record is the expected
    signature of a torn sink. It is reported as a typed
    [Ldv_errors.Sink_torn] warning and skipped, and the (complete)
    prefix decodes normally — post-crash [ldv stats] works. *)
let of_jsonl (data : string) : snapshot =
  let spans = ref [] in
  let dropped = ref 0 in
  let ring_cap = ref 0 in
  let quanta = ref [] in
  let dropped_quanta = ref 0 in
  let counters = ref [] in
  let gauges = ref [] in
  let histograms = ref [] in
  let lines = String.split_on_char '\n' data in
  let last_line =
    let last = ref 0 in
    List.iteri (fun i line -> if String.trim line <> "" then last := i) lines;
    !last
  in
  lines
  |> List.iteri (fun i line ->
         let line = String.trim line in
         let fail fmt =
           Format.kasprintf
             (fun what ->
               Ldv_errors.fail (Ldv_errors.Decode_error { line = i + 1; what }))
             fmt
         in
         try
         if line <> "" then begin
           let j =
             match Json.of_string line with
             | j -> j
             | exception Json.Parse_error what -> fail "%s" what
           in
           let name () =
             match Json.member "name" j with
             | Some n -> Json.to_str n
             | None -> fail "obs record misses \"name\""
           in
           let int_member ?(default = 0) key =
             match Json.member key j with
             | Some v -> Json.to_int v
             | None -> default
           in
           match
             match Option.map Json.to_str (Json.member "t" j) with
             | Some "span" -> spans := span_of_record j :: !spans
             | Some "quantum" ->
               let gs =
                 match Json.member "gauges" j with
                 | Some g ->
                   List.map (fun (k, v) -> (k, Json.to_float v)) (Json.to_obj g)
                 | None -> []
               in
               let at =
                 match Json.member "at" j with
                 | Some v -> Json.to_float v
                 | None -> 0.0
               in
               quanta :=
                 { q_round = int_member "round"; q_time = at; q_gauges = gs }
                 :: !quanta
             | Some "meta" ->
               dropped := int_member "dropped";
               dropped_quanta := int_member "dropped_quanta";
               ring_cap := int_member "ring_cap"
             | Some "counter" -> counters := (name (), int_member "value") :: !counters
             | Some "gauge" ->
               let v =
                 match Json.member "value" j with
                 | Some v -> Json.to_float v
                 | None -> Float.nan
               in
               gauges := (name (), v) :: !gauges
             | Some "hist" ->
               histograms := (name (), summary_of_record j) :: !histograms
             | _ -> ()
           with
           | () -> ()
           | exception Json.Parse_error what -> fail "%s" what
           | exception Invalid_argument what -> fail "%s" what
         end
         with
         | Ldv_errors.Error (Ldv_errors.Decode_error { line; what })
           when i = last_line ->
           Ldv_errors.warn (Ldv_errors.Sink_torn { line; what }));
  let by_name (a, _) (b, _) = String.compare a b in
  { spans = List.rev !spans;
    dropped_spans = !dropped;
    ring_capacity = !ring_cap;
    quanta = List.rev !quanta;
    dropped_quanta = !dropped_quanta;
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !histograms }

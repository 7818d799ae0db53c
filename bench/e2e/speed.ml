(* Machine speed. The benchmark runs on small shared machines whose
   other tenants slow all code down by up to 60% for seconds to minutes
   at a time; over ten runs, the medians of a stage's wall time spread by
   20-40% in such periods. So a run also times a fixed computation of
   its own, the reference, next to every timed stage and set-up, and
   reports each time scaled to the speed at which the reference takes
   [reference_s]: seconds at reference speed. A change to the library
   leaves the reference as it is, so it moves a scaled time as much as
   the measured one.

   The reference is ordinary OCaml work of the kind the pipeline does:
   string keys in a balanced map, a list sort, a buffer. Its blocks die
   young: a call promotes ~3500 words to the major heap and starts no
   major collection, so its time depends on the machine, not on the heap
   the benchmark has built. *)

module SM = Map.Make (String)

(* Its time on an idle machine (2-core x86-64 VM, OCaml 5.1). *)
let reference_s = 0.0095

let work () =
  let acc = ref 0 in
  for round = 1 to 700 do
    let m = ref SM.empty in
    for i = 1 to 60 do
      let k = string_of_int ((i * 7919) + round) in
      m := SM.add k (i, k) !m
    done;
    let l = SM.fold (fun k (i, _) l -> (String.length k + i) :: l) !m [] in
    let b = Buffer.create 64 in
    List.iter
      (fun x -> if x land 7 = 0 then Buffer.add_string b (string_of_int x))
      (List.sort compare l);
    acc := !acc + Buffer.length b + SM.cardinal !m
  done;
  !acc

(** Seconds the reference takes now. *)
let time () =
  let t0 = Clock.now () in
  ignore (Sys.opaque_identity (work ()));
  Clock.now () -. t0

(** The factor that scales seconds measured while the reference took
    [times] to seconds at reference speed. *)
let factor times = reference_s /. Stats.median_of_sorted (Stats.sorted times)

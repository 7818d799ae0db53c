(** Seconds on the monotonic clock, at nanosecond resolution. *)
external now : unit -> (float[@unboxed])
  = "ldvbench_now" "ldvbench_now_unboxed"
[@@noalloc]

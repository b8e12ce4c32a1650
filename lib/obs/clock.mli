(** The process clock: every timestamp and duration in the program is read
    here.

    A monotonic clock ([CLOCK_MONOTONIC] through
    [bechamel.monotonic_clock]) relative to a per-process epoch: it never
    steps with the wall clock, so spans and budgets measure elapsed time
    even across NTP adjustments.  Reads are not serialized; trace order
    comes from stamping under the sink's (or flight recorder's) lock. *)

val now_ns : unit -> int
(** Nanoseconds since the process epoch; never decreases. *)

val s_of_ns : int -> float
(** Convenience: nanoseconds to seconds. *)

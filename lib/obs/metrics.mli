(** Metrics registry.

    Named counters, gauges, histograms with fixed log-spaced buckets,
    time series, and monotonic timers.  Handles are get-or-create by name;
    all operations on a {!null} registry (and on handles obtained from it)
    are no-ops, so instrumentation can stay in place unconditionally.
    Counters are lock-free ([Atomic]); the other instruments take the
    registry mutex, so worker domains may record concurrently.

    Recording only reads algorithm state — metrics can never perturb a
    run. *)

type t

val create : unit -> t
val null : t
(** The disabled registry: every operation is a cheap no-op. *)

val enabled : t -> bool

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val default_bounds : float array
(** Log-spaced, 3 buckets per decade from 1e-9 to 1e4 (plus the implicit
    overflow bucket) — wide enough for durations in seconds and for small
    integral quantities alike. *)

val histogram : ?bounds:float array -> t -> string -> histogram
(** [bounds] must be strictly increasing; it is fixed at first creation
    (later calls with the same name return the existing histogram). *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

(** {1 Series} *)

type series

val series : t -> string -> series
(** An append-only sequence of float samples — trajectories (acceptance
    rate per temperature, overflow per iteration) live here.  Declaring a
    series makes its key appear in {!to_json} even with no samples. *)

val sample : series -> float -> unit
val series_values : series -> float list
(** Oldest first. *)

(** {1 Timers} *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Monotonic-clock timer: runs the thunk, observes its duration in
    seconds in histogram [name] and bumps counter [name ^ ".calls"].
    Exactly the thunk when the registry is disabled. *)

(** {1 Export} *)

val to_json : t -> string
(** The whole registry as one compact JSON line ({!Json.to_string}) with
    "counters", "gauges", "histograms" and "series" sections, keys sorted —
    deterministic for a given recorded state. *)

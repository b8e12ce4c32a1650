(** Reading side of the trace schema: load a JSONL trace file, validate it,
    and render a human-readable run summary ([twmc report]). *)

type json = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list
(** {!Json.t}, re-exported for the readers below.  {!parse_json} reads
    every number as [Num]; only writers build [Int]. *)

type event = {
  v : int;  (** Schema version stamped on the line; 0 when absent. *)
  ev : string;  (** "meta", "span_begin", "span_end" or "point". *)
  id : int;  (** 0 when absent. *)
  parent : int;
  name : string;
  t_ns : int;
  attrs : (string * json) list;
  line : int;
      (** 1-based line in the file the event was loaded from; 0 for
          synthetic events.  {!validate} reports it when present. *)
}

val parse_json : string -> json
(** Minimal JSON parser (objects, arrays, strings, numbers, booleans,
    null); raises [Failure] on malformed input. *)

val event_of_json : ?line:int -> json -> event
(** One trace line as an {!event} ([line], default 0, is stamped into the
    result for error reporting).  Raises [Failure] when [j] is not an
    object.  The incremental reader behind [twmc report tail] uses this on
    lines as they appear, where {!load} would demand the whole file. *)

val of_sink_event : Sink.event -> event
(** An event as {!load} would read it back from a trace file: attrs go
    through the one JSON printer, so a non-finite float reads as its
    string. *)

val load : string -> event list
(** Parses a JSONL trace file; raises [Failure "path:line: reason"] on the
    first malformed or non-object line, naming the offending line and why
    it was rejected. *)

val validate : event list -> string list
(** Schema validation: a leading meta line with a supported version,
    non-decreasing timestamps, every [span_end] matching an open
    [span_begin] of the same id, no span left open, and parents that are
    open when their children begin.  Returns the problems found ([[]] means
    valid). *)

(** {2 Reading events}

    The accessors every trace consumer ([pp_summary], {!Health},
    {!Progress}, {!Metrics}) reads events through. *)

val attr_f : event -> string -> float
(** A numeric attr; [nan] when absent or not a number. *)

val whole_or_unknown : float -> string
(** A whole number as text, or ["?"] for [nan] — how every reader shows a
    number that {!attr_f} found missing. *)

val attr_s : event -> string -> string
(** A string attr; [""] when absent or not a string. *)

val winner : event list -> int option
(** The winning replica of a best-of-K stage 1: the [index] of the last
    ["stage1.winner"] point, if any. *)

val replica_points : string -> winner:int option -> event list -> event list
(** The point events of one name, in trace order, restricted to the
    [replica] attr [winner] when one is given (points without a [replica]
    attr are then dropped). *)

type route_pass = {
  pass : int;  (** 1-based, in trace order. *)
  before : float;  (** Overflow before the pass; [nan] when absent. *)
  after : float;
  length : float;  (** Total routed length; [nan] when absent. *)
  nets : float;
}

val route_passes : event list -> route_pass list
(** One entry per ["route.assign"] point. *)

val pp_summary : Format.formatter -> event list -> unit
(** Per-stage wall time, top-5 slowest spans, the stage-1 acceptance curve
    (winning replica when identifiable) and the router overflow trend. *)

(** {2 Bench-kernel comparison}

    Reads the [{"kernels": [{"name", "ns_per_op"}]}] JSON the bench harness
    writes ([bench/main.exe -- micro --json]) and compares two snapshots,
    the backing for [twmc report compare] and the CI perf-regression
    gate. *)

val load_bench : string -> (string * float) list
(** Kernel name → ns/op, in file order; raises [Failure] with the path and
    reason on malformed input. *)

val bench_to_string : (string * float) list -> string
(** The snapshot {!load_bench} reads, as one JSON line: loading the written
    text returns the same kernels in the same order. *)

type bench_row = {
  kernel : string;
  old_ns : float;
  new_ns : float;
  delta_pct : float;  (** [100 · (new − old) / old]; positive = slower. *)
}

type bench_comparison = {
  rows : bench_row list;  (** Kernels present on both sides, in old order. *)
  regressions : bench_row list;
      (** Rows with [delta_pct > max_regress_pct]. *)
  only_old : string list;
  only_new : string list;
}

val compare_benches :
  max_regress_pct:float ->
  (string * float) list ->
  (string * float) list ->
  bench_comparison
(** [compare_benches ~max_regress_pct old new] intersects by kernel name;
    kernels present on only one side are listed but never counted as
    regressions. *)

val pp_bench_comparison : Format.formatter -> bench_comparison -> unit

(** Trace-event sinks.

    Events flow through a sink; the [Null] sink is the disabled path and
    every producer is expected to test {!enabled} before building an event
    (or its attrs), so that a disabled trace costs one branch and allocates
    nothing.  Enabled sinks serialize events as JSONL
    (schema {!schema_version}); writes are mutex-protected so worker
    domains can emit concurrently. *)

val schema_version : int
(** Version stamped into every emitted line ([{"v":2,...}]); bumped on any
    incompatible change to the event shapes below.  v2 keeps v1's event
    shapes and adds the ["twmc-flight"] meta name used by flight-recorder
    dumps; readers accept any version up to this one, so v1 traces stay
    loadable. *)

type event =
  | Span_begin of {
      id : int;  (** Process-unique, > 0. *)
      parent : int;  (** Enclosing span id on this domain, 0 for none. *)
      name : string;
      t_ns : int;
      attrs : Attr.t;
    }
  | Span_end of { id : int; name : string; t_ns : int; attrs : Attr.t }
  | Point of { name : string; t_ns : int; attrs : Attr.t }

type t

val null : t
(** The disabled sink: {!emit} is a no-op, {!enabled} is [false]. *)

val enabled : t -> bool

val memory : unit -> t
(** Collects every event in memory; retrieve with {!memory_events}.  A
    [--metrics] run without [--trace] records here and folds the events
    with {!Metrics.of_events} when it finishes. *)

val memory_events : t -> event list
(** Events collected so far, oldest first.  [[]] for non-memory sinks. *)

val to_file : string -> t
(** Opens [path] for writing and emits JSONL; call {!close} when done. *)

val emit_stamped : t -> (int -> event) -> unit
(** [emit_stamped t make] emits [make t_ns], where [t_ns] is read from
    {!Clock.now_ns} while the sink's lock is held.  Events from concurrent
    domains therefore reach the sink in timestamp order, which
    [Report.validate] requires; {!Ctx} emits through this. *)

val close : t -> unit
(** Flushes, and closes the underlying channel for {!to_file} sinks. *)

val jsonl_of_event : event -> string
(** One JSON line (no trailing newline) for an event. *)

val meta_jsonl : name:string -> t_ns:int -> Attr.t -> string
(** The meta line that opens a trace file ([name] ["twmc-trace"]) or a
    flight-recorder dump (["twmc-flight"]), in the layout of
    {!jsonl_of_event}. *)

(** The observability handle threaded through the flow: a span tracer over
    one {!Sink}.

    Every instrumented entry point takes [?obs:Ctx.t] defaulting to
    {!disabled}.  The trace is the one record of a run: [--metrics] is
    {!Metrics.of_events} folded over the events this handle emitted.
    Spans nest per domain (the parent of a new span is the innermost open
    span started {e on the same domain}); points are instant events.  The
    contract, relied on by the determinism test suite:

    - {!disabled} adds one branch per instrumentation site and allocates
      nothing (producers guard attr construction on {!tracing}, and
      {!span}/{!point} are fully applied);
    - an enabled handle only {e reads} algorithm state — never the RNG,
      never a cost accumulator — so results are bit-identical with
      observability on or off, at any [--jobs]. *)

type t

val disabled : t
(** The handle over {!Sink.null}. *)

val create : Sink.t -> t

val tracing : t -> bool
(** The sink is live; guard attr construction on this. *)

val point : t -> name:string -> ?attrs:Attr.t -> unit -> unit
(** Instant event.  No-op when disabled — but callers that build non-empty
    [attrs] should still guard on {!tracing} to avoid the list
    allocation. *)

val span : t -> name:string -> ?attrs:Attr.t -> (unit -> 'a) -> 'a
(** [span t ~name f] emits [span_begin], runs [f], emits [span_end]; when
    [f] raises, the end event carries [error = true] and the exception is
    re-raised.  When disabled this is exactly [f ()]. *)

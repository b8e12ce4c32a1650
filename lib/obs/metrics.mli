(** The [--metrics] document, folded from a run's trace.

    The trace is the one record of a run; this module reads it once, in
    order, through {!Report}'s accessors and accumulates four sections:

    - {b counters} are sums: the [stage1.moves]/[stage2.moves] points'
      attributes ([<stage>.moves.<attr>]), the per-class attempts and
      accepts of [stage1.classes]/[stage2.classes]
      ([<stage>.class.<cls>.attempts]/[.accepts]), one
      [stage2.refinements] per [route.iteration], one [stage2.rollbacks]
      per [stage2.rollback], [route.passes], [route.nets_routed],
      [route.nets_unroutable] and [route.assign_attempts] from
      [route.assign], [route.routes_enumerated] from [route.net],
      [flow.retries] from [flow.status], [pool.tasks] and [pool.batches]
      from [pool.shutdown];
    - {b gauges} take the last value: [flow.teil_final],
      [flow.area_final], [flow.elapsed_s], and on a constrained netlist
      [cons.c4] and [cons.<kind>.penalty], from [flow.result];
      [flow.diagnostics] from [flow.status]; [pool.imbalance] from
      [pool.shutdown];
    - {b histograms}: [route.alternatives_per_net] over the [route.net]
      points, in 40 log-spaced buckets (3 per decade from 1e-9 to 1e4)
      plus an overflow bucket; only non-empty buckets are written;
    - {b series}, oldest sample first: at each [flow.result], the six
      [stage1.*] trajectories of the winning replica of the last stage-1
      attempt and [stage2.acceptance] over the refinements that were kept
      (a [stage2.rollback] drops its refinement's samples);
      [route.overflow] and [stage2.teil] per [route.iteration];
      [stage1.replica_cost] per [stage1.replica]; [pool.busy_s] and
      [pool.utilization] per [pool.domain].  A [flow.result] declares
      [pool.utilization] and [route.overflow] even when they stay empty.

    Keys are sorted within each section.  The fold reads events only, so a
    trace file loaded with {!Report.load} and the same events collected in
    a {!Sink.memory} (through {!Report.of_sink_event}) give the same
    document. *)

val of_events : Report.event list -> Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {..},
    "series": {..}}]; events the fold does not read are skipped. *)

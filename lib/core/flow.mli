(** The complete TimberWolfMC flow: stage-1 annealing placement with the
    dynamic interconnect-area estimator, followed by stage-2 refinement
    (channel definition → global routing → low-temperature refinement,
    iterated).  This is the top-level entry point a downstream user calls;
    everything else in the package is reachable from its result. *)

type result = {
  netlist : Twmc_netlist.Netlist.t;
  stage1 : Twmc_place.Stage1.result;
  stage2 : Stage2.result;
  teil_stage1 : float;  (** TEIL at the end of stage 1 (Table 3 input). *)
  area_stage1 : int;  (** Chip (expanded bounding box) area after stage 1. *)
  teil_final : float;
  area_final : int;
  chip : Twmc_geometry.Rect.t;
  elapsed_s : float;
      (** Wall-clock seconds from the start of stage 1 (or of the restore
          from a checkpoint) to the result, read from {!Twmc_obs.Clock}: the
          lint gate, the checkpoint load and the worker pool's start-up are
          not counted.  Wall time, not process CPU time, so work spread
          over several domains does not inflate it. *)
}

val run :
  ?params:Twmc_place.Params.t ->
  ?seed:int ->
  ?core:Twmc_geometry.Rect.t ->
  ?jobs:int ->
  ?replicas:int ->
  ?obs:Twmc_obs.Ctx.t ->
  Twmc_netlist.Netlist.t ->
  result
(** The flow of {!run_resilient} with its defaults — lenient lint, up to
    two seed-perturbed stage-1 retries, stage-2 rollback, no budget, no
    checkpoints — returning the flow itself.  A netlist that lints clean and
    trips no guard gives exactly the uninterrupted flow.  Raises [Failure]
    naming the status and every diagnostic when there is no result: the
    netlist is lint-fatal ([Invalid_input]) or stage 1 failed on every
    attempt.

    [seed] (default the params' seed) drives every stochastic choice; runs
    are reproducible.

    [core] overrides the stage-1 core region (default: sized by
    {!Twmc_estimator.Core_area} and centered on the origin) — the QA
    harness uses this to drive deliberately undersized or degenerate core
    specs through the flow.

    [replicas] (default 1) runs stage 1 as that many independent annealing
    replicas — Sechen's seed-parallel multi-start — and keeps the placement
    with the lowest total cost (ties to the lowest replica index).  [jobs]
    (default 1) is the number of domains used to execute replicas and the
    per-net route enumeration.  [jobs] is pure mechanism: for a fixed
    [(seed, replicas)] the result is bit-identical whatever [jobs] is;
    only [replicas] changes the answer.

    [obs] (default {!Twmc_obs.Ctx.disabled}, zero overhead) threads tracing
    through every stage: a ["flow"] span (attrs [netlist], [cells],
    [seed], [jobs], [replicas], [resumed]) containing one ["stage1"] span
    per attempt, ["stage2"] and routing child spans and per-temperature
    points, a ["flow.result"] point when a result exists ([teil], [area],
    [elapsed_s]; [c4] and [penalty.<kind>] on a constrained netlist) and
    a ["flow.status"] point ([status], [retries], [resumed],
    [diagnostics]); with [jobs > 1] the pool's [pool.domain] and
    [pool.shutdown] points follow.  {!Twmc_obs.Metrics.of_events} folds
    these events into the [--metrics] document.
    Instrumentation only reads algorithm state — for a fixed
    [(seed, replicas)] the result is bit-identical with observability on or
    off, at any [jobs]. *)

type status =
  | Clean  (** Completed with nothing fatal (exit code 0). *)
  | Degraded
      (** Completed but with rollbacks, an unroutable final route, or
          fatal-severity diagnostics — the result is usable best-effort
          (exit code 3). *)
  | Invalid_input  (** Netlist lint failed; no flow was run (exit code 4). *)
  | Timed_out
      (** The wall-clock budget fired; the result (when present) is the
          best configuration reached in time (exit code 5). *)

val status_to_string : status -> string

type resilient_result = {
  flow : result option;
      (** [None] only for invalid input or when stage 1 failed on every
          retry. *)
  status : status;
  diagnostics : Twmc_robust.Diagnostic.t list;
      (** Everything observed, in order: lint, inter-stage invariants,
          guard events. *)
  retries_used : int;
}

type checkpoint_cfg = {
  dir : string;  (** Created (recursively) if absent. *)
  every : int;
      (** Write a durable checkpoint after every [every]-th stage-2
          refinement (clamped to at least 1); one is always written right
          after stage 1. *)
}

val checkpoint_path : checkpoint_cfg -> Twmc_netlist.Netlist.t -> string
(** [dir/<netlist name>.ckpt], with ['/'] and ['\\'] in the name mapped to
    ['_'] so the file stays inside [dir] — where {!run_resilient} writes and
    where {!resume} expects to read. *)

val run_resilient :
  ?params:Twmc_place.Params.t ->
  ?seed:int ->
  ?core:Twmc_geometry.Rect.t ->
  ?strict:bool ->
  ?time_budget_s:float ->
  ?max_retries:int ->
  ?jobs:int ->
  ?replicas:int ->
  ?checkpoint:checkpoint_cfg ->
  ?flight:string ->
  ?obs:Twmc_obs.Ctx.t ->
  Twmc_netlist.Netlist.t ->
  resilient_result
(** Guarded end-to-end flow: never raises (resource-exhaustion exceptions
    and the fault injector's simulated process death excepted).  The
    netlist is linted first ([strict], default false, also promotes
    warnings to fatal); stage 1 is retried with perturbed seeds up to
    [max_retries] (default 2) times on failure; stage 2 runs with
    checkpoint/rollback; [time_budget_s] converts both anneals into
    cooperatively-interruptible loops that return the best-so-far
    configuration once the wall clock expires.  [core] behaves as in
    {!run}.  [jobs]/[replicas] behave as in {!run}; when [replicas > 1] an
    Info diagnostic (G404) records every replica's final cost and the
    winner.  The wall-clock guard is shared: every replica polls the same
    budget.

    Between retries the driver sleeps an exponential backoff
    [0.05 s · 2{^attempt} · (0.5 + jitter)],
    where [jitter ∈ \[0, 1)] is drawn from a throwaway generator split off
    the next attempt's seed — deterministic, and invisible to the retry's
    own stream.  The delay is capped by the guard's remaining budget and
    recorded in the [G403] diagnostic.

    When stage 1 fails on every attempt, the result carries a [G405]
    {e error} diagnostic naming the last attempt's failing code and message
    (the root cause), and the status is [Timed_out] when the budget caused
    the exhaustion, [Degraded] otherwise.

    [checkpoint] enables crash-durable checkpoints: one written (via
    {!Twmc_robust.Checkpoint.save}, atomically) right after stage 1 commits
    and one at every [every]-th stage-2 iteration boundary, each carrying
    the placement, the flow position and the RNG cursor.  A write failure
    degrades to a [G410] warning.  A flow killed at any point can be
    re-entered with {!resume} from the last checkpoint on disk, and
    {b reproduces the uninterrupted run's final placement and routing
    byte-for-byte}.

    [obs] behaves as in {!run}.

    [flight] names a JSONL file for the {!Twmc_obs.Flight_recorder} black
    box: the ring of recent events is dumped there on any non-Clean
    terminal status, and on the way out of any escaping exception —
    including the fault injector's simulated process death
    ({!Twmc_robust.Fault.Abort}) — so the dump's last entries name the
    site that was executing.  Nothing is written on a Clean exit. *)

val resume :
  ?params:Twmc_place.Params.t ->
  ?strict:bool ->
  ?time_budget_s:float ->
  ?jobs:int ->
  ?checkpoint:checkpoint_cfg ->
  ?flight:string ->
  ?obs:Twmc_obs.Ctx.t ->
  path:string ->
  Twmc_netlist.Netlist.t ->
  resilient_result
(** Re-enter a flow from a durable checkpoint file.  [flight] behaves as
    in {!run_resilient}, [obs] as in {!run} with [resumed] set, [replicas]
    recorded as 1 and [seed] as the checkpoint's.

    The netlist is linted first, then the checkpoint is validated — format
    version, payload length/MD5, netlist fingerprint against [nl],
    parameter fingerprint against [params] — and any mismatch (including a
    torn or truncated file) yields [Invalid_input] with a [G412] error
    diagnostic before the ["flow"] span opens; corrupt input never raises
    and never half-restores.  On success the placement, the stage-1
    metadata and the RNG stream are restored exactly as the writing flow
    left them at the boundary, a [G413] Info diagnostic
    records the re-entry point, and stage 2 continues from the following
    iteration (a [Stage1_done] checkpoint re-enters at iteration 1).

    Because stage-2 iteration boundaries are canonical (every refinement
    starts by re-deriving channels from the placement alone and every
    boundary recomputes all caches from scratch), the resumed flow's final
    placement, routing and cost digests are byte-identical to the
    uninterrupted run at any [jobs].  [params], [strict] and [jobs] must
    match the original invocation ([params] is enforced by fingerprint);
    [checkpoint] continues writing checkpoints for subsequent boundaries.

    The reconstructed {!result.stage1} carries the original run's summary
    figures (TEIL, [t_inf], core, temperature count) but an empty trace and
    fresh move statistics — trajectory telemetry is not persisted. *)

val pp_result : Format.formatter -> result -> unit

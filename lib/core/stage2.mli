(** Stage 2 of TimberWolfMC (Sec 4): iterated placement refinement.

    Each refinement execution performs the paper's three steps:

    + {b channel definition} — extract all critical regions of the current
      placement and build the channel graph (Sec 4.1);
    + {b global routing} — route every net on that graph (Sec 4.2); the
      routed densities give each channel's expected width
      [w = (d + 2)·t_s] (Eqn 22);
    + {b placement refinement} — expand each cell edge statically by half
      its adjacent channels' required width and run a low-temperature
      anneal (Table 2 schedule) from the temperature at which the
      range-limiter window is the fraction μ = 0.03 of the core (Eqns
      25–28).  Only single-cell displacements and pin moves are generated;
      orientations and aspect ratios stay frozen (Sec 4.3).

    Three executions suffice for the TEIL and chip area to converge; the
    third run stops when the cost is unchanged for 3 consecutive inner
    loops. *)

type iteration = {
  regions : int;  (** Critical regions found. *)
  graph_edges : int;
  routed_nets : int;
  unroutable_nets : int;
  route_length : int;  (** Total global-routing length [L]. *)
  route_overflow : int;  (** Residual [X] after phase 2. *)
  teil_after : float;
  chip_after : Twmc_geometry.Rect.t;
  cost_after : float;
  overlap_after : float;
}

type result = {
  placement : Twmc_place.Placement.t;
  iterations : iteration list;
      (** Successful refinements only; rolled-back ones are absent. *)
  final_route : Twmc_route.Global_router.result option;
      (** The routing re-run after the last refinement so it reflects the
          final placement; [None] when it failed or the budget expired
          first. *)
  teil : float;
  chip : Twmc_geometry.Rect.t;
  interrupted : bool;  (** A [should_stop] budget fired during the stage. *)
  rollbacks : int;  (** Refinements undone and restored from their snapshot. *)
  diagnostics : Twmc_robust.Diagnostic.t list;
      (** Invariant findings (I3xx) and guard events (G4xx), in order. *)
  trace : Twmc_place.Stage1.temp_record list;
      (** Per-temperature trajectory of the refinement anneals, all
          iterations concatenated in order (rolled-back ones excluded) —
          the same record type as stage 1's trace, so acceptance curves of
          both stages plot uniformly. *)
}

val required_expansions :
  Twmc_place.Placement.t ->
  Twmc_route.Global_router.result ->
  (int * int * int * int) array
(** Per cell, the (left, right, bottom, top) static expansions: half of
    [w = (d+2)·t_s] for the densest channel bordering each side, with a
    one-track floor. *)

val run :
  rng:Twmc_sa.Rng.t ->
  ?should_stop:(unit -> bool) ->
  ?pool:Twmc_util.Domain_pool.t ->
  ?obs:Twmc_obs.Ctx.t ->
  ?start_iteration:int ->
  ?on_iteration:(int -> unit) ->
  Twmc_place.Stage1.result ->
  result
(** The full stage 2: [refinement_iterations] executions (from the
    placement's params) followed by a final routing pass.

    [start_iteration] (default 1) begins the refinement loop at a later
    index — used by {!Flow.resume} to re-enter the stage at the iteration
    following a durable checkpoint; [n + 1] skips straight to the final
    routing pass.  [on_iteration i] is called after refinement [i] has
    executed (kept or rolled back — both leave the placement at a committed
    iteration boundary), before the final route; budget-skipped iterations
    do not invoke it.  The callback must not mutate the placement or draw
    from [rng].

    Each refinement runs against a {!Twmc_robust.Checkpoint} snapshot: if
    it raises, violates placement invariants, or more than doubles the
    TEIL, the placement is rolled back to the snapshot and the event
    recorded as a [G4xx]/[I3xx] diagnostic instead of propagating
    ([Out_of_memory], [Stack_overflow], [Sys.Break] and the fault
    injector's [Abort] still propagate).  The final route is checked
    against the channel-graph and route invariants; a failing or
    budget-cut one degrades to [final_route = None] rather than raising.

    [obs] wraps the stage in a ["stage2"] span (one ["stage2.refine"] child
    per execution plus a ["stage2.final_route"] child), emits one
    ["route.iteration"] point per kept refinement and one
    ["stage2.rollback"] point ([iteration]) per rolled-back one, and the
    refinement anneals' per-temperature ["stage2.temp"], ["stage2.moves"]
    and per-class ["stage2.classes"] points — all from returned data on
    the caller's domain, so results are byte-identical with it on or off. *)

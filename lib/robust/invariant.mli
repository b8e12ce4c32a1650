(** Inter-stage invariant checks (codes I3xx).

    Run between pipeline stages by the guarded flow driver: each function
    inspects one stage artifact and returns diagnostics instead of raising.
    Severities encode recoverability — [Error] means the artifact is
    unusable (NaN costs, inconsistent graph), [Warning] means degraded but
    usable (cells outside the core, residual drift that was repaired). *)

val placement : Twmc_place.Placement.t -> Diagnostic.t list
(** Checks, in order:
    - cached-cost drift against a full recomputation (I300, warning — the
      caches are repaired as a side effect, reusing the stage-1 drift
      oracle);
    - NaN or negative cost terms after recomputation (I301, error);
    - cell tiles outside the core region (I302, warning — stage 2 grows
      the core, so excursions are legal but worth surfacing). *)

val channel_graph : Twmc_channel.Graph.t -> Diagnostic.t list
(** Structural consistency (I303, error): edge endpoints in range, positive
    capacities, and neighbour slots that agree with the edge list — offsets
    from 0 to [2 * n_edges] that never decrease, slot edge ids in range,
    each slot's edge joining the slot's node to its neighbour, and each
    slot's length equal to its edge's. *)

val route : Twmc_route.Global_router.result -> Diagnostic.t list
(** Accounting sanity (I304, error): non-negative lengths/overflow/densities
    and route/graph agreement. *)

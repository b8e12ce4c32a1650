(** The metamorphic oracle pack: properties that must hold of any flow
    output, checked without reference to expected values.

    Each oracle either recomputes a quantity through an independent code
    path (TEIC from raw pin positions, channel density from the selected
    routes) or applies a transformation with a known effect on the cost
    (global translation, relabeling, orientation round-trips, η scaling)
    and checks the implementation agrees.  Placement oracles mutate the
    placement temporarily but always restore it — even when a check
    fails — so they can run against a live flow result.

    All checks return the empty list on success; a non-empty list is a
    genuine invariant violation, never a tolerance artifact (comparisons
    use relative tolerances well above accumulated float noise). *)

type failure = {
  oracle : string;  (** Stable oracle name, e.g. ["teic-independent"]. *)
  detail : string;
}

val pp_failure : Format.formatter -> failure -> unit

val check_placement : Twmc_place.Placement.t -> failure list
(** The placement-level pack, in order: [finite-costs] (every cost term
    finite and non-negative), [teic-independent] (C1/TEIL recomputed from
    {!Twmc_place.Placement.pin_position} match the incremental
    accumulators), the constraint-penalty checks (C4 accounting, fixed-cell
    exactness, translation invariance, density and keepout monotonicity)
    when the netlist carries constraints, [translation] (C1/TEIL
    invariant under a global cell translation, and exactly restored after
    translating back),
    [orient-cycle] (cycling a cell through all eight orientations and back
    restores C1/TEIL bit-for-bit), [relabel] (reversing the cell order —
    with net pin references remapped — leaves C1/TEIL unchanged). *)

val check_route :
  Twmc_place.Placement.t -> Twmc_route.Global_router.result -> failure list
(** The routing pack, against the final placement the route was computed
    from: [route-accounting] (edge densities, overflow, per-net and total
    lengths recomputed from the selected routes match the router's
    answers; [overflow <= initial_overflow]), [route-structure] (each
    route is a connected edge subgraph covering a candidate node of every
    terminal of its net), [steiner-lb] (each routed length is at least the
    largest pairwise shortest-path distance between its terminals — a
    Steiner lower bound computed by Dijkstra on the channel graph), and
    [channel-width] (every static expansion from
    {!Twmc.Stage2.required_expansions} lies within the Eqn 22 band
    [[t_s, (d_max + 2)·t_s / 2]]). *)

val check_flow : Twmc.Flow.result -> failure list
(** {!check_placement} on the final placement plus {!check_route} on the
    final route when present. *)

val check_certificate :
  Twmc_netlist.Netlist.t -> Twmc_workload.Peko.certificate -> failure list
(** The constructed-optima (PEKO) certificate pack: [peko-structure] (the
    construction's hypotheses re-verified from the netlist — identical
    single-variant square macros, every pin committed at the bounding-box
    center, unit net weights, every net on at least two distinct cells),
    [peko-bound] (the claimed optimal TEIL equals the per-net packing
    bound [Σ opt_span(degree)·side] re-derived here), [peko-in-core] /
    [peko-overlap-free] (the certified placement is legal), and
    [peko-achieves] (the certified placement's TEIL, recomputed from the
    certified centers, equals the claim — so the bound is attained and the
    optimum is exact). *)

val eta_monotone :
  ?eta:float -> ?samples:int -> seed:int -> Twmc_netlist.Netlist.t ->
  failure list
(** The normalization oracle: run {!Twmc_place.Stage1.normalize_p2} twice
    from identical rng streams at [η] and [2η] ([eta] defaults to the
    stock parameter).  Over the same sampled ensemble [p₂] must not
    decrease, and must double exactly when the sampled overlap was
    nonzero. *)

(** The mutable placement state and the three-term cost function of Sec 3.1.

    Holds, per cell: position (of the variant bounding-box center),
    orientation, selected variant, and the pin-site assignment of
    uncommitted pins; plus the derived caches (absolute tiles, expanded
    tiles and their bounding box, absolute pin positions, per-net TEIC
    contributions and lengths, per-cell C3, per-constraint penalties) that
    make move evaluation incremental.  Every change of a cell is one path:
    one of three entry points evaluates it — {!delta_cell} (a displacement,
    orientation or variant change), {!delta_interchange} (a pairwise
    interchange) or {!delta_sites} (a pin-site move) — {!commit} installs
    what was evaluated, and {!set_cell} is the two in one call.
    {!recompute_all} rebuilds every cache from the cell fields alone,
    independently of that path.

    Cost terms:
    - [C1] — the TEIC (Eqn 6): weighted net spans from exact pin locations;
    - [C2] — the overlap penalty (Eqns 7–8): pairwise intersection area of
      {e expanded} tiles plus overlap with the four core-boundary dummy
      cells (footnote 16), scaled by the normalization [p2] (Eqn 9);
    - [C3] — the pin-site over-capacity penalty (Eqns 10–11, κ = 5), at
      weight 1 as in the paper.

    Tile expansion is pluggable: stage 1 uses the dynamic estimator, stage 2
    a static per-cell, per-side table derived from routed channel widths. *)

type expander =
  | No_expansion
  | Dynamic of Twmc_estimator.Dynamic_area.t
  | Static of (int * int * int * int) array
      (** Per cell: (left, right, bottom, top) outward expansions. *)

type t

val create :
  params:Params.t ->
  core:Twmc_geometry.Rect.t ->
  expander:expander ->
  rng:Twmc_sa.Rng.t ->
  Twmc_netlist.Netlist.t ->
  t
(** Random initial configuration: uniform cell centers in the core, identity
    orientation, variant 0, uncommitted pins on random allowed sites.  The
    initial state does not influence the final TEIC (Sec 3.2.1), so nothing
    fancier is warranted. *)

val netlist : t -> Twmc_netlist.Netlist.t
val params : t -> Params.t
val core : t -> Twmc_geometry.Rect.t
val expander : t -> expander
val set_expander : t -> expander -> unit
(** Swap the expansion model (entering stage 2) and recompute all caches. *)

val set_core : t -> Twmc_geometry.Rect.t -> unit
(** Resize the core (stage 2 grows it when routed channel widths demand more
    space than stage 1 allotted, and shrinks it to compact).  Recomputes the
    boundary-overlap term. *)

(** {2 Per-cell state} *)

val cell_pos : t -> int -> int * int
val cell_x : t -> int -> int
val cell_y : t -> int -> int
(** The two halves of {!cell_pos}, without the tuple. *)

val cell_orient : t -> int -> Twmc_geometry.Orient.t
val cell_variant : t -> int -> int
val site_of_pin : t -> cell:int -> pin:int -> int
(** [-1] for committed pins. *)

val pin_position : t -> cell:int -> pin:int -> int * int
val abs_tiles : t -> int -> Twmc_geometry.Rect.t list
val expanded_tiles : t -> int -> Twmc_geometry.Rect.t list

val allowed_sites : t -> cell:int -> variant:int -> pin:int -> int array
(** [Cell.allowed_sites] as an array, precomputed at {!create}: the sites
    an uncommitted pin may take in a variant, ascending; empty for a
    committed pin.  Shared; do not mutate. *)

val expanded_area : t -> int
(** Total area of every cell's {!expanded_tiles}: the cells plus the
    interconnect area their expanders assign. *)

val set_cell :
  t ->
  int ->
  ?x:int ->
  ?y:int ->
  ?orient:Twmc_geometry.Orient.t ->
  ?variant:int ->
  ?sites:int array ->
  unit ->
  unit
(** One move of cell [ci], evaluated and committed: with only [sites]
    given, the chains of {!delta_sites}; otherwise those of {!delta_cell},
    each field not given keeping its committed value; then {!commit}.  A
    variant change without [sites] re-clamps the site assignment into the
    new variant.  A given [sites] array is copied; it must have one entry per
    pin, and each uncommitted pin's entry must index the (new) variant's
    site table.  Whatever raises — a bad site assignment, a variant or
    cell out of range — raises in the evaluation, before the placement
    changes. *)

(** {2 Cost} *)

val c1 : t -> float
val c2_raw : t -> float
(** Total overlap area, before the [p2] scaling. *)

val c3 : t -> float
val c4 : t -> float
(** Sum of all constraint penalties (integer-valued; 0 when the netlist has
    no constraints). *)

val n_constraints : t -> int
val constraints : t -> Twmc_netlist.Constr.t array
val constraint_penalty : t -> int -> float
(** Cached penalty of one constraint slot (netlist order). *)

val eval_constraint : t -> int -> float
(** From-scratch evaluation of one constraint slot against the current
    geometry, bypassing the cache — the accounting oracle's reference
    value.  Bit-identical to {!constraint_penalty} on an uncorrupted
    placement. *)

val p2 : t -> float
val set_p2 : t -> float -> unit
val total_cost : t -> float
(** [C1 + p2·C2 + C3], plus [C4] when the netlist carries
    constraints.  The unconstrained expression is evaluated verbatim, so
    constraint support cannot perturb unconstrained trajectories. *)

val teil : t -> float
(** Total estimated interconnect length: the unweighted sum of net spans —
    equal to [C1] when all weights are 1. *)

val cell_overlap : t -> int -> float
(** This cell's expanded-tile overlap against all others and the core
    boundary.  The candidates come from a scan of every cell's packed
    bbox, or, from {!grid_min_cells} cells on, from a spatial grid
    (O(local density)). *)

val grid_min_cells : int
(** The cell count from which a placement keeps a spatial grid of its
    cells' bboxes for the overlap term; below it, a scan of one packed
    array is faster, and no grid is built. *)

val chip_bbox : t -> Twmc_geometry.Rect.t
(** Bounding box of all expanded tiles — the effective chip extent. *)

val recompute_all : t -> unit
(** Full rebuild of caches and cost accumulators from the cell fields
    alone: the independent check the incremental path is compared with
    ({!drift_report}), and the rebuild after {!set_core} and
    {!set_expander}. *)

val resum : t -> unit
(** Corrects float drift in the C1 accumulator, once per temperature:
    re-sums it from the per-net values in net order.  The placement is
    then bit for bit what {!recompute_all} would leave: C2, C3, C4 and
    TEIL are sums of integer-valued floats, exact along any chain, and
    each net's C1 is already that of its committed pins.  A mutation, like
    {!recompute_all}. *)

val drift_report : t -> (string * float * float) list
(** Compare the incremental accumulators against a full recomputation:
    [(term, cached, true)] for every term (C1/C2/C3/C4/TEIL) outside
    floating tolerance.  Leaves the placement fully recomputed (i.e. repaired), so a
    caller can treat drift as a recoverable diagnostic. *)

val verify_consistency : t -> unit
(** Asserts {!drift_report} is empty, raising [Failure] on the first
    drifting term; test hook. *)

val verify_index : t -> unit
(** Asserts the packed bboxes match the cells' bboxes and, when the
    placement has a grid, that it holds the same boxes and answers
    queries identically to a from-scratch rebuild; raises [Failure]. *)

(** {2 Evaluate once, commit what was evaluated}

    A proposal is evaluated once, by one of the three entry points below,
    into scratch the placement preallocates: two pending-cell slots (an
    interchange moves two cells), each holding the candidate position,
    orientation, variant and sites and, in flat int arrays, its tiles,
    expanded tiles, bounding box and pin positions; the moved cells' nets,
    rescanned into a per-net C1 and length, and per-constraint penalties,
    in stamped arrays; and the five evaluated accumulators (C1-C4, TEIL)
    in a float array.  Each returns the cost change, without changing the
    placement; on an unconstrained netlist it allocates nothing but its
    boxed float result.  If the Metropolis test accepts, {!commit}
    installs exactly that state.  Any mutation in between — {!set_cell},
    {!commit}, {!set_p2}, {!set_core}, {!set_expander}, {!recompute_all},
    {!resum}, {!restore_cost} — invalidates the evaluation.  An entry
    point that raises (a bad site assignment, a variant or cell out of
    range) leaves no evaluation to commit.

    A move that starts from the committed state takes the moved cell's
    overlap and constraint shares before the move from a memo keyed by
    the cell and the placement's mutation count, so the rungs of a
    rejected rescue ladder, which start from the same committed state,
    compute them once; any of the mutations above invalidates it. *)

val delta_cell :
  t ->
  int ->
  x:int ->
  y:int ->
  orient:Twmc_geometry.Orient.t ->
  variant:int ->
  float
(** [delta_cell t ci ~x ~y ~orient ~variant]: cell [ci] to center
    [(x, y)], orientation [orient] and variant [variant].  Its nets, its
    overlap before and after, and the constraints that name it are
    evaluated; its C3 too when the variant changes, which re-clamps the
    site assignment as {!set_cell} does.  A field equal to the cell's
    committed value leaves it as it is. *)

val delta_interchange :
  t ->
  int ->
  int ->
  orient_i:Twmc_geometry.Orient.t ->
  orient_j:Twmc_geometry.Orient.t ->
  float
(** [delta_interchange t i j ~orient_i ~orient_j]: cell [i] to [j]'s
    position with orientation [orient_i], then [j] to [i]'s with
    [orient_j], each keeping its variant, with both positions read before
    the evaluation.  The second move runs its chains from the state the
    first left, so the result equals, bit for bit, committing the two
    moves one at a time with {!set_cell} and differencing
    {!total_cost}. *)

val delta_sites : t -> int -> int array -> float
(** [delta_sites t ci sites]: cell [ci]'s pins to the site assignment
    [sites] (copied; as {!set_cell}'s [sites]).  The geometry does not
    change, so only the cell's nets and C3 are evaluated. *)

val commit : t -> unit
(** Installs the state the last entry point evaluated: cell fields,
    packed bbox and grid entry, net C1 and length, C3, constraint
    penalties and the accumulators.  Raises [Invalid_argument] when there
    was no evaluation or the placement changed since. *)

(** {2 Cost snapshots} *)

type cost_snapshot

val snapshot_cost : t -> cost_snapshot
val restore_cost : t -> cost_snapshot -> unit
(** Puts back the five cost accumulators only, leaving the cells alone;
    the stale-cache mutation tests use it to corrupt a placement on
    purpose. *)

(** The mutable placement state and the three-term cost function of Sec 3.1.

    Holds, per cell: position (of the variant bounding-box center),
    orientation, selected variant, and the pin-site assignment of
    uncommitted pins; plus the derived caches (absolute tiles, expanded
    tiles, absolute pin positions, per-net TEIC contributions, per-cell
    pin-site occupancy) that make move evaluation incremental.

    Cost terms:
    - [C1] — the TEIC (Eqn 6): weighted net spans from exact pin locations;
    - [C2] — the overlap penalty (Eqns 7–8): pairwise intersection area of
      {e expanded} tiles plus overlap with the four core-boundary dummy
      cells (footnote 16), scaled by the normalization [p2] (Eqn 9);
    - [C3] — the pin-site over-capacity penalty (Eqns 10–11), scaled by
      [p3].

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
val cell_orient : t -> int -> Twmc_geometry.Orient.t
val cell_variant : t -> int -> int
val site_of_pin : t -> cell:int -> pin:int -> int
(** [-1] for committed pins. *)

val pin_position : t -> cell:int -> pin:int -> int * int
val abs_tiles : t -> int -> Twmc_geometry.Rect.t list
val expanded_tiles : t -> int -> Twmc_geometry.Rect.t list

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
(** Mutates the cell and incrementally updates every cache and cost term.
    A variant change re-clamps out-of-range site assignments. *)

val set_cell_sites : t -> int -> int array -> unit
(** Fast path for pin moves: replaces the site assignment only.  Skips the
    tile/overlap work ([C2] cannot change when only pins move), updating pin
    positions, net contributions and occupancy. *)

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
(** [C1 + p2·C2 + p3·C3], plus [p4·C4] when the netlist carries
    constraints.  The unconstrained expression is evaluated verbatim, so
    constraint support cannot perturb unconstrained trajectories. *)

val teil : t -> float
(** Total estimated interconnect length: the unweighted sum of net spans —
    equal to [C1] when all weights are 1. *)

val cell_overlap : t -> int -> float
(** This cell's expanded-tile overlap against all others and the core
    boundary, enumerated through the spatial index (O(local density)). *)

val cell_overlap_scan : t -> int -> float
(** Same total as {!cell_overlap} via the pre-index full scan over all
    cells; reference implementation for benchmarks and differential
    tests. *)

val chip_bbox : t -> Twmc_geometry.Rect.t
(** Bounding box of all expanded tiles — the effective chip extent. *)

val recompute_all : t -> unit
(** Full rebuild of caches and cost accumulators; also the drift-correction
    oracle (called once per temperature step). *)

val drift_report : t -> (string * float * float) list
(** Compare the incremental accumulators against a full recomputation:
    [(term, cached, true)] for every term (C1/C2/C3/C4/TEIL) outside
    floating tolerance.  Leaves the placement fully recomputed (i.e. repaired), so a
    caller can treat drift as a recoverable diagnostic. *)

val verify_consistency : t -> unit
(** Asserts {!drift_report} is empty, raising [Failure] on the first
    drifting term; test hook. *)

val verify_index : t -> unit
(** Asserts the embedded spatial index matches the cell bboxes and answers
    queries identically to a from-scratch rebuild; raises [Failure]. *)

(** {2 Evaluate-without-apply} *)

type move =
  | Cell_move of {
      ci : int;
      x : int option;
      y : int option;
      orient : Twmc_geometry.Orient.t option;
      variant : int option;
      sites : int array option;
    }  (** Mirrors the optional arguments of {!set_cell}. *)
  | Sites_move of { ci : int; sites : int array }
      (** Mirrors {!set_cell_sites}. *)

val delta_cost : t -> move list -> float
(** Cost change of applying the moves in order, without mutating anything.
    Bit-identical to applying them and differencing {!total_cost} — the
    same accumulator chains run in the same order on the same operands —
    so Metropolis decisions (and RNG consumption) are unchanged versus the
    mutate-and-restore trial this enables replacing. *)

val apply_move : t -> move -> unit
(** Commits one move through {!set_cell}/{!set_cell_sites}. *)

(** {2 Trial support} *)

type cell_snapshot
type cost_snapshot

val snapshot_cost : t -> cost_snapshot
val restore_cost : t -> cost_snapshot -> unit
val snapshot_cell : t -> int -> cell_snapshot
val restore_cell : t -> cell_snapshot -> unit
(** Restoring a cell puts back its state fields, caches, occupancy and the
    cached contributions of its nets; globals are restored separately via
    {!restore_cost}. *)

val pp_summary : Format.formatter -> t -> unit

(** The dynamic interconnect-area estimator (Sec 2.2).

    Each tile edge of each cell is expanded outward by

    {v e_w = 0.5 · C_w · f_x(x)·f_y(y)/ᾱ · f_rp(side) v}

    (Eqn 2) where [ᾱ] is the core-mean of [f_x·f_y] (Eqns 3–4), so that the
    {e expected} expansion of a uniformly-placed edge with unit pin density
    is half the average channel width [C_w] — one half per bordering edge.
    The positional factors are re-evaluated at the edge's current location
    every time the cell participates in a move: a cell drifting toward the
    core center swells, one drifting to a corner shrinks. *)

type t

val create :
  ?beta:float ->
  core_w:int ->
  core_h:int ->
  Twmc_netlist.Netlist.t ->
  t
(** Precomputes [C_w] (Eqn 1), the normalization of
    {!Modulation.default}, and the per-side pin density factors.  The core
    is centered on the origin. *)

val c_w : t -> float

val round_nearest : float -> int
(** How every expansion is rounded: to the nearest integer, halves away
    from zero.  It equals [int_of_float (Float.round x)] for finite [x]
    within ±2^53, and calls no libm function. *)

val edge_expansion :
  t -> cell:int -> variant:int -> side:Twmc_netlist.Side.t -> x:float -> y:float -> int
(** Expansion (in grid units, rounded to nearest) for a cell edge whose
    representative point is [(x, y)] in core coordinates. *)

val tile_expansions_into :
  t ->
  cell:int ->
  variant:int ->
  x0:int ->
  y0:int ->
  x1:int ->
  y1:int ->
  int array ->
  int ->
  unit
(** [tile_expansions_into t ~cell ~variant ~x0 ~y0 ~x1 ~y1 out off] writes
    the left, right, bottom and top expansions of the absolutely-positioned
    tile [(x0, y0)-(x1, y1)] into [out.(off)] .. [out.(off + 3)], each side
    evaluated at its own midpoint (Eqn 2's [x_i, y_i]).  Allocates nothing:
    the move-evaluation hot path. *)

val expand_tile :
  t -> cell:int -> variant:int -> Twmc_geometry.Rect.t -> Twmc_geometry.Rect.t
(** The tile grown by its four side expansions — the footprint used by the
    overlap penalty during stage 1. *)

val center_expansion : t -> int
(** Eqn 5: the expansion with maximal modulation and unit pin density, used
    to size the initial core before any edge positions exist. *)

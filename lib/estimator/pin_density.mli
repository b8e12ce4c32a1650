(** Relative pin density of cell edges (Sec 2.2, factor 3).

    The pin density of edge [i] is its pin count over its length; dividing
    by the circuit average [D_p] gives the relative density [d_rp], and the
    modulation factor is [f_rp = max(1, d_rp)] — an edge always receives at
    least the baseline interconnect area even if it carries few pins.

    Densities are aggregated per cell {e side} (left/right/bottom/top):
    exact for the rectangular variants of custom cells, and a faithful
    aggregate for rectilinear macros whose several edges on a side share the
    wiring demand. *)

type t

val compute : Twmc_netlist.Netlist.t -> t
(** Precomputes [D_p] and the per-cell, per-variant, per-side factors;
    uncommitted pins contribute fractionally to every side they may occupy
    (factors 1 and 3 of the estimator "can be determined at the outset and
    stored"). *)

val d_p : t -> float
(** The circuit-average pin density. *)

val f_rp :
  t -> cell:int -> variant:int -> Twmc_netlist.Side.t -> float
(** The factor [max(1, d_rp)] for one side of one cell variant. *)

val f_rp_table : t -> float array array
(** The factors as stored: [(f_rp_table t).(cell).(4 * variant + s)] is
    [f_rp t ~cell ~variant side] for [s] = 0, 1, 2, 3 on the [Left],
    [Right], [Bottom], [Top] side.  Read-only; the per-move expansion
    reads it directly so that no lookup is built per call. *)

val side_density :
  t -> cell:int -> variant:int -> Twmc_netlist.Side.t -> float
(** The raw pin density of the side (pins per unit length), before dividing
    by [D_p]. *)

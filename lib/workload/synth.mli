(** Synthetic macro/custom-cell circuit generator.

    The paper's nine test cases are proprietary industrial circuits of which
    only the cell/net/pin counts are published (Tables 3–4); this generator
    produces deterministic circuits matching those counts, with the
    statistical features the algorithms are sensitive to: log-normally
    distributed cell areas, a range of aspect ratios, occasional rectilinear
    (L/T/U) macros, pins spread over cell boundaries proportionally to
    perimeter, and net degrees of at least two with a heavy two-pin
    population. *)

type spec = {
  name : string;
  n_cells : int;
  n_nets : int;
  n_pins : int;  (** Total pins; must be at least [2 · n_nets]. *)
  frac_custom : float;  (** Fraction of cells generated as soft custom cells. *)
  frac_rectilinear : float;  (** Fraction of macros given L/T/U shapes. *)
  avg_cell_area : float;  (** Mean of the cell-area distribution. *)
  area_sigma : float;  (** Log-space standard deviation of cell areas. *)
  track_spacing : int;
  frac_grouped_pins : float;
      (** Fraction of a custom cell's pins organized into groups/sequences. *)
}

val default_spec : spec
(** A 25-cell, 100-net circuit in the style of the paper's examples. *)

val generate : ?seed:int -> spec -> Twmc_netlist.Netlist.t
(** Deterministic in [(spec, seed)].  Raises [Invalid_argument], naming
    the field and its value, when the counts are inconsistent: fewer than 2
    cells, no net, fewer than [2·n_nets] pins or fewer pins than cells. *)

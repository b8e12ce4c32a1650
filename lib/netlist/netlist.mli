(** The netlist: cells, nets, and the derived cross-references the placement
    and routing algorithms need. *)

type t = private {
  name : string;
  track_spacing : int;  (** [t_s]: center-to-center wiring track separation. *)
  cells : Cell.t array;
  nets : Net.t array;
  nets_of_cell : int list array;
      (** For each cell, the indices of the nets having at least one pin on
          it (deduplicated); drives incremental TEIC updates when a cell
          moves. *)
  constraints : Constr.t array;
      (** Placement constraints in declaration order; each becomes one slot
          of the placement's [C4] penalty accumulator. *)
}

val make :
  name:string ->
  track_spacing:int ->
  ?constraints:Constr.t list ->
  cells:Cell.t list ->
  nets:Net.t list ->
  unit ->
  t
(** Validates the structure: pin references must be in range, every pin's
    [net] field must agree with the net that references it, every net must
    have at least two pin references (counting equivalence classes as one
    effective endpoint is the router's business, not the netlist's), and
    every constraint must reference in-range cells.  Raises
    [Invalid_argument] with a descriptive message otherwise. *)

val n_constraints : t -> int

val n_cells : t -> int
val n_nets : t -> int
val total_pins : t -> int
(** Total pin count over all cells (the paper's "No. Pins" column). *)

val cell_index_opt : t -> string -> int option
(** Index of a cell by name, [None] when absent. *)

val cell_index : t -> string -> int
(** Like {!cell_index_opt} but raises [Invalid_argument] naming both the
    missing cell and the netlist. *)

val net_index : t -> string -> int

val total_cell_area : t -> int
(** Sum of variant-0 cell areas, before interconnect expansion. *)

val average_pin_density : t -> float
(** [D_p]: total pins divided by the sum of all cell perimeters (Sec 2.2,
    factor 3). *)

val pp_summary : Format.formatter -> t -> unit

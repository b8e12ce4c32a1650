(** Placement constraints: typed penalty terms layered onto the paper's
    three-term cost function as the [C4] accumulator.

    Each constraint evaluates to an exact {e integer} penalty (areas and
    Manhattan distances), so the float accumulators the placement builds on
    top of {!eval} cancel exactly — the evaluate-without-apply delta path,
    the apply path and a from-scratch recompute agree bit-for-bit by
    construction.

    Two representations: {!t} carries resolved cell {e indices} and lives on
    the netlist; {!spec} carries cell {e names} and is what the parser, the
    workload mutators and the builder traffic in before indices exist. *)

type axis = H | V

val axis_to_string : axis -> string
val axis_of_string : string -> axis option

type t =
  | Blockage of Twmc_geometry.Rect.t
      (** Keep-clear rectangle: penalty is total cell-tile area inside. *)
  | Keepout of { cell : int; margin : int }
      (** Halo around [cell]: penalty is other cells' tile area within
          [margin] of its tiles. *)
  | Fixed of { cell : int; x : int; y : int }
      (** Preplaced macro: penalty is the Manhattan distance of the cell
          center from [(x, y)].  [Moves] additionally vetoes
          geometric moves of fixed cells. *)
  | Region of { cell : int; rect : Twmc_geometry.Rect.t }
      (** Region lock: penalty is the cell-tile area outside [rect]. *)
  | Boundary of { cell : int; side : Side.t }
      (** Penalty is the distance from the cell bbox to the named core
          edge. *)
  | Align of { a : int; b : int; axis : axis }
      (** Center alignment: [H] aligns y-centers, [V] x-centers. *)
  | Abut of { a : int; b : int }
      (** Penalty is the Manhattan gap between the two cells' bboxes. *)
  | Density of { rect : Twmc_geometry.Rect.t; cap_permille : int }
      (** Penalty is occupied area above [area(rect) · cap/1000]. *)

type spec =
  | Blockage_spec of { x0 : int; y0 : int; x1 : int; y1 : int }
  | Keepout_spec of { cell : string; margin : int }
  | Fixed_spec of { cell : string; x : int; y : int }
  | Region_spec of { cell : string; x0 : int; y0 : int; x1 : int; y1 : int }
  | Boundary_spec of { cell : string; side : Side.t }
  | Align_spec of { a : string; b : string; axis : axis }
  | Abut_spec of { a : string; b : string }
  | Density_spec of {
      x0 : int;
      y0 : int;
      x1 : int;
      y1 : int;
      cap_permille : int;
    }

val kind_name : t -> string

val spec_cells : spec -> string list
(** Cell names a spec references (for lint). *)

val scope : t -> int list option
(** Cells whose movement can change the penalty; [None] means every cell. *)

val resolve : cell_index:(string -> int) -> spec -> t
(** Raises [Invalid_argument] on unknown cells (via [cell_index]), inverted
    rectangles, nonpositive keepout margins, or density caps outside
    (0, 1000]. *)

val spec_of : cell_name:(int -> string) -> t -> spec

val translate : dx:int -> dy:int -> t -> t
(** Shift the constraint's absolute geometry; purely relative constraints
    (keepout, boundary, align, abut) are unchanged. *)

val eval :
  n_cells:int ->
  tiles:(int -> Twmc_geometry.Rect.t list) ->
  pos:(int -> int * int) ->
  core:Twmc_geometry.Rect.t ->
  t ->
  int
(** The penalty under the given view of the placement: [tiles] yields a
    cell's absolute (unexpanded) tiles, [pos] its center. *)

val equal : t -> t -> bool

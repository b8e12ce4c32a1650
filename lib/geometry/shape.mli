(** Rectilinear shapes stored as unions of disjoint rectangular tiles.

    This is the cell-geometry representation of the paper: "the area occupied
    by each rectilinear cell is represented as a set of one or more
    non-overlapping rectangular tiles" (Sec 2.2).  Shapes live in cell-local
    coordinates; placement translates and orients them. *)

type t

val of_tiles : Rect.t list -> t
(** Builds a shape from nonempty, pairwise-disjoint tiles.  Raises
    [Invalid_argument] on an empty list, an empty tile, or overlapping
    tiles. *)

val rectangle : w:int -> h:int -> t
(** A [w]×[h] rectangle whose lower-left corner is the origin. *)

val l_shape : w:int -> h:int -> notch_w:int -> notch_h:int -> t
(** An L: a [w]×[h] rectangle with a [notch_w]×[notch_h] bite removed from
    its upper-right corner.  The notch must be strictly smaller than the
    rectangle in both dimensions. *)

val t_shape : w:int -> h:int -> stem_w:int -> stem_h:int -> t
(** A T: a [w]×[stem_h] bar with a centered [stem_w]-wide stem of height
    [h - stem_h] on top. *)

val u_shape : w:int -> h:int -> notch_w:int -> notch_h:int -> t
(** A U: a [w]×[h] rectangle with a centered [notch_w]×[notch_h] bite removed
    from the middle of its top edge. *)

val tiles : t -> Rect.t list
val area : t -> int
val bbox : t -> Rect.t
val width : t -> int
(** Bounding-box width. *)

val height : t -> int

val boundary_edges : t -> Edge.t list
(** The exposed boundary segments of the shape, with outward sides; collinear
    touching segments are merged.  A plain rectangle yields 4 edges; the
    12-edge cell [C4] of Fig 8 yields 12. *)

val perimeter : t -> int
(** Total boundary length — the denominator of the circuit-average pin
    density [D_p] (Sec 2.2 factor 3). *)

val transform : Orient.t -> t -> t
(** Orientation action about the local origin. *)

val translate : t -> dx:int -> dy:int -> t

val contains_point : t -> int * int -> bool
val overlap_area : t -> t -> int
(** The paper's [O(i, j)] (Eqn 8), without edge expansion. *)

val pp : Format.formatter -> t -> unit

(** The eight cell orientations (the dihedral group D4).

    TimberWolfMC considers all eight orientations of every cell because the
    TEIC is computed from exact pin locations (Sec 1).  An orientation acts on
    cell-local coordinates about the local origin; the placed position of a
    feature is [cell position + apply orientation local offset]. *)

type t =
  | R0    (** identity *)
  | R90   (** rotate 90° counter-clockwise *)
  | R180
  | R270
  | FX    (** mirror across the x-axis (y negated) *)
  | FY    (** mirror across the y-axis (x negated) *)
  | FX90  (** FX then R90: (x, y) -> (y, x); inverts the aspect ratio *)
  | FY90  (** FY then R90: (x, y) -> (-y, -x); inverts the aspect ratio *)

val all : t list
(** The eight orientations, [R0] first. *)

val apply : t -> int * int -> int * int
(** Action on a point about the origin. *)

val apply_rect : t -> Rect.t -> Rect.t
(** Action on a rectangle (corners transformed, result normalized). *)

val compose : t -> t -> t
(** [compose a b] is the orientation acting as [apply a] after [apply b]. *)

val inverse : t -> t

val swaps_axes : t -> bool
(** True when width and height are exchanged, i.e. the aspect ratio is
    inverted.  The generate function's rescue retry (Fig 2) looks for an
    orientation with the opposite [swaps_axes] parity. *)

val aspect_inversion_of : t -> t
(** [aspect_inversion_of o] is a canonical orientation that inverts the
    aspect ratio relative to [o] ([compose FX90 o]). *)

val of_int : int -> t
(** [of_int n] for [0 <= n <= 7]; raises [Invalid_argument] otherwise. *)

val to_int : t -> int
val to_string : t -> string
val of_string : string -> t option
val equal : t -> t -> bool

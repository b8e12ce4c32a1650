(** Macro and custom cells.

    A cell owns one or more {e variants}: alternative geometries from which
    the annealer selects.  Macro cells have exactly one variant (their fixed
    geometry).  Custom cells get one variant per candidate aspect ratio
    and/or per explicit instance — this uniformly models the paper's
    instance selection and continuous/discrete aspect-ratio selection, both
    "guided by the minimization of the TEIC and by the geometry of the empty
    space allotted for the cell" (Sec 1).

    Cell-local coordinates place the variant shape's bounding-box center at
    the origin, so orientation changes pivot the cell about its placed
    position. *)

type kind = Macro | Custom

type variant = {
  shape : Twmc_geometry.Shape.t;
      (** Normalized so the bounding box is centered on the origin. *)
  edges : Twmc_geometry.Edge.t list;  (** Boundary edges of [shape], R0 frame. *)
  sites : Pin_site.t array;  (** Pin sites; empty for macro variants. *)
  aspect : float;  (** Bounding-box width / height. *)
}

type t = private {
  name : string;
  kind : kind;
  variants : variant array;
  pins : Pin.t array;
}

val macro : name:string -> shape:Twmc_geometry.Shape.t -> pins:Pin.t list -> t
(** A fixed-geometry cell.  [shape] may use any origin; it is re-centered,
    and the pins' fixed offsets (given in the same frame as [shape]) are
    shifted along with it.  Raises [Invalid_argument] if any pin is
    uncommitted or lies outside the shape's bounding box. *)

val custom :
  name:string ->
  area:int ->
  aspect_lo:float ->
  aspect_hi:float ->
  ?n_variants:int ->
  ?sites_per_edge:int ->
  track_spacing:int ->
  pins:Pin.t list ->
  unit ->
  t
(** A soft cell of estimated [area] whose aspect ratio may range over
    [aspect_lo, aspect_hi].  [n_variants] (default 5, or 1 when the bounds
    coincide) rectangle variants are generated at geometrically-spaced aspect
    ratios; each gets its own pin sites. *)

val custom_instances :
  name:string ->
  shapes:Twmc_geometry.Shape.t list ->
  ?sites_per_edge:int ->
  track_spacing:int ->
  pins:Pin.t list ->
  unit ->
  t
(** A custom cell with an explicit list of candidate instances. *)

val n_variants : t -> int
val variant : t -> int -> variant
val n_pins : t -> int
val base_area : t -> int
(** Area of variant 0 (all variants of a custom cell share it up to
    rounding). *)

val pin_local_pos :
  t ->
  variant:int ->
  orient:Twmc_geometry.Orient.t ->
  site_of_pin:(int -> int) ->
  int ->
  int * int
(** Local position of pin [i] after orientation; [site_of_pin] resolves the
    current site assignment of uncommitted pins. *)

val allowed_sites : t -> variant:int -> int -> int list
(** Site indices a given pin may occupy in a variant, honouring its edge
    restriction.  Committed pins get []. *)

val static_pins_per_edge : t -> variant:int -> float array
(** Expected pin count per boundary edge, used by the interconnect-area
    estimator's pin-density factor: committed pins are assigned to the edge
    they lie on (nearest edge), and each uncommitted pin contributes equal
    fractional weight to every edge it is allowed on. *)

val pp : Format.formatter -> t -> unit

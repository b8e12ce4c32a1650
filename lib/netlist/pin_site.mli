(** Pin sites on custom-cell edges (Sec 2.4).

    Storing every legal pin location for all eight orientations would be
    excessive, so a limited number of approximately evenly-spaced sites is
    defined per edge; each site has a capacity equal to the number of real
    pin locations it encompasses, and the [C3] penalty (Eqn 10–11) keeps
    site occupancy within capacity. *)

type t = {
  edge : int;  (** Index into the variant's boundary-edge list. *)
  side : Side.t;
  x : int;
  y : int;  (** Cell-local position of the site, in the R0 frame. *)
  capacity : int;
}

val sites_of_edges :
  sites_per_edge:int ->
  track_spacing:int ->
  Twmc_geometry.Edge.t list ->
  t array
(** Generates evenly-spaced sites along each boundary edge.  Short edges get
    fewer sites (at least one, provided the edge can hold a pin); capacity is
    [edge span / number of sites / track_spacing], at least 1. *)

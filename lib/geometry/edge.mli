(** Boundary edges of rectilinear shapes.

    A cell edge carries pins and receives an interconnect-area expansion
    (Eqn 2); channel definition (Sec 4.1) creates a critical region between
    every facing pair of parallel cell edges.  An edge is an axis-parallel
    segment with an outward side: the direction in which empty space (and
    hence wiring) lies. *)

type dir = H | V

type side = Low | High
(** For a [V] edge, [Low] means the outward normal points toward -x (a left
    edge of the material) and [High] toward +x (a right edge).  For an [H]
    edge, [Low] is a bottom edge and [High] a top edge. *)

type t = { dir : dir; pos : int; span : Interval.t; side : side }
(** A [V] edge lies on the line [x = pos] with [span] in y; an [H] edge lies
    on [y = pos] with [span] in x. *)

val make : dir -> pos:int -> span:Interval.t -> side:side -> t
val length : t -> int

val transform : Orient.t -> t -> t
(** Action of an orientation about the origin; direction and side are
    remapped consistently with the action on points. *)

val faces : t -> t -> bool
(** [faces a b] holds when [a] and [b] are parallel, their outward sides
    point at each other, and their spans overlap — the precondition for a
    critical region between them (before the empty-space check). *)

val gap : t -> t -> int
(** Distance between the supporting lines of two parallel edges;
    meaningful when [faces a b]. *)

val common_span : t -> t -> Interval.t

val point_on : t -> int -> int * int
(** [point_on e c] is the 2-D point on the edge line at coordinate [c] along
    the span axis. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

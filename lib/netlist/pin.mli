(** Pins and pin-placement constraints.

    Macro-cell pins have fixed local locations.  Custom-cell pins are
    "uncommitted": they are assigned to pin sites on the cell boundary during
    annealing, under the constraints of Sec 2.4 — a pin may be restricted to
    one edge, two edges, or any edge, may belong to a group that moves
    together, and a group may carry a fixed sequence order. *)

type edge_restriction =
  | Any_edge
  | Sides of Side.t list
      (** Allowed boundary sides (custom cells are rectangular, so the four
          sides identify the edges). *)

type loc =
  | Fixed of int * int
      (** Cell-local offset, in the cell's R0 frame, relative to the shape's
          bounding-box center. *)
  | Uncommitted of edge_restriction
      (** Placed on a pin site during annealing. *)

type t = {
  name : string;
  net : int;  (** Index of the net this pin belongs to. *)
  equiv : int option;
      (** Pins of the same net and cell sharing an [equiv] class are
          electrically equivalent: the router connects to any one of them. *)
  group : int option;
      (** Pin-group id (Sec 2.4, cases 3 and 4); [None] for lone pins. *)
  seq : int option;
      (** Position within the group's fixed sequence; [None] when the group
          is unordered. *)
  loc : loc;
}

val fixed : name:string -> net:int -> ?equiv:int -> x:int -> y:int -> unit -> t
val uncommitted :
  name:string ->
  net:int ->
  ?equiv:int ->
  ?group:int ->
  ?seq:int ->
  edge_restriction ->
  t

val is_committed : t -> bool

(** The channel graph (Sec 4.1, Fig 9).

    Nodes are critical regions; an edge connects every pair of regions whose
    rectangles touch (share boundary or overlap — overlapping regions are
    legal here, unlike in Chen's method).  Each graph edge carries:

    - [length]: the Manhattan distance between the region centers, the
      routing-length contribution of traversing it;
    - [capacity]: how many net segments may cross, limited by the thinner of
      the two regions: [min thickness / track_spacing] (at least 1).

    This is the only structure the global router sees — it is independent of
    the layout style (Sec 4.2). *)

type edge = {
  id : int;
  a : int;  (** Node (region) index. *)
  b : int;
  length : int;
  capacity : int;
}

type t = {
  regions : Region.t array;
  edges : edge array;  (** Indexed by edge id. *)
  offsets : int array;
      (** Compressed sparse rows: node [v]'s neighbour slots are
          [offsets.(v)] to [offsets.(v + 1) - 1].  [n_nodes + 1] entries,
          starting at 0 and ending at [2 * n_edges]. *)
  nbr : int array;  (** Per slot: the neighbour node. *)
  nbr_edge : int array;  (** Per slot: the id of the edge to it. *)
  nbr_len : int array;  (** Per slot: that edge's [length]. *)
}
(** Each edge fills one slot at each of its two endpoints, and a node's
    slots list its edges in decreasing edge id.  Edges join distinct
    regions and no pair twice, so an unordered node pair names at most one
    edge. *)

val build : track_spacing:int -> Region.t list -> t
(** Edge ids follow the pair order [(i, j)], [i < j], row by row. *)

val n_nodes : t -> int
val n_edges : t -> int

val iter_neighbours : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbours g v f] calls [f edge_id neighbour] for each of [v]'s
    slots, in slot order. *)

val edge_between : t -> int -> int -> edge option
(** The edge joining two nodes, if any. *)

val nearest_node : t -> int * int -> int
(** Node whose region center is Manhattan-closest to the point; requires a
    nonempty graph. *)

val connected_components : t -> int list list
val pp_stats : Format.formatter -> t -> unit

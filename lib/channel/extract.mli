(** The channel-definition algorithm (Sec 4.1): enumerate every critical
    region of a placement.

    A region is created between every pair of parallel edges belonging to
    different cells (or a cell and the core boundary) such that (1) the
    edges' spans overlap, bounding a rectangle of empty space whose extent
    is the common span, and (2) no cell material intersects that rectangle.
    All regions are kept, including overlapping ones.

    One generalization beyond the paper's description: when cell material
    blocks only part of a facing pair's common span, the unblocked
    sub-spans still yield regions (the paper's packed industrial layouts
    rarely hit this; our annealed placements of scattered synthetic cells
    hit it constantly, and dropping the pair would disconnect the channel
    graph). *)

val regions :
  core:Twmc_geometry.Rect.t ->
  cells:Twmc_geometry.Rect.t list array ->
  Region.t list
(** [cells.(i)] is cell [i]'s absolute (unexpanded) tile list.  Regions are
    returned in a deterministic order. *)

val of_placement : Twmc_place.Placement.t -> Region.t list
(** Convenience: regions of the placement's current cell tiles within its
    core. *)

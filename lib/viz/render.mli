(** Layout renderings: placements, channel structure, global routes.

    Color coding in placement drawings: cell tiles are solid with a faint
    orange outline marking the current interconnect-area expansion; pins
    are black dots; the core boundary is a dashed gray frame.  Channel
    drawings overlay the critical regions (green, translucent — overlaps
    visibly darken) and the channel-graph edges (dashed blue between region
    centers).  Route drawings draw each routed net as a polyline over the
    graph it was routed on. *)

val placement : Twmc_place.Placement.t -> Svg.t
(** Cells (with expansion outlines), pins, and core frame. *)

val channels : Twmc_place.Placement.t -> Twmc_channel.Graph.t -> Svg.t
(** The placement plus critical regions and channel-graph adjacency. *)

val routed :
  Twmc_place.Placement.t -> Twmc_route.Global_router.result -> Svg.t
(** The placement plus the chosen route trees of up to 30 nets, colored
    round-robin. *)

open Twmc_geometry

type t = { edge : int; side : Side.t; x : int; y : int; capacity : int }

let sites_of_edges ~sites_per_edge ~track_spacing edges =
  if sites_per_edge <= 0 then invalid_arg "Pin_site.sites_of_edges";
  if track_spacing <= 0 then invalid_arg "Pin_site.sites_of_edges";
  let site_list =
    List.concat
      (List.mapi
         (fun ei (e : Edge.t) ->
           let len = Edge.length e in
           let n = max 1 (min sites_per_edge (len / track_spacing)) in
           let side = Side.of_edge e in
           List.init n (fun k ->
               (* Place site k at the center of the k-th of n equal slices. *)
               let c =
                 e.Edge.span.Interval.lo + (((2 * k) + 1) * len / (2 * n))
               in
               let x, y = Edge.point_on e c in
               let capacity = max 1 (len / n / track_spacing) in
               { edge = ei; side; x; y; capacity }))
         edges)
  in
  Array.of_list site_list

(* The Figs 10-12 walk-through: phase one of the global router enumerating
   the ~M shortest Steiner routes of a five-pin net — with an electrically
   equivalent pin pair — on a grid-shaped channel graph, then phase two
   resolving congestion between competing nets.

       dune exec examples/global_routing.exe *)

module Rect = Twmc_geometry.Rect
module Region = Twmc_channel.Region
module Graph = Twmc_channel.Graph
module Steiner = Twmc_route.Steiner
module Assign = Twmc_route.Assign

(* A w x h grid of unit channel regions: node (i, j) = i + j*w. *)
let grid_graph ~w ~h ~cell =
  let dummy_edge pos =
    Twmc_geometry.Edge.make Twmc_geometry.Edge.V ~pos
      ~span:(Twmc_geometry.Interval.make 0 1)
      ~side:Twmc_geometry.Edge.High
  in
  let regions =
    List.concat_map
      (fun j ->
        List.init w (fun i ->
            { Region.rect =
                Rect.make ~x0:(i * cell) ~y0:(j * cell) ~x1:((i + 1) * cell)
                  ~y1:((j + 1) * cell);
              dir = Region.V;
              lo_owner = Region.Boundary;
              hi_owner = Region.Boundary;
              lo_edge = dummy_edge (i * cell);
              hi_edge = dummy_edge ((i + 1) * cell) }))
      (List.init h Fun.id)
  in
  Graph.build ~track_spacing:2 regions

let () =
  let w = 6 and h = 4 in
  let g = grid_graph ~w ~h ~cell:4 in
  (* unit-capacity-ish channels: capacity = 4/2 = 2 per edge *)
  Format.printf "%a@." Graph.pp_stats g;
  let node i j = i + (j * w) in
  (* Fig 10: five pins, four distinct pin groups: P3A/P3B are electrically
     equivalent, so the third terminal offers two candidate nodes. *)
  let terminals =
    [ [ node 0 0 ]  (* P2, the starting pin *)
      ;
      [ node 5 0 ]  (* P1 *)
      ;
      [ node 0 3; node 3 3 ]  (* P3A | P3B *)
      ;
      [ node 5 3 ]  (* P4 *) ]
  in
  let routes = Steiner.enumerate g ~m:20 ~terminals in
  Format.printf "phase 1 stored %d alternative routes; five shortest:@."
    routes.Steiner.n_routes;
  for k = 0 to Int.min 5 routes.Steiner.n_routes - 1 do
    let r = Steiner.alternative routes k in
    Format.printf "  route %d: length=%d edges=%d nodes=[%s]@." (k + 1)
      r.Steiner.length
      (List.length r.Steiner.edges)
      (String.concat ";" (List.map string_of_int r.Steiner.nodes))
  done;
  (* Phase 2: three copies of the net compete for the same channels; the
     random-interchange selection spreads them to meet edge capacities. *)
  let alternatives = Array.make 3 routes in
  let result =
    Assign.run ~m:20
      ~rng:(Twmc_sa.Rng.create ~seed:9)
      ~graph:g ~alternatives ()
  in
  Format.printf
    "phase 2: chose alternatives [%s], total length %d, overflow %d (%d \
     attempts)@."
    (String.concat ";"
       (Array.to_list (Array.map string_of_int result.Assign.chosen)))
    result.Assign.total_length result.Assign.overflow result.Assign.attempts

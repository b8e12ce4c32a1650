open Twmc_geometry
module Placement = Twmc_place.Placement
module Graph = Twmc_channel.Graph
module Region = Twmc_channel.Region
module Router = Twmc_route.Global_router

let cell_palette =
  [| "#b3c6e7"; "#c6e0b4"; "#ffe699"; "#f4b6c2"; "#d9c4e9"; "#bde0dd" |]

let viewport p =
  Rect.hull (Placement.core p) (Placement.chip_bbox p)

let draw_placement svg p =
  let nl = Placement.netlist p in
  (* Core frame. *)
  Svg.rect svg ~stroke:"gray" ~stroke_width:1.5 (Placement.core p);
  for ci = 0 to Twmc_netlist.Netlist.n_cells nl - 1 do
    let fill = cell_palette.(ci mod Array.length cell_palette) in
    (* Expansion outline first, cell tiles on top. *)
    List.iter
      (fun r -> Svg.rect svg ~stroke:"#e69138" ~stroke_width:0.6 r)
      (Placement.expanded_tiles p ci);
    List.iter
      (fun r -> Svg.rect svg ~fill ~stroke:"#333333" ~stroke_width:0.8 r)
      (Placement.abs_tiles p ci);
    let c = nl.Twmc_netlist.Netlist.cells.(ci) in
    let x, y = Placement.cell_pos p ci in
    Svg.text svg ~size:9.0 (x - 8, y) c.Twmc_netlist.Cell.name;
    for pi = 0 to Twmc_netlist.Cell.n_pins c - 1 do
      Svg.circle svg ~r:1.5 (Placement.pin_position p ~cell:ci ~pin:pi)
    done
  done

let placement p =
  let svg = Svg.create ~viewport:(viewport p) () in
  draw_placement svg p;
  svg

let channels p (g : Graph.t) =
  let svg = Svg.create ~viewport:(viewport p) () in
  draw_placement svg p;
  Array.iter
    (fun (r : Region.t) ->
      Svg.rect svg ~fill:"#93c47d" ~opacity:0.25 ~stroke:"#38761d"
        ~stroke_width:0.4 r.Region.rect)
    g.Graph.regions;
  Array.iter
    (fun (e : Graph.edge) ->
      Svg.line svg ~stroke:"#3d85c6" ~stroke_width:0.7 ~dashed:true
        (Region.center g.Graph.regions.(e.Graph.a))
        (Region.center g.Graph.regions.(e.Graph.b)))
    g.Graph.edges;
  svg

let route_palette =
  [| "#cc0000"; "#1155cc"; "#38761d"; "#b45f06"; "#741b47"; "#0b5394" |]

(* At most this many nets are drawn, so a large routing stays legible. *)
let max_nets = 30

let routed p (res : Router.result) =
  let svg = Svg.create ~viewport:(viewport p) () in
  draw_placement svg p;
  let g = res.Router.graph in
  List.iteri
    (fun i (rn : Router.routed_net) ->
      if i < max_nets then begin
        let color = route_palette.(i mod Array.length route_palette) in
        List.iter
          (fun eid ->
            let e = g.Graph.edges.(eid) in
            Svg.line svg ~stroke:color ~stroke_width:1.2
              (Region.center g.Graph.regions.(e.Graph.a))
              (Region.center g.Graph.regions.(e.Graph.b)))
          rn.Router.route.Twmc_route.Steiner.edges
      end)
    res.Router.routed;
  svg

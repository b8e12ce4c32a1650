open Twmc_geometry

(* Absolute boundary edges of a placed cell from its absolute tiles. *)
let cell_edges ~tiles = Shape.boundary_edges (Shape.of_tiles tiles)

(* The four inward-facing core-boundary edges (the Sec 2.2 dummy cells'
   inner edges). *)
let boundary_edges ~core:(c : Rect.t) =
  [ Edge.make Edge.V ~pos:c.Rect.x0 ~span:(Rect.yspan c) ~side:Edge.High;
    Edge.make Edge.V ~pos:c.Rect.x1 ~span:(Rect.yspan c) ~side:Edge.Low;
    Edge.make Edge.H ~pos:c.Rect.y0 ~span:(Rect.xspan c) ~side:Edge.High;
    Edge.make Edge.H ~pos:c.Rect.y1 ~span:(Rect.xspan c) ~side:Edge.Low ]

(* The open rectangles between two facing edges: the common span, minus the
   projections of any cell material lying between the edges.  Splitting the
   span (rather than discarding the pair outright) keeps the free space
   fully covered when a third cell blocks only part of a long edge — the
   situation the core-boundary edges are almost always in. *)
let gap_rects ~all_tiles (a : Edge.t) (b : Edge.t) =
  let lo, hi = if a.Edge.pos <= b.Edge.pos then (a, b) else (b, a) in
  let span = Edge.common_span a b in
  if Interval.is_empty span || lo.Edge.pos = hi.Edge.pos then []
  else
    let rect_of (sub : Interval.t) =
      match a.Edge.dir with
      | Edge.V ->
          Rect.make ~x0:lo.Edge.pos ~y0:sub.Interval.lo ~x1:hi.Edge.pos
            ~y1:sub.Interval.hi
      | Edge.H ->
          Rect.make ~x0:sub.Interval.lo ~y0:lo.Edge.pos ~x1:sub.Interval.hi
            ~y1:hi.Edge.pos
    in
    let full = rect_of span in
    let blocker_spans =
      List.filter_map
        (fun t ->
          if Rect.overlaps full t then
            Some
              (match a.Edge.dir with
              | Edge.V -> Rect.yspan (Rect.inter full t)
              | Edge.H -> Rect.xspan (Rect.inter full t))
          else None)
        all_tiles
    in
    Interval.subtract span blocker_spans
    |> List.filter (fun (s : Interval.t) -> Interval.length s > 0)
    |> List.map rect_of

let regions ~core ~cells =
  let owners_edges =
    (Region.Boundary, boundary_edges ~core)
    :: Array.to_list
         (Array.mapi
            (fun i tiles -> (Region.Cell i, cell_edges ~tiles))
            cells)
  in
  let all_tiles = Array.to_list cells |> List.concat in
  let acc = ref [] in
  let rec pairs = function
    | [] -> ()
    | (o1, es1) :: rest ->
        List.iter
          (fun (o2, es2) ->
            (* Boundary-boundary pairs span the whole (possibly occupied)
               core and are not channels between cells; skip them. *)
            let both_boundary =
              match (o1, o2) with
              | Region.Boundary, Region.Boundary -> true
              | _ -> false
            in
            if not both_boundary then
              List.iter
                (fun e1 ->
                  List.iter
                    (fun e2 ->
                      if Edge.faces e1 e2 then
                        List.iter
                          (fun r ->
                            let lo, hi, lo_o, hi_o =
                              if e1.Edge.pos <= e2.Edge.pos then (e1, e2, o1, o2)
                              else (e2, e1, o2, o1)
                            in
                            let dir =
                              match e1.Edge.dir with
                              | Edge.V -> Region.V
                              | Edge.H -> Region.H
                            in
                            acc :=
                              { Region.rect = r;
                                dir;
                                lo_owner = lo_o;
                                hi_owner = hi_o;
                                lo_edge = lo;
                                hi_edge = hi }
                              :: !acc)
                          (gap_rects ~all_tiles e1 e2))
                    es2)
                es1)
          rest;
        pairs rest
  in
  pairs owners_edges;
  List.sort
    (fun (a : Region.t) (b : Region.t) -> Rect.compare a.Region.rect b.Region.rect)
    !acc

let of_placement p =
  let nl = Twmc_place.Placement.netlist p in
  let n = Twmc_netlist.Netlist.n_cells nl in
  let cells = Array.init n (fun i -> Twmc_place.Placement.abs_tiles p i) in
  regions ~core:(Twmc_place.Placement.core p) ~cells

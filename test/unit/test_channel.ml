(* Tests for channel definition: critical regions, channel graph, pin
   projection (Sec 4.1). *)

open Twmc_channel
module Rect = Twmc_geometry.Rect
module Shape = Twmc_geometry.Shape
module Edge = Twmc_geometry.Edge

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let rect ~x0 ~y0 ~x1 ~y1 = Rect.make ~x0 ~y0 ~x1 ~y1

let tiles_at shape ~dx ~dy = Shape.tiles (Shape.translate shape ~dx ~dy)

(* ------------------------------------------------------------- Extract *)

let test_two_cells_channel () =
  (* Two 20x40 cells, 10 apart; expect a V region between them plus the
     boundary channels. *)
  let core = rect ~x0:0 ~y0:0 ~x1:100 ~y1:60 in
  let cells =
    [| tiles_at (Shape.rectangle ~w:20 ~h:40) ~dx:10 ~dy:10;
       tiles_at (Shape.rectangle ~w:20 ~h:40) ~dx:40 ~dy:10 |]
  in
  let regions = Extract.regions ~core ~cells in
  let between =
    List.filter
      (fun (r : Region.t) ->
        r.Region.dir = Region.V
        && r.Region.rect.Rect.x0 = 30
        && r.Region.rect.Rect.x1 = 40
        && r.Region.lo_owner = Region.Cell 0
        && r.Region.hi_owner = Region.Cell 1)
      regions
  in
  check "exactly one cell-cell channel" 1 (List.length between);
  let r = List.hd between in
  check "thickness = gap" 10 (Region.thickness r);
  check "span = common span" 40 (Region.span_length r);
  checkb "borders both" true
    (Region.borders_cell r 0 && Region.borders_cell r 1);
  (* Boundary channels exist on each side of each cell. *)
  checkb "cell-boundary channels" true
    (List.exists
       (fun (r : Region.t) ->
         r.Region.lo_owner = Region.Boundary && r.Region.hi_owner = Region.Cell 0)
       regions)

let test_abutting_cells_no_channel () =
  let core = rect ~x0:0 ~y0:0 ~x1:100 ~y1:60 in
  let cells =
    [| tiles_at (Shape.rectangle ~w:20 ~h:40) ~dx:10 ~dy:10;
       tiles_at (Shape.rectangle ~w:20 ~h:40) ~dx:30 ~dy:10 |]
  in
  let regions = Extract.regions ~core ~cells in
  checkb "no zero-width channel" true
    (List.for_all (fun (r : Region.t) -> Region.thickness r > 0) regions);
  checkb "no region between abutting pair" true
    (not
       (List.exists
          (fun (r : Region.t) ->
            r.Region.lo_owner = Region.Cell 0 && r.Region.hi_owner = Region.Cell 1
            && r.Region.dir = Region.V)
          regions))

let test_blocked_pair_splits () =
  (* Cells 0 and 1 face each other 60 apart with a blocker in the middle of
     the gap; the pair region must split into strips above and below the
     blocker. *)
  let core = rect ~x0:0 ~y0:0 ~x1:200 ~y1:200 in
  let cells =
    [| tiles_at (Shape.rectangle ~w:20 ~h:180) ~dx:10 ~dy:10;
       tiles_at (Shape.rectangle ~w:20 ~h:180) ~dx:90 ~dy:10;
       tiles_at (Shape.rectangle ~w:40 ~h:40) ~dx:40 ~dy:80 |]
  in
  let regions = Extract.regions ~core ~cells in
  let pair_regions =
    List.filter
      (fun (r : Region.t) ->
        (r.Region.lo_owner = Region.Cell 0 && r.Region.hi_owner = Region.Cell 1)
        || (r.Region.lo_owner = Region.Cell 1 && r.Region.hi_owner = Region.Cell 0))
      regions
  in
  check "split into two strips" 2 (List.length pair_regions);
  List.iter
    (fun (r : Region.t) ->
      checkb "strip avoids blocker" true
        (not (Rect.overlaps r.Region.rect (rect ~x0:40 ~y0:80 ~x1:80 ~y1:120))))
    pair_regions

let test_no_region_in_material () =
  let core = rect ~x0:0 ~y0:0 ~x1:120 ~y1:120 in
  let cells =
    [| tiles_at (Shape.rectangle ~w:30 ~h:30) ~dx:10 ~dy:10;
       tiles_at (Shape.rectangle ~w:30 ~h:30) ~dx:70 ~dy:10;
       tiles_at (Shape.rectangle ~w:30 ~h:30) ~dx:40 ~dy:60 |]
  in
  let regions = Extract.regions ~core ~cells in
  let all_tiles = Array.to_list cells |> List.concat in
  List.iter
    (fun (r : Region.t) ->
      List.iter
        (fun t ->
          checkb "region is empty space" true
            (not (Rect.overlaps r.Region.rect t)))
        all_tiles)
    regions

let test_l_shape_notch () =
  (* An L-shaped cell next to the core: the notch faces the boundary and
     other cells, producing regions bordered by the inner edges. *)
  let core = rect ~x0:0 ~y0:0 ~x1:100 ~y1:100 in
  let cells =
    [| tiles_at (Shape.l_shape ~w:60 ~h:60 ~notch_w:30 ~notch_h:30) ~dx:20 ~dy:20 |]
  in
  let regions = Extract.regions ~core ~cells in
  (* The notch's vertical inner edge at x=50 faces the core's right
     boundary. *)
  checkb "notch edge makes a channel" true
    (List.exists
       (fun (r : Region.t) ->
         r.Region.dir = Region.V && r.Region.rect.Rect.x0 = 50
         && r.Region.lo_owner = Region.Cell 0)
       regions)

(* --------------------------------------------------------------- Graph *)

let test_graph_build () =
  let core = rect ~x0:0 ~y0:0 ~x1:100 ~y1:60 in
  let cells =
    [| tiles_at (Shape.rectangle ~w:20 ~h:40) ~dx:10 ~dy:10;
       tiles_at (Shape.rectangle ~w:20 ~h:40) ~dx:40 ~dy:10 |]
  in
  let regions = Extract.regions ~core ~cells in
  let g = Graph.build ~track_spacing:2 regions in
  check "nodes = regions" (List.length regions) (Graph.n_nodes g);
  checkb "edges exist" true (Graph.n_edges g > 0);
  check "connected" 1 (List.length (Graph.connected_components g));
  Array.iter
    (fun (e : Graph.edge) ->
      checkb "capacity >= 1" true (e.Graph.capacity >= 1);
      checkb "length >= 0" true (e.Graph.length >= 0);
      (* Capacity consistent with the thinner endpoint. *)
      let thin =
        min
          (Region.thickness g.Graph.regions.(e.Graph.a))
          (Region.thickness g.Graph.regions.(e.Graph.b))
      in
      check "capacity formula" (max 1 (thin / 2)) e.Graph.capacity)
    g.Graph.edges;
  (* edge_between agrees with adjacency. *)
  Array.iter
    (fun (e : Graph.edge) ->
      match Graph.edge_between g e.Graph.a e.Graph.b with
      | Some e' -> check "edge_between id" e.Graph.id e'.Graph.id
      | None -> Alcotest.fail "edge_between missed an edge")
    g.Graph.edges;
  (* Neighbour slots: each node lists its edges in decreasing id, and every
     edge fills one slot at each endpoint. *)
  let slots = Array.make (Graph.n_edges g) 0 in
  for v = 0 to Graph.n_nodes g - 1 do
    let last = ref max_int in
    Graph.iter_neighbours g v (fun eid o ->
        checkb "decreasing edge ids" true (eid < !last);
        last := eid;
        let e = g.Graph.edges.(eid) in
        checkb "slot joins its node" true
          ((e.Graph.a = v && e.Graph.b = o) || (e.Graph.b = v && e.Graph.a = o));
        slots.(eid) <- slots.(eid) + 1)
  done;
  Array.iter (check "one slot per endpoint" 2) slots

let test_graph_components () =
  (* Two far-apart isolated region rectangles -> 2 components. *)
  let dummy_edge pos =
    Edge.make Edge.V ~pos ~span:(Twmc_geometry.Interval.make 0 1) ~side:Edge.High
  in
  let region rect =
    { Region.rect;
      dir = Region.V;
      lo_owner = Region.Boundary;
      hi_owner = Region.Boundary;
      lo_edge = dummy_edge rect.Rect.x0;
      hi_edge = dummy_edge rect.Rect.x1 }
  in
  let g =
    Graph.build ~track_spacing:2
      [ region (rect ~x0:0 ~y0:0 ~x1:10 ~y1:10);
        region (rect ~x0:50 ~y0:50 ~x1:60 ~y1:60) ]
  in
  check "two components" 2 (List.length (Graph.connected_components g));
  check "no edges" 0 (Graph.n_edges g);
  check "nearest node" 0 (Graph.nearest_node g (2, 2));
  check "nearest node far" 1 (Graph.nearest_node g (100, 100))

(* --------------------------------------------------------- Pin mapping *)

let placed_netlist () =
  let b = Twmc_netlist.Builder.create ~name:"pins" ~track_spacing:2 in
  Twmc_netlist.Builder.add_macro b ~name:"a"
    ~shape:(Shape.rectangle ~w:20 ~h:40)
    ~pins:
      [ Twmc_netlist.Builder.at ~name:"p" ~net:"n" (20, 20);
        Twmc_netlist.Builder.at ~name:"q" ~net:"m" (0, 20) ];
  Twmc_netlist.Builder.add_macro b ~name:"b"
    ~shape:(Shape.rectangle ~w:20 ~h:40)
    ~pins:
      [ Twmc_netlist.Builder.at ~name:"p" ~net:"n" (0, 20);
        (* Two equivalent pins of net m on opposite edges. *)
        Twmc_netlist.Builder.at ~equiv:1 ~name:"q1" ~net:"m" (0, 10);
        Twmc_netlist.Builder.at ~equiv:1 ~name:"q2" ~net:"m" (20, 10) ];
  Twmc_netlist.Builder.build b

let test_pin_map () =
  let nl = placed_netlist () in
  let core = rect ~x0:(-50) ~y0:(-30) ~x1:50 ~y1:30 in
  let p =
    Twmc_place.Placement.create ~params:Twmc_place.Params.default ~core
      ~expander:Twmc_place.Placement.No_expansion
      ~rng:(Twmc_sa.Rng.create ~seed:2)
      nl
  in
  Twmc_place.Placement.set_cell p 0 ~x:(-25) ~y:0 ();
  Twmc_place.Placement.set_cell p 1 ~x:25 ~y:0 ();
  let regions = Extract.of_placement p in
  let g = Graph.build ~track_spacing:2 regions in
  let tasks = Pin_map.tasks g p in
  check "two nets" 2 (List.length tasks);
  List.iter
    (fun (t : Pin_map.net_task) ->
      List.iter
        (fun (term : Pin_map.terminal) ->
          checkb "candidates nonempty" true (term.Pin_map.candidates <> []))
        t.Pin_map.terminals)
    tasks;
  (* Net m has two terminals; cell b's is the merged equivalence class. *)
  let m_task =
    List.find
      (fun (t : Pin_map.net_task) ->
        t.Pin_map.net = Twmc_netlist.Netlist.net_index nl "m")
      tasks
  in
  check "equiv merged into 2 terminals" 2 (List.length m_task.Pin_map.terminals);
  (* The merged terminal offers at least as many candidates as either pin
     alone — the two pins are on opposite edges, so candidate regions
     differ. *)
  let b_term =
    List.find
      (fun (t : Pin_map.terminal) -> List.length t.Pin_map.candidates >= 2)
      m_task.Pin_map.terminals
  in
  checkb "union of candidates" true (List.length b_term.Pin_map.candidates >= 2)

let test_project_pin_fallback () =
  let dummy_edge pos =
    Edge.make Edge.V ~pos ~span:(Twmc_geometry.Interval.make 0 1) ~side:Edge.High
  in
  let region rect =
    { Region.rect;
      dir = Region.V;
      lo_owner = Region.Boundary;
      hi_owner = Region.Boundary;
      lo_edge = dummy_edge rect.Rect.x0;
      hi_edge = dummy_edge rect.Rect.x1 }
  in
  let g = Graph.build ~track_spacing:2 [ region (rect ~x0:0 ~y0:0 ~x1:10 ~y1:10) ] in
  (* The pin's cell borders nothing: nearest-node fallback. *)
  Alcotest.(check (list int)) "fallback" [ 0 ]
    (Pin_map.project_pin g ~cell:5 ~pos:(100, 100))

(* A realistic end-to-end structural check on an annealed placement. *)
let test_extraction_on_annealed_placement () =
  let nl =
    Twmc_workload.Synth.generate ~seed:23
      { Twmc_workload.Synth.default_spec with
        Twmc_workload.Synth.n_cells = 10;
        n_nets = 30;
        n_pins = 110 }
  in
  let params = { Twmc_place.Params.default with Twmc_place.Params.a_c = 15 } in
  let r = Twmc_place.Stage1.run ~params ~rng:(Twmc_sa.Rng.create ~seed:3) nl in
  let regions = Extract.of_placement r.Twmc_place.Stage1.placement in
  checkb "many regions" true (List.length regions > 10);
  let g = Graph.build ~track_spacing:2 regions in
  checkb "largely connected" true
    (let comps = Graph.connected_components g in
     let largest =
       List.fold_left (fun acc c -> max acc (List.length c)) 0 comps
     in
     float_of_int largest /. float_of_int (Graph.n_nodes g) > 0.9);
  let tasks = Pin_map.tasks g r.Twmc_place.Stage1.placement in
  checkb "every net mapped" true
    (List.length tasks >= Twmc_netlist.Netlist.n_nets nl - 2)

let () =
  Alcotest.run "channel"
    [ ( "extract",
        [ Alcotest.test_case "two cells" `Quick test_two_cells_channel;
          Alcotest.test_case "abutting" `Quick test_abutting_cells_no_channel;
          Alcotest.test_case "blocked pair splits" `Quick test_blocked_pair_splits;
          Alcotest.test_case "regions empty" `Quick test_no_region_in_material;
          Alcotest.test_case "l-shape notch" `Quick test_l_shape_notch ] );
      ( "graph",
        [ Alcotest.test_case "build" `Quick test_graph_build;
          Alcotest.test_case "components" `Quick test_graph_components ] );
      ( "pin map",
        [ Alcotest.test_case "tasks" `Quick test_pin_map;
          Alcotest.test_case "fallback" `Quick test_project_pin_fallback;
          Alcotest.test_case "annealed placement" `Quick
            test_extraction_on_annealed_placement ] ) ]

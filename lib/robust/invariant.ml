open Twmc_geometry
module Placement = Twmc_place.Placement
module Graph = Twmc_channel.Graph
module Router = Twmc_route.Global_router

let finite f = Float.is_finite f

let placement p =
  let ds = ref [] in
  let add ?(severity = Diagnostic.Error) code fmt =
    Format.kasprintf
      (fun m -> ds := Diagnostic.make ~severity ~code m :: !ds)
      fmt
  in
  (* Drift: the report repairs the caches, so drift is recoverable. *)
  List.iter
    (fun (term, cached, truth) ->
      add ~severity:Diagnostic.Warning "I300"
        "%s drift: cached %g vs recomputed %g (repaired)" term cached truth)
    (Placement.drift_report p);
  let checks =
    [ ("C1", Placement.c1 p); ("C2", Placement.c2_raw p);
      ("C3", Placement.c3 p); ("TEIL", Placement.teil p);
      ("total cost", Placement.total_cost p) ]
  in
  List.iter
    (fun (term, v) ->
      if not (finite v) then add "I301" "%s is not finite: %g" term v
      else if v < 0.0 then add "I301" "%s is negative: %g" term v)
    checks;
  let core = Placement.core p in
  let nl = Placement.netlist p in
  for ci = 0 to Twmc_netlist.Netlist.n_cells nl - 1 do
    let outside =
      List.exists
        (fun t -> not (Rect.contains_rect core t))
        (Placement.abs_tiles p ci)
    in
    if outside then
      add ~severity:Diagnostic.Warning "I302"
        "cell %s extends outside the core"
        nl.Twmc_netlist.Netlist.cells.(ci).Twmc_netlist.Cell.name
  done;
  List.rev !ds

let channel_graph (g : Graph.t) =
  let ds = ref [] in
  let add fmt =
    Format.kasprintf
      (fun m -> ds := Diagnostic.make ~severity:Diagnostic.Error ~code:"I303" m :: !ds)
      fmt
  in
  let n = Graph.n_nodes g in
  Array.iter
    (fun (e : Graph.edge) ->
      if e.Graph.a < 0 || e.Graph.a >= n || e.Graph.b < 0 || e.Graph.b >= n
      then add "edge %d endpoints (%d, %d) out of range" e.Graph.id e.Graph.a e.Graph.b;
      if e.Graph.capacity < 1 then
        add "edge %d has nonpositive capacity %d" e.Graph.id e.Graph.capacity;
      if e.Graph.length < 0 then
        add "edge %d has negative length %d" e.Graph.id e.Graph.length)
    g.Graph.edges;
  let slots = 2 * Graph.n_edges g and off = g.Graph.offsets in
  let rec monotone v = v >= n || (off.(v) <= off.(v + 1) && monotone (v + 1)) in
  if
    Array.length off <> n + 1 || off.(0) <> 0 || off.(n) <> slots
    || not (monotone 0)
  then add "neighbour offsets do not run from 0 up to %d over %d nodes" slots n
  else if
    List.exists
      (fun a -> Array.length a <> slots)
      [ g.Graph.nbr; g.Graph.nbr_edge; g.Graph.nbr_len ]
  then add "neighbour slot arrays do not have %d entries" slots
  else begin
    for node = 0 to n - 1 do
      Graph.iter_neighbours g node (fun eid other ->
          if eid < 0 || eid >= Graph.n_edges g then
            add "node %d lists unknown edge %d" node eid
          else
            let e = g.Graph.edges.(eid) in
            if
              not
                ((e.Graph.a = node && e.Graph.b = other)
                || (e.Graph.b = node && e.Graph.a = other))
            then
              add "node %d adjacency disagrees with edge %d (%d-%d)" node eid
                e.Graph.a e.Graph.b)
    done;
    Array.iteri
      (fun slot eid ->
        if eid >= 0 && eid < Graph.n_edges g then
          let len = g.Graph.edges.(eid).Graph.length in
          if g.Graph.nbr_len.(slot) <> len then
            add "slot %d stores length %d for edge %d of length %d" slot
              g.Graph.nbr_len.(slot) eid len)
      g.Graph.nbr_edge
  end;
  List.rev !ds

let route (r : Router.result) =
  let ds = ref [] in
  let add fmt =
    Format.kasprintf
      (fun m -> ds := Diagnostic.make ~severity:Diagnostic.Error ~code:"I304" m :: !ds)
      fmt
  in
  if r.Router.total_length < 0 then
    add "total route length is negative: %d" r.Router.total_length;
  if r.Router.overflow < 0 then add "overflow is negative: %d" r.Router.overflow;
  Array.iteri
    (fun e d -> if d < 0 then add "edge %d has negative density %d" e d)
    r.Router.edge_density;
  if Array.length r.Router.edge_density <> Graph.n_edges r.Router.graph then
    add "density array size %d does not match %d graph edges"
      (Array.length r.Router.edge_density)
      (Graph.n_edges r.Router.graph);
  List.iter
    (fun (rn : Router.routed_net) ->
      List.iter
        (fun e ->
          if e < 0 || e >= Graph.n_edges r.Router.graph then
            add "net %d route uses unknown edge %d" rn.Router.net e)
        rn.Router.route.Twmc_route.Steiner.edges)
    r.Router.routed;
  List.rev !ds

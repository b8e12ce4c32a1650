module G = Twmc_channel.Graph
module Pin_map = Twmc_channel.Pin_map
module Obs = Twmc_obs.Ctx
module Attr = Twmc_obs.Attr

type routed_net = { net : int; route : Steiner.route; alternatives : int }

type result = {
  graph : G.t;
  routed : routed_net list;
  unroutable : int list;
  total_length : int;
  overflow : int;
  initial_overflow : int;
  edge_density : int array;
  assign_attempts : int;
}

let route ?(m = 20) ?budget_factor ?should_stop ?pool ?(obs = Obs.disabled)
    ~rng ~graph ~tasks () =
  let poll = match should_stop with None -> fun () -> false | Some f -> f in
  (* Phase 1 is read-only over the channel graph and independent per net, so
     the enumeration fans out over the pool; results are merged back in net
     (task) order, which keeps phase 2's input — and therefore the whole
     routing — identical for any pool size. *)
  let enumerate _i (task : Pin_map.net_task) =
    (* Flight note first (mutex-serialized, worker-domain safe), then the
       fault site: an injected failure dump ends naming the net that was
       being enumerated. *)
    Twmc_obs.Flight_recorder.note ~i:task.Pin_map.net "route.net";
    (* Fault site: fires per net, possibly on a worker domain; the injected
       exception surfaces at the parallel join and is contained by the
       refinement rollback (or the final-route guard). *)
    Twmc_util.Fault.point "router.net";
    (* Cooperative timeout between nets: once the budget is gone, the
       remaining nets are reported unroutable rather than enumerated. *)
    if poll () then (task.Pin_map.net, Steiner.no_routes)
    else
      let terminals =
        List.map (fun t -> t.Pin_map.candidates) task.Pin_map.terminals
      in
      (task.Pin_map.net, Steiner.enumerate ?budget_factor graph ~m ~terminals)
  in
  Twmc_obs.Flight_recorder.note ~i:(List.length tasks) "route.start";
  Obs.span obs ~name:"route"
    ~attrs:
      (if Obs.tracing obs then
         [ ("nets", Attr.Int (List.length tasks)); ("m", Attr.Int m) ]
       else [])
    (fun () ->
      let enumerated =
        Obs.span obs ~name:"route.phase1" (fun () ->
            let tasks = Array.of_list tasks in
            match pool with
            | Some pool -> Twmc_util.Domain_pool.parallel_map pool ~f:enumerate tasks
            | None -> Array.mapi enumerate tasks)
      in
      (* Per-net enumeration telemetry, emitted on the caller's domain in
         net order after the (possibly parallel) join — deterministic. *)
      if Obs.tracing obs then
        Array.iter
          (fun (net, routes) ->
            Obs.point obs ~name:"route.net"
              ~attrs:
                [ ("net", Attr.Int net);
                  ("alternatives", Attr.Int routes.Steiner.n_routes) ]
              ())
          enumerated;
      let with_routes, unroutable =
        Array.fold_left
          (fun (ok, bad) (net, (routes : Steiner.alternatives)) ->
            if routes.Steiner.n_routes = 0 then (ok, net :: bad)
            else ((net, routes) :: ok, bad))
          ([], []) enumerated
      in
      let with_routes = List.rev with_routes in
      let alternatives = Array.of_list (List.map snd with_routes) in
      let nets = Array.of_list (List.map fst with_routes) in
      let finish r =
        Twmc_obs.Flight_recorder.note
          ~i:(List.length r.unroutable)
          ~f:(float_of_int r.overflow) "route.assign";
        if Obs.tracing obs then
          Obs.point obs ~name:"route.assign"
            ~attrs:
              [ ("nets", Attr.Int (List.length r.routed));
                ("overflow_before", Attr.Int r.initial_overflow);
                ("overflow_after", Attr.Int r.overflow);
                ("length", Attr.Int r.total_length);
                ("attempts", Attr.Int r.assign_attempts);
                ("unroutable", Attr.Int (List.length r.unroutable)) ]
            ();
        r
      in
      finish
      @@ Obs.span obs ~name:"route.phase2"
      @@ fun () ->
      (* Every net passed has a route, so none is skipped; lists are built
         for the chosen routes only. *)
      let a = Assign.run ~m ~rng ~graph ~alternatives () in
      let routed =
        List.init (Array.length nets) (fun i ->
            { net = nets.(i);
              route = Steiner.alternative alternatives.(i) a.Assign.chosen.(i);
              alternatives = alternatives.(i).Steiner.n_routes })
      in
      { graph;
        routed;
        unroutable = List.rev unroutable;
        total_length = a.Assign.total_length;
        overflow = a.Assign.overflow;
        initial_overflow = a.Assign.initial_overflow;
        edge_density = a.Assign.edge_density;
        assign_attempts = a.Assign.attempts })

let node_density r =
  let d = Array.make (G.n_nodes r.graph) 0 in
  Array.iter
    (fun (e : G.edge) ->
      let dens = r.edge_density.(e.G.id) in
      if dens > d.(e.G.a) then d.(e.G.a) <- dens;
      if dens > d.(e.G.b) then d.(e.G.b) <- dens)
    r.graph.G.edges;
  d

open Twmc_geometry
open Twmc_netlist
module Placement = Twmc_place.Placement
module Params = Twmc_place.Params
module Moves = Twmc_place.Moves
module Range_limiter = Twmc_place.Range_limiter
module Stage1 = Twmc_place.Stage1
module Anneal_loop = Twmc_place.Anneal_loop
module Schedule = Twmc_sa.Schedule
module Extract = Twmc_channel.Extract
module Graph = Twmc_channel.Graph
module Pin_map = Twmc_channel.Pin_map
module Region = Twmc_channel.Region
module Router = Twmc_route.Global_router
module Diagnostic = Twmc_robust.Diagnostic
module Checkpoint = Twmc_robust.Checkpoint
module Invariant = Twmc_robust.Invariant
module Guard = Twmc_robust.Guard
module Obs = Twmc_obs.Ctx
module Attr = Twmc_obs.Attr

type iteration = {
  regions : int;
  graph_edges : int;
  routed_nets : int;
  unroutable_nets : int;
  route_length : int;
  route_overflow : int;
  teil_after : float;
  chip_after : Rect.t;
  cost_after : float;
  overlap_after : float;
}

type result = {
  placement : Placement.t;
  iterations : iteration list;
  final_route : Router.result option;
  teil : float;
  chip : Rect.t;
  interrupted : bool;
  rollbacks : int;
  diagnostics : Diagnostic.t list;
  trace : Stage1.temp_record list;
}

let required_expansions p (route : Router.result) =
  let nl = Placement.netlist p in
  let ts = nl.Netlist.track_spacing in
  let n = Netlist.n_cells nl in
  (* One-track floor on every side: even a pin-free edge gets some wiring
     space (cf. f_rp >= 1 in stage 1). *)
  let exps = Array.make n (ts, ts, ts, ts) in
  let densities = Router.node_density route in
  let bump ci side half =
    let l, r, b, t = exps.(ci) in
    exps.(ci) <-
      (match side with
      | Side.Left -> (max l half, r, b, t)
      | Side.Right -> (l, max r half, b, t)
      | Side.Bottom -> (l, r, max b half, t)
      | Side.Top -> (l, r, b, max t half))
  in
  Array.iteri
    (fun i (region : Region.t) ->
      (* Eqn 22: w = (d + 2)·t_s, half per bordering edge. *)
      let w = (densities.(i) + 2) * ts in
      let half = w / 2 in
      List.iter
        (fun (owner, edge) ->
          match owner with
          | Region.Cell ci -> bump ci (Side.of_edge edge) half
          | Region.Boundary -> ())
        [ (region.Region.lo_owner, region.Region.lo_edge);
          (region.Region.hi_owner, region.Region.hi_edge) ])
    route.Router.graph.Graph.regions;
  exps

let channel_and_route ?should_stop ?pool ?(obs = Obs.disabled) ~rng p =
  let nl = Placement.netlist p in
  let prm = Placement.params p in
  let regions = Extract.of_placement p in
  let graph = Graph.build ~track_spacing:nl.Netlist.track_spacing regions in
  let tasks = Pin_map.tasks graph p in
  let route =
    Router.route ~m:prm.Params.m_routes
      ~budget_factor:prm.Params.route_effort ?should_stop ?pool ~obs ~rng
      ~graph ~tasks ()
  in
  route

(* The refinement anneal (Sec 4.3): Table 2 schedule from the temperature
   at which the window is the fraction mu of its T∞ span, displacements and
   pin moves only.  The final iteration stops on a frozen cost, the others
   on the minimum window span. *)
let anneal ?should_stop ?(obs = Obs.disabled) ?iteration ~rng ~final p =
  let prm = Placement.params p in
  let s_t = Schedule.s_t ~avg_cell_area:(Anneal_loop.avg_cell_area p) in
  let t_inf = Schedule.t_infinity ~s_t in
  let limiter =
    Range_limiter.of_core ~rho:prm.Params.rho ~t_inf ~core:(Placement.core p)
      ~min_window:prm.Params.min_window
  in
  Anneal_loop.run (Anneal_loop.Stage2 iteration) ?should_stop ~obs ~rng
    ~schedule:(Schedule.stage2 ~s_t)
    ~t_start:(Range_limiter.t_for_window_fraction limiter ~mu:prm.Params.mu)
    ~t_floor:(1e-6 *. t_inf)
    ~stop:(if final then Anneal_loop.Frozen 3 else Anneal_loop.Min_window)
    (Moves.make_ctx ~refine:true ~placement:p ~limiter
       ~stats:(Moves.make_stats ()) ())

(* Resize the core so the statically-expanded cells fit at the configured
   fill fraction — the paper's refinement "provides additional space as
   required" and "compacts as much as possible"; with a frozen core the
   routed channel widths could be unrealizable. *)
let resize_core p =
  let prm = Placement.params p in
  let area = float_of_int (Placement.expanded_area p) /. prm.Params.fill_target in
  let w = sqrt (area *. prm.Params.core_aspect) in
  let h = area /. w in
  let w = int_of_float (Float.round w) and h = int_of_float (Float.round h) in
  Placement.set_core p (Rect.of_center_dims ~cx:0 ~cy:0 ~w ~h)

(* One channel-define / route / refine execution, mutating the placement:
   the refinement anneal, then [final]'s frozen-cost stop or the minimum
   window span, then the quench.  [should_stop] cuts it short with caches
   repaired; [pool] parallelizes the per-net route enumeration without
   changing the result; [obs] wraps it in a "stage2.refine" span and never
   draws from [rng].  Returns the iteration, the routing and the anneal's
   per-temperature trace. *)
let refine_once ~rng ?(final = false) ?should_stop ?pool ?(obs = Obs.disabled)
    ?iteration p =
  Obs.span obs ~name:"stage2.refine"
    ~attrs:
      (if Obs.tracing obs then
         (match iteration with
         | Some i -> [ ("iteration", Attr.Int i) ]
         | None -> [])
         @ [ ("final", Attr.Bool final) ]
       else [])
    (fun () ->
      (* Flight note before the fault site: an injected [Fault.Abort] here
         leaves "stage2.refine" (with its iteration) as the ring's last
         entry — the black box names what was executing when the process
         died. *)
      Twmc_obs.Flight_recorder.note ?i:iteration
        ~detail:(if final then "final" else "refine")
        "stage2.refine";
      (* Fault site: fires per refinement execution, before any mutation, so
         an injected exception leaves the snapshot [run] took before the
         refinement as the authoritative state. *)
      Twmc_util.Fault.point "stage2.refine";
      let route = channel_and_route ?should_stop ?pool ~obs ~rng p in
      let exps = required_expansions p route in
      Placement.set_expander p (Placement.Static exps);
      resize_core p;
      let a = anneal ?should_stop ~obs ?iteration ~rng ~final p in
      let it =
        { regions = Graph.n_nodes route.Router.graph;
          graph_edges = Graph.n_edges route.Router.graph;
          routed_nets = List.length route.Router.routed;
          unroutable_nets = List.length route.Router.unroutable;
          route_length = route.Router.total_length;
          route_overflow = route.Router.overflow;
          teil_after = Placement.teil p;
          chip_after = Placement.chip_bbox p;
          cost_after = Placement.total_cost p;
          overlap_after = Placement.c2_raw p }
      in
      (it, route, a.Anneal_loop.trace))

let run ~rng ?(should_stop = fun () -> false) ?pool ?(obs = Obs.disabled)
    ?(start_iteration = 1) ?on_iteration (s1 : Stage1.result) =
  let p = s1.Stage1.placement in
  let prm = Placement.params p in
  let n = max 1 prm.Params.refinement_iterations in
  if start_iteration < 1 || start_iteration > n + 1 then
    invalid_arg "Stage2.run: start_iteration out of range";
  let iterations = ref [] in
  let traces = ref [] in
  let diags = ref [] and rollbacks = ref 0 in
  let add d = diags := d :: !diags in
  (* Telemetry for a completed refinement: emitted on the caller's domain
     from the returned iteration record, so it is identical at any --jobs. *)
  let observe_iteration i (it : iteration) =
    if Obs.tracing obs then
      Obs.point obs ~name:"route.iteration"
        ~attrs:
          [ ("iteration", Attr.Int i); ("regions", Attr.Int it.regions);
            ("channels", Attr.Int it.graph_edges);
            ("routed", Attr.Int it.routed_nets);
            ("unroutable", Attr.Int it.unroutable_nets);
            ("length", Attr.Int it.route_length);
            ("overflow", Attr.Int it.route_overflow);
            ("teil", Attr.Float it.teil_after) ]
        ()
  in
  let rolled_back i =
    incr rollbacks;
    if Obs.tracing obs then
      Obs.point obs ~name:"stage2.rollback"
        ~attrs:[ ("iteration", Attr.Int i) ]
        ()
  in
  (* Invoked after every executed (not budget-skipped) refinement, whether
     it was kept or rolled back: either way the placement is at a committed
     iteration boundary, which is exactly the state a durable checkpoint may
     capture. *)
  let boundary i = match on_iteration with Some f -> f i | None -> () in
  Obs.span obs ~name:"stage2"
    ~attrs:(if Obs.tracing obs then [ ("iterations", Attr.Int n) ] else [])
  @@ fun () ->
  for i = start_iteration to n do
    let name = Printf.sprintf "stage2 refinement %d" i in
    if should_stop () then begin
      if not (List.exists (fun d -> d.Diagnostic.code = "G401") !diags) then
        add (Guard.timeout_diag ~name)
    end
    else begin
      (* Snapshot first, then roll back if the refinement throws, corrupts
         the cost state, or grossly regresses the interconnect estimate. *)
      let before = Checkpoint.capture p in
      match
        refine_once ~rng ~final:(i = n) ~should_stop ?pool ~obs ~iteration:i p
      with
      | it, _route, trace ->
          let inv = Invariant.placement p in
          List.iter add inv;
          let teil_after = Placement.teil p in
          let regressed = teil_after > (2.0 *. Checkpoint.teil before) +. 1.0 in
          if Diagnostic.has_errors inv || regressed then begin
            Checkpoint.restore p before;
            rolled_back i;
            add
              (Diagnostic.make ~severity:Diagnostic.Warning ~entity:name
                 ~code:"G402"
                 (if regressed then
                    Printf.sprintf
                      "rolled back: TEIL regressed %.0f -> %.0f"
                      (Checkpoint.teil before) teil_after
                  else "rolled back: placement invariants violated"))
          end
          else begin
            iterations := it :: !iterations;
            traces := trace :: !traces;
            observe_iteration i it
          end;
          boundary i
      | exception ((Out_of_memory | Stack_overflow | Sys.Break
                   | Twmc_util.Fault.Abort _) as e) ->
          raise e
      | exception e ->
          Checkpoint.restore p before;
          rolled_back i;
          add
            (Diagnostic.make ~severity:Diagnostic.Error ~entity:name
               ~code:"G400"
               (Printf.sprintf "rolled back: refinement raised %s"
                  (Printexc.to_string e)));
          boundary i
    end
  done;
  (* A final routing pass reflecting the refined placement. *)
  let final_route =
    if should_stop () then None
    else
      match
        Obs.span obs ~name:"stage2.final_route" (fun () ->
            channel_and_route ~should_stop ?pool ~obs ~rng p)
      with
      | r ->
          List.iter add (Invariant.channel_graph r.Router.graph);
          List.iter add (Invariant.route r);
          Some r
      | exception ((Out_of_memory | Stack_overflow | Sys.Break
                   | Twmc_util.Fault.Abort _) as e) ->
          raise e
      | exception e ->
          add
            (Diagnostic.make ~severity:Diagnostic.Error ~entity:"final route"
               ~code:"G400"
               (Printf.sprintf "global routing failed: %s"
                  (Printexc.to_string e)));
          None
  in
  { placement = p;
    iterations = List.rev !iterations;
    final_route;
    teil = Placement.teil p;
    chip = Placement.chip_bbox p;
    interrupted = should_stop ();
    rollbacks = !rollbacks;
    diagnostics = List.rev !diags;
    trace = List.concat (List.rev !traces) }

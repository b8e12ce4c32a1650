open Twmc_geometry
open Twmc_netlist
module Rng = Twmc_sa.Rng
module Schedule = Twmc_sa.Schedule
module Domain_pool = Twmc_util.Domain_pool

type temp_record = Anneal_loop.temp_record = {
  temperature : float;
  cost : float;
  c1 : float;
  c2_raw : float;
  c3 : float;
  acceptance : float;
  window : float * float;
}

type result = {
  placement : Placement.t;
  t_inf : float;
  s_t : float;
  core : Rect.t;
  teil : float;
  c1 : float;
  residual_overlap : float;
  chip : Rect.t;
  move_stats : Moves.stats;
  trace : temp_record list;
  temperatures_visited : int;
  interrupted : bool;
}

(* Scatter every cell uniformly over the core; used to sample the random
   ensemble that normalizes p2. *)
let randomize rng p =
  let core = Placement.core p in
  let nl = Placement.netlist p in
  let fixed = Array.make (Netlist.n_cells nl) false in
  Array.iter
    (function
      | Constr.Fixed { cell; _ } -> fixed.(cell) <- true
      | _ -> ())
    nl.Netlist.constraints;
  for ci = 0 to Netlist.n_cells nl - 1 do
    if fixed.(ci) then begin
      (* Preplaced cells stay put ([Moves] vetoes their corrective
         moves, so scattering them would be permanent); the draws still
         happen to keep RNG consumption uniform per cell. *)
      ignore (Rng.int_incl rng core.Rect.x0 core.Rect.x1);
      ignore (Rng.int_incl rng core.Rect.y0 core.Rect.y1)
    end
    else
      Placement.set_cell p ci
        ~x:(Rng.int_incl rng core.Rect.x0 core.Rect.x1)
        ~y:(Rng.int_incl rng core.Rect.y0 core.Rect.y1)
        ()
  done

(* Random configurations sampled to normalize p2 (Sec 3.1.2). *)
let p2_samples = 20

let normalize_p2 rng p ~eta ~samples =
  let c1s = ref 0.0 and c2s = ref 0.0 in
  for _ = 1 to samples do
    randomize rng p;
    c1s := !c1s +. Placement.c1 p;
    c2s := !c2s +. Placement.c2_raw p
  done;
  let p2 = if !c2s <= 0.0 then 1.0 else eta *. !c1s /. !c2s in
  Placement.set_p2 p p2

(* The core's fill by expanded cells (Sec 2.2, "Determining the Core
   Area"); the paper gives no figure. *)
let fill_target = 0.75

let initial_core nl =
  let r = Twmc_estimator.Core_area.determine ~fill_target nl in
  Rect.of_center_dims ~cx:0 ~cy:0 ~w:r.Twmc_estimator.Core_area.core_w
    ~h:r.Twmc_estimator.Core_area.core_h

module Obs = Twmc_obs.Ctx
module Attr = Twmc_obs.Attr

let run ?(params = Params.default) ?core ?should_stop ?(obs = Obs.disabled)
    ?replica ~rng nl =
  (* Flight-recorder note first, then the fault site: an injected abort
     leaves the site it killed as the ring's last entry. *)
  Twmc_obs.Flight_recorder.note ?i:replica "stage1.replica";
  (* Fault site: fires per replica (inside the worker domain under
     best-of-K), exercising the guarded driver's retry path. *)
  Twmc_util.Fault.point "stage1.replica";
  let core = match core with Some c -> c | None -> initial_core nl in
  let estimator =
    Twmc_estimator.Dynamic_area.create ~core_w:(Rect.width core)
      ~core_h:(Rect.height core) nl
  in
  let p =
    Placement.create ~params ~core ~expander:(Placement.Dynamic estimator) ~rng
      nl
  in
  normalize_p2 rng p ~eta:params.Params.eta ~samples:p2_samples;
  (* The paper scales T∞ by the average cell area including the estimated
     interconnect area (Eqns 19–21). *)
  let s_t = Schedule.s_t ~avg_cell_area:(Anneal_loop.avg_cell_area p) in
  let t_inf = Schedule.t_infinity ~s_t in
  let limiter = Range_limiter.of_core ~rho:params.Params.rho ~t_inf ~core in
  let stats = Moves.make_stats () in
  (* Stops after an inner loop at the minimum window span (Sec 3.3). *)
  let a =
    Anneal_loop.run (Anneal_loop.Stage1 replica) ?should_stop ~obs ~rng
      ~schedule:(Schedule.stage1 ~s_t) ~t_start:t_inf ~t_floor:(1e-4 *. t_inf)
      ~stop:Anneal_loop.Min_window
      (Moves.make_ctx ~placement:p ~limiter ~stats ())
  in
  { placement = p;
    t_inf;
    s_t;
    core;
    teil = Placement.teil p;
    c1 = Placement.c1 p;
    residual_overlap = Placement.c2_raw p;
    chip = Placement.chip_bbox p;
    move_stats = stats;
    trace = a.Anneal_loop.trace;
    temperatures_visited = a.Anneal_loop.temperatures;
    interrupted = a.Anneal_loop.interrupted }

(* --------------------------------------------- best-of-K multi-start *)

type multi_result = {
  best : result;
  best_index : int;
  replica_costs : float array;
}

let run_best_of_k ?params ?core ?should_stop ?pool ?(obs = Obs.disabled) ~rng
    ~k nl =
  if k <= 0 then invalid_arg "Stage1.run_best_of_k: k <= 0";
  (* Child streams are derived from the parent sequentially, BEFORE any
     replica runs: the set of streams depends only on (seed, k), never on
     the pool size, which is what makes --jobs 1 and --jobs N bit-identical
     at fixed K. *)
  let rngs = Array.init k (fun _ -> Rng.split rng) in
  let replica i child_rng =
    run ?params ?core ?should_stop ~obs ~replica:i ~rng:child_rng nl
  in
  let results =
    Obs.span obs ~name:"stage1.best_of_k"
      ~attrs:(if Obs.tracing obs then [ ("k", Attr.Int k) ] else [])
      (fun () ->
        match pool with
        | Some pool -> Domain_pool.parallel_map pool ~f:replica rngs
        | None -> Array.mapi replica rngs)
  in
  let cost r = Placement.total_cost r.placement in
  let replica_costs = Array.map cost results in
  (* Strict-< selection: ties go to the lowest replica index, a total order
     independent of evaluation order. *)
  let best_index = ref 0 in
  for i = 1 to k - 1 do
    if replica_costs.(i) < replica_costs.(!best_index) then best_index := i
  done;
  Twmc_obs.Flight_recorder.note ~i:!best_index
    ~f:replica_costs.(!best_index) "stage1.winner";
  if Obs.tracing obs then begin
    (* Emitted in index order after the join — deterministic at any pool
       size. *)
    Array.iteri
      (fun i c ->
        Obs.point obs ~name:"stage1.replica"
          ~attrs:[ ("replica", Attr.Int i); ("cost", Attr.Float c) ]
          ())
      replica_costs;
    Obs.point obs ~name:"stage1.winner"
      ~attrs:
        [ ("index", Attr.Int !best_index);
          ("cost", Attr.Float replica_costs.(!best_index)) ]
      ()
  end;
  { best = results.(!best_index);
    best_index = !best_index;
    replica_costs }

let run_replicas ~params ?core ?should_stop ?pool ?obs ~rng ~replicas nl =
  if replicas <= 1 then (run ~params ?core ?should_stop ?obs ~rng nl, None)
  else
    let mr =
      run_best_of_k ~params ?core ?should_stop ?pool ?obs ~rng ~k:replicas nl
    in
    (mr.best, Some mr)

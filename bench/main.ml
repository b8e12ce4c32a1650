(* Benchmark and reproduction harness.

   With no arguments this regenerates every table and figure of the paper at
   the quick profile (CSV copies under results/) and then times the
   computational kernel behind each one with Bechamel.  A single argument
   selects one piece:

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table3       # one experiment
     dune exec bench/main.exe -- micro        # just the Bechamel kernels
     dune exec bench/main.exe -- tables --profile full   # paper-scale *)

module Profile = Twmc_experiments.Profile

let ppf = Format.std_formatter

let csv name = Some (Filename.concat "results" (name ^ ".csv"))

let run_experiment profile name =
  match Twmc_experiments.find name with
  | Some run -> run ~csv profile ppf
  | None -> Format.fprintf ppf "unknown experiment %s@." name

(* ------------------------------------------------- Bechamel kernels *)

let bench_netlist =
  lazy
    (Twmc_workload.Synth.generate ~seed:5
       { Twmc_workload.Synth.default_spec with
         Twmc_workload.Synth.n_cells = 12;
         n_nets = 40;
         n_pins = 140 })

let make_bench_placement () =
  let nl = Lazy.force bench_netlist in
  let core = Twmc_geometry.Rect.make ~x0:(-300) ~y0:(-300) ~x1:300 ~y1:300 in
  let est = Twmc_estimator.Dynamic_area.create ~core_w:600 ~core_h:600 nl in
  let p =
    Twmc_place.Placement.create ~params:Twmc_place.Params.default ~core
      ~expander:(Twmc_place.Placement.Dynamic est)
      ~rng:(Twmc_sa.Rng.create ~seed:6)
      nl
  in
  (nl, est, p)

(* Shared by the kernels that only read the placement; the generate kernel
   anneals its own copy, so how many moves it happens to run cannot change
   what the others (channel definition, the router scene) measure. *)
let bench_placement = lazy (make_bench_placement ())

let bench_channel_scene =
  lazy
    (let _, _, p = Lazy.force bench_placement in
     let regions = Twmc_channel.Extract.of_placement p in
     let g = Twmc_channel.Graph.build ~track_spacing:2 regions in
     (p, g))

let micro_tests () =
  let open Bechamel in
  let nl = Lazy.force bench_netlist in
  let schedule = Twmc_sa.Schedule.stage1 ~s_t:1.0 in
  let t_schedule =
    (* Tables 1-2: one full cooling profile. *)
    Test.make ~name:"table1+2: stage-1 cooling profile"
      (Staged.stage (fun () ->
           ignore
             (Twmc_sa.Schedule.temperatures schedule ~t_start:1e5 ~t_final:1.0)))
  in
  let t_expansion =
    let _, est, _ = Lazy.force bench_placement in
    let tile = Twmc_geometry.Rect.make ~x0:(-40) ~y0:(-30) ~x1:40 ~y1:30 in
    (* Table 3's enabling kernel: the Eqn 2 dynamic expansion. *)
    Test.make ~name:"table3: dynamic edge expansion (eqn 2)"
      (Staged.stage (fun () ->
           ignore
             (Twmc_estimator.Dynamic_area.expand_tile est ~cell:0 ~variant:0
                tile)))
  in
  let t_generate =
    let _, _, p = make_bench_placement () in
    let limiter =
      Twmc_place.Range_limiter.of_core ~rho:4.0 ~t_inf:1e5
        ~core:(Twmc_place.Placement.core p) ~min_window:6
    in
    let stats = Twmc_place.Moves.make_stats () in
    let ctx = Twmc_place.Moves.make_ctx ~placement:p ~limiter ~stats () in
    let rng = Twmc_sa.Rng.create ~seed:7 in
    (* Table 4 / Fig 3 / Figs 5-6: the stage-1 generate function. *)
    Test.make ~name:"table4+figs3,5,6: generate (one SA move)"
      (Staged.stage (fun () -> Twmc_place.Moves.generate ctx rng ~temp:100.0))
  in
  let t_extract =
    let _, _, p = Lazy.force bench_placement in
    (* Figs 7-9: channel definition. *)
    Test.make ~name:"figs7-9: channel definition"
      (Staged.stage (fun () -> ignore (Twmc_channel.Extract.of_placement p)))
  in
  let t_steiner =
    let _, g = Lazy.force bench_channel_scene in
    let n = Twmc_channel.Graph.n_nodes g in
    let terminals = [ [ 0 ]; [ n / 2 ]; [ n - 1 ] ] in
    (* Figs 10-12: phase-1 Steiner route enumeration. *)
    Test.make ~name:"figs10-12: steiner M-route enumeration"
      (Staged.stage (fun () ->
           ignore (Twmc_route.Steiner.routes g ~m:8 ~terminals)))
  in
  let t_modulation =
    (* Fig 1: the position modulation. *)
    Test.make ~name:"fig1: modulation weight"
      (Staged.stage (fun () ->
           ignore
             (Twmc_estimator.Modulation.weight Twmc_estimator.Modulation.default
                ~core_w:1000.0 ~core_h:1000.0 ~x:123.0 ~y:(-77.0))))
  in
  let t_window =
    let lim =
      Twmc_place.Range_limiter.create ~rho:4.0 ~t_inf:1e5 ~wx_inf:2000.0
        ~wy_inf:2000.0 ~min_window:6
    in
    (* Fig 4: the range-limiter window. *)
    Test.make ~name:"fig4: range-limiter window"
      (Staged.stage (fun () ->
           ignore (Twmc_place.Range_limiter.window lim ~temp:314.0)))
  in
  let t_parse =
    let text = Twmc_netlist.Writer.to_string nl in
    Test.make ~name:"io: netlist parse"
      (Staged.stage (fun () -> ignore (Twmc_netlist.Parser.parse_string text)))
  in
  let t_peko_generate =
    let spec = Twmc_qa.Peko.spec_of_scale 25 in
    (* The constructed-optima workload: one certified 25-cell case. *)
    Test.make ~name:"qa-gap: peko generate (25 cells)"
      (Staged.stage (fun () -> ignore (Twmc_workload.Peko.generate ~seed:1 spec)))
  in
  let t_peko_check =
    let pnl, cert =
      Twmc_workload.Peko.generate ~seed:1 (Twmc_qa.Peko.spec_of_scale 25)
    in
    (* The certificate checker: every oracle over one certified case. *)
    Test.make ~name:"qa-gap: peko certificate check (25 cells)"
      (Staged.stage (fun () ->
           ignore (Twmc_qa.Oracle.check_certificate pnl cert)))
  in
  let t_obs_disabled =
    let obs = Twmc_obs.Ctx.disabled in
    (* The disabled instrumentation path: one span + one point through a
       null sink must stay in the nanoseconds. *)
    Test.make ~name:"obs: disabled span+point (no-op path)"
      (Staged.stage (fun () ->
           Twmc_obs.Ctx.span obs ~name:"bench" (fun () ->
               Twmc_obs.Ctx.point obs ~name:"bench" ())))
  in
  [ t_schedule; t_expansion; t_generate; t_extract; t_steiner; t_modulation;
    t_window; t_parse; t_peko_generate; t_peko_check; t_obs_disabled ]

let bechamel_run tests =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:(Some 500) ()
  in
  let collected = ref [] in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> Analyze.all
             (Analyze.ols ~bootstrap:0 ~r_square:false
                ~predictors:[| Measure.run |])
             Toolkit.Instance.monotonic_clock
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              collected := (name, est) :: !collected;
              Format.printf "  %-48s %12.1f ns/run@." name est
          | _ -> Format.printf "  %-48s (no estimate)@." name)
        results)
    tests;
  List.rev !collected

let run_micro_bechamel () =
  Format.printf "@.Bechamel kernels (monotonic clock):@.";
  bechamel_run (micro_tests ())

(* ------------------------------------------- placement engine kernels *)

(* A synthetic circuit big enough (>= 200 cells) that the indexed overlap
   query and the evaluation of a rejected move run at a realistic local
   density. *)
let place_bench_scene =
  lazy
    (let nl =
       Twmc_workload.Synth.generate ~seed:21
         { Twmc_workload.Synth.default_spec with
           Twmc_workload.Synth.name = "bench220";
           n_cells = 220;
           n_nets = 500;
           n_pins = 1600;
           frac_custom = 0.3 }
     in
     let sizing =
       Twmc_estimator.Core_area.determine
         ~beta:Twmc_place.Params.default.Twmc_place.Params.beta ~aspect:1.0
         ~fill_target:0.6 nl
     in
     let w = sizing.Twmc_estimator.Core_area.core_w
     and h = sizing.Twmc_estimator.Core_area.core_h in
     let core = Twmc_geometry.Rect.of_center_dims ~cx:0 ~cy:0 ~w ~h in
     let est =
       Twmc_estimator.Dynamic_area.create ~core_w:w ~core_h:h nl
     in
     let p =
       Twmc_place.Placement.create ~params:Twmc_place.Params.default ~core
         ~expander:(Twmc_place.Placement.Dynamic est)
         ~rng:(Twmc_sa.Rng.create ~seed:22)
         nl
     in
     Twmc_place.Placement.set_p2 p 0.5;
     (nl, core, p))

let kn_overlap_indexed = "place: overlap-indexed (220 cells)"
let kn_delta_eval = "place: delta-eval (rejected move)"

let place_kernel_tests () =
  let open Bechamel in
  let nl, core, p = Lazy.force place_bench_scene in
  let n = Twmc_netlist.Netlist.n_cells nl in
  (* A fixed cycle of displacement proposals, shared by every kernel so
     they all measure the same traffic. *)
  let props =
    let rng = Twmc_sa.Rng.create ~seed:33 in
    Array.init 256 (fun _ ->
        ( Twmc_sa.Rng.int_incl rng 0 (n - 1),
          Twmc_sa.Rng.int_incl rng core.Twmc_geometry.Rect.x0
            core.Twmc_geometry.Rect.x1,
          Twmc_sa.Rng.int_incl rng core.Twmc_geometry.Rect.y0
            core.Twmc_geometry.Rect.y1 ))
  in
  let cycle counter = let i = !counter in counter := (i + 1) land 255; i in
  let t_indexed =
    let c = ref 0 in
    Test.make ~name:kn_overlap_indexed
      (Staged.stage (fun () ->
           let ci, _, _ = props.(cycle c) in
           ignore (Twmc_place.Placement.cell_overlap p ci)))
  in
  let t_delta =
    let c = ref 0 in
    (* A rejected move: evaluate, decide, touch nothing.  The cell keeps
       its committed orientation and variant. *)
    Test.make ~name:kn_delta_eval
      (Staged.stage (fun () ->
           let ci, x, y = props.(cycle c) in
           ignore
             (Twmc_place.Placement.delta_cell p ci ~x ~y
                ~orient:(Twmc_place.Placement.cell_orient p ci)
                ~variant:(Twmc_place.Placement.cell_variant p ci))))
  in
  [ t_indexed; t_delta ]

let place_kernels () =
  Format.printf "@.Placement cost-engine kernels (220-cell synthetic):@.";
  bechamel_run (place_kernel_tests ())

(* ------------------------------------- multicore kernels (1/2/4 domains) *)

(* Wall-clock (not Bechamel) timing: a best-of-4 stage-1 run takes long
   enough that OLS sampling would be wasteful, and CPU time is the wrong
   clock for a speedup measurement. *)
let wall_time f =
  let t0 = Twmc_obs.Clock.now_ns () in
  let v = f () in
  (v, Twmc_obs.Clock.s_of_ns (Twmc_obs.Clock.now_ns () - t0))

(* The medium synthetic circuit (the 25-cell default spec behind
   examples/netlists/medium.twn), annealed at a reduced A_c so one
   best-of-4 pass stays in benchmark territory. *)
let parallel_netlist =
  lazy (Twmc_workload.Synth.generate ~seed:11 Twmc_workload.Synth.default_spec)

let parallel_params = { Twmc_place.Params.default with Twmc_place.Params.a_c = 30 }

(* A placement fingerprint: the parallel layer promises bit-identical
   winners across --jobs settings, so the kernels verify it while timing. *)
let fingerprint (r : Twmc_place.Stage1.result) =
  let p = r.Twmc_place.Stage1.placement in
  let nl = Twmc_place.Placement.netlist p in
  let acc = ref 0 in
  for ci = 0 to Twmc_netlist.Netlist.n_cells nl - 1 do
    let x, y = Twmc_place.Placement.cell_pos p ci in
    let o = Twmc_place.Placement.cell_orient p ci in
    acc := Hashtbl.hash (!acc, x, y, o, Twmc_place.Placement.cell_variant p ci)
  done;
  !acc

let stage1_multicore_kernels () =
  let nl = Lazy.force parallel_netlist in
  let k = 4 in
  let run_at jobs =
    let run pool =
      Twmc_place.Stage1.run_best_of_k ~params:parallel_params ?pool
        ~rng:(Twmc_sa.Rng.create ~seed:3) ~k nl
    in
    if jobs <= 1 then wall_time (fun () -> run None)
    else
      Twmc_util.Domain_pool.with_pool ~jobs (fun p ->
          wall_time (fun () -> run (Some p)))
  in
  Format.printf "@.Parallel stage-1 (best-of-%d, medium synthetic):@." k;
  let base = ref nan and base_fp = ref 0 and rows = ref [] in
  List.iter
    (fun jobs ->
      let mr, dt = run_at jobs in
      let fp = fingerprint mr.Twmc_place.Stage1.best in
      if jobs = 1 then begin
        base := dt;
        base_fp := fp
      end;
      let name = Printf.sprintf "stage1 best-of-%d (jobs=%d)" k jobs in
      rows := (name, dt *. 1e9) :: !rows;
      Format.printf "  %-48s %8.0f ms  speedup %.2fx  winner=%d %s@." name
        (dt *. 1000.0) (!base /. dt) mr.Twmc_place.Stage1.best_index
        (if fp = !base_fp then "[identical]" else "[MISMATCH]");
      if fp <> !base_fp then failwith "best-of-K winner differs across jobs")
    [ 1; 2; 4 ];
  List.rev !rows

let route_multicore_kernels () =
  let p, g = Lazy.force bench_channel_scene in
  let tasks = Twmc_channel.Pin_map.tasks g p in
  let run_at jobs =
    let run pool =
      Twmc_route.Global_router.route ~m:8 ?pool
        ~rng:(Twmc_sa.Rng.create ~seed:4) ~graph:g ~tasks ()
    in
    if jobs <= 1 then wall_time (fun () -> run None)
    else
      Twmc_util.Domain_pool.with_pool ~jobs (fun pl ->
          wall_time (fun () -> run (Some pl)))
  in
  Format.printf "@.Parallel per-net route enumeration:@.";
  let base = ref nan and base_fp = ref "" and rows = ref [] in
  List.iter
    (fun jobs ->
      let r, dt = run_at jobs in
      let fp = Twmc_qa.Fingerprint.route r in
      if jobs = 1 then begin
        base := dt;
        base_fp := fp
      end;
      let name = Printf.sprintf "router phase-1 (jobs=%d)" jobs in
      rows := (name, dt *. 1e9) :: !rows;
      Format.printf "  %-48s %8.1f ms  speedup %.2fx  L=%d %s@." name
        (dt *. 1000.0) (!base /. dt) r.Twmc_route.Global_router.total_length
        (if fp = !base_fp then "[identical]" else "[MISMATCH]");
      if fp <> !base_fp then failwith "routing differs across jobs")
    [ 1; 2; 4 ];
  List.rev !rows

(* ------------------------------------------- observability overhead *)

(* The Twmc_obs contract: a disabled context costs one branch per site, an
   enabled one must stay in low single digits.  Same stage-1 anneal, same
   seed — only the context differs (results are bit-identical either way,
   so the work measured is the same). *)
let obs_overhead_kernels () =
  let nl = Lazy.force bench_netlist in
  let params =
    { Twmc_place.Params.default with Twmc_place.Params.a_c = 40 }
  in
  let run_with obs () =
    ignore
      (Twmc_place.Stage1.run ~params ~obs ~rng:(Twmc_sa.Rng.create ~seed:9) nl)
  in
  (* Warm once, then keep the fastest of 3 — the min is the stable
     estimator for wall-clock comparisons. *)
  let best f =
    f ();
    let t = ref infinity in
    for _ = 1 to 3 do
      let (), dt = wall_time f in
      if dt < !t then t := dt
    done;
    !t
  in
  let disabled = best (run_with Twmc_obs.Ctx.disabled) in
  let enabled =
    best (fun () ->
        run_with (Twmc_obs.Ctx.create (Twmc_obs.Sink.memory ())) ())
  in
  Format.printf "@.Observability overhead (stage-1 anneal, same seed):@.";
  Format.printf "  %-48s %8.1f ms@." "stage1 obs=disabled"
    (disabled *. 1000.0);
  Format.printf "  %-48s %8.1f ms  overhead %+.1f%%@."
    "stage1 obs=enabled (memory sink)" (enabled *. 1000.0)
    (100.0 *. (enabled -. disabled) /. disabled);
  [ ("obs-overhead: stage1 obs=disabled", disabled *. 1e9);
    ("obs-overhead: stage1 obs=enabled", enabled *. 1e9) ]

(* ------------------------------------------------------- JSON emission *)

let write_json path kernels =
  Twmc_util.Atomic_io.mkdir_p (Filename.dirname path);
  Twmc_util.Atomic_io.write_string path
    (Twmc_obs.Report.bench_to_string kernels);
  Format.printf "@.wrote %s (%d kernels)@." path (List.length kernels)

let run_micro ?json () =
  let bechamel = run_micro_bechamel () in
  let place = place_kernels () in
  let stage1 = stage1_multicore_kernels () in
  let route = route_multicore_kernels () in
  let obs = obs_overhead_kernels () in
  let kernels = bechamel @ place @ stage1 @ route @ obs in
  match json with None -> () | Some path -> write_json path kernels

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec strip acc prof json = function
    | [] -> (List.rev acc, prof, json)
    | "--profile" :: p :: rest -> (
        match Profile.of_name p with
        | Some p -> strip acc p json rest
        | None -> failwith ("unknown profile " ^ p))
    | "--json" :: path :: rest -> strip acc prof (Some path) rest
    | a :: rest -> strip (a :: acc) prof json rest
  in
  let names, profile, json = strip [] Profile.quick None args in
  match names with
  | [] ->
      Format.printf
        "TimberWolfMC reproduction — all tables and figures, profile %s@.@."
        profile.Profile.name;
      List.iter
        (fun (_, run) ->
          run ~csv profile ppf;
          Format.printf "@.")
        Twmc_experiments.all;
      run_micro ?json ()
  | [ "micro" ] -> run_micro ?json ()
  | [ "place-kernels" ] -> (
      let rows = place_kernels () in
      match json with None -> () | Some path -> write_json path rows)
  | [ "tables" ] ->
      List.iter
        (fun e ->
          run_experiment profile e;
          Format.printf "@.")
        [ "table3"; "table4" ]
  | names ->
      List.iter
        (fun e ->
          run_experiment profile e;
          Format.printf "@.")
        names

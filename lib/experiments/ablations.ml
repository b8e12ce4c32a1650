type point = { label : string; avg_teil : float; avg_residual_overlap : float }

let spec =
  { Twmc_workload.Synth.default_spec with
    Twmc_workload.Synth.name = "ablation";
    n_cells = 25;
    n_nets = 90;
    n_pins = 330;
    frac_custom = 0.0 }

let stage1_point (profile : Profile.t) ~label params =
  let teil = ref 0.0 and ovl = ref 0.0 and n = ref 0 in
  List.iter
    (fun seed ->
      let nl = Twmc_workload.Synth.generate ~seed spec in
      let rng = Twmc_sa.Rng.create ~seed:(3000 + seed) in
      let r = Twmc_place.Stage1.run ~params ~rng nl in
      teil := !teil +. r.Twmc_place.Stage1.teil;
      ovl := !ovl +. r.Twmc_place.Stage1.residual_overlap;
      incr n)
    profile.Profile.seeds;
  let n = float_of_int !n in
  { label; avg_teil = !teil /. n; avg_residual_overlap = !ovl /. n }

let render ~title ?out_csv points ppf =
  let header = [ "variant"; "avg_final_TEIL"; "avg_residual_overlap" ] in
  let rows =
    List.map
      (fun p -> [ p.label; Report.f0 p.avg_teil; Report.f0 p.avg_residual_overlap ])
      points
  in
  Format.fprintf ppf "%s@." title;
  Report.table ~header ~rows ppf;
  match out_csv with
  | Some path -> Report.write_csv ~path ~header ~rows
  | None -> ()

(* The residual-overlap comparisons disable the quench tail's masking effect
   by comparing like with like: both variants run the identical driver. *)
let run_ds_vs_dr ?out_csv (profile : Profile.t) ppf =
  let base = Profile.params profile in
  let points =
    [ stage1_point profile ~label:"Ds (structured)"
        { base with Twmc_place.Params.displacement_selector = Twmc_place.Params.Ds };
      stage1_point profile ~label:"Dr (uniform)"
        { base with Twmc_place.Params.displacement_selector = Twmc_place.Params.Dr } ]
  in
  render
    ~title:
      "Ablation §3.2.3 — displacement-point selection (paper: Ds gives ~22% \
       lower residual overlap, slightly better TEIL)"
    ?out_csv points ppf;
  points

let etas = [ 0.1; 0.25; 0.5; 1.0; 2.0 ]
let rhos = [ 1.0; 2.0; 4.0; 7.0; 10.0 ]

let run_eta ?out_csv profile ppf =
  let base = Profile.params profile in
  let points =
    List.map
      (fun eta ->
        stage1_point profile
          ~label:(Printf.sprintf "eta=%.2f" eta)
          { base with Twmc_place.Params.eta })
      etas
  in
  render
    ~title:
      "Ablation §3.1.2 — overlap normalization eta (paper: flat over [0.25, \
       1.0])"
    ?out_csv points ppf;
  points

let run_rho ?out_csv profile ppf =
  let base = Profile.params profile in
  let points =
    List.map
      (fun rho ->
        stage1_point profile
          ~label:(Printf.sprintf "rho=%g" rho)
          { base with Twmc_place.Params.rho })
      rhos
  in
  render
    ~title:
      "Ablation §3.2.2 — range-limiter base rho (paper: TEIL flat for rho \
       <= 4, residual overlap falls as rho grows)"
    ?out_csv points ppf;
  points

type point = { r : float; avg_teil : float; normalized : float }

let ratios = [ 1.0; 2.0; 4.0; 7.0; 10.0; 15.0; 25.0; 50.0 ]

(* The paper ran this on circuits averaging ~25 macro cells with A_c = 200;
   the profile scales A_c. *)
let spec =
  { Twmc_workload.Synth.default_spec with
    Twmc_workload.Synth.name = "fig3";
    n_cells = 25;
    n_nets = 90;
    n_pins = 330;
    frac_custom = 0.0 }

let run ?out_csv (profile : Profile.t) ppf =
  let base = Profile.params profile in
  let points =
    List.map
      (fun r ->
        let params = { base with Twmc_place.Params.r_ratio = r } in
        let total = ref 0.0 and n = ref 0 in
        List.iter
          (fun seed ->
            let nl = Twmc_workload.Synth.generate ~seed spec in
            let rng = Twmc_sa.Rng.create ~seed:(1000 + seed) in
            let res = Twmc_place.Stage1.run ~params ~rng nl in
            total := !total +. res.Twmc_place.Stage1.teil;
            incr n)
          profile.Profile.seeds;
        (r, !total /. float_of_int !n))
      ratios
  in
  let best = List.fold_left (fun acc (_, t) -> Float.min acc t) infinity points in
  let points =
    List.map
      (fun (r, t) -> { r; avg_teil = t; normalized = t /. best })
      points
  in
  let header = [ "r"; "avg_final_TEIL"; "normalized" ] in
  let rows =
    List.map
      (fun p ->
        [ Printf.sprintf "%g" p.r; Report.f0 p.avg_teil;
          Printf.sprintf "%.3f" p.normalized ])
      points
  in
  Format.fprintf ppf
    "Figure 3 — normalized final TEIL vs displacement:interchange ratio r \
     (paper: flat within 1%% for r in [7,15])@.";
  Report.table ~header ~rows ppf;
  (match out_csv with
  | Some path -> Report.write_csv ~path ~header ~rows
  | None -> ());
  points

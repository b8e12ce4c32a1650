type point = {
  a_c : int;
  avg_teil : float;
  norm_teil : float;
  avg_area : float;
  rel_area : float;
  avg_time_s : float;
}

let acs = [ 10; 25; 50; 100; 200; 400 ]

(* "Circuits containing 30 to 60 macro cells" (Sec 3.3). *)
let spec =
  { Twmc_workload.Synth.default_spec with
    Twmc_workload.Synth.name = "fig56";
    n_cells = 40;
    n_nets = 150;
    n_pins = 560;
    frac_custom = 0.0 }

let run ?out_csv (profile : Profile.t) ppf =
  let base = Profile.params profile in
  let points =
    List.map
      (fun a_c ->
        let params = { base with Twmc_place.Params.a_c } in
        let teil = ref 0.0 and area = ref 0.0 and time = ref 0.0 in
        let n = ref 0 in
        List.iter
          (fun seed ->
            let nl = Twmc_workload.Synth.generate ~seed spec in
            let r = Twmc.Flow.run ~params ~seed:(2000 + seed) nl in
            teil := !teil +. r.Twmc.Flow.teil_final;
            area := !area +. float_of_int r.Twmc.Flow.area_final;
            time := !time +. r.Twmc.Flow.elapsed_s;
            incr n)
          profile.Profile.seeds;
        let n = float_of_int !n in
        (a_c, !teil /. n, !area /. n, !time /. n))
      acs
  in
  let best_teil =
    List.fold_left (fun acc (_, t, _, _) -> Float.min acc t) infinity points
  and best_area =
    List.fold_left (fun acc (_, _, a, _) -> Float.min acc a) infinity points
  in
  let points =
    List.map
      (fun (a_c, t, a, s) ->
        { a_c;
          avg_teil = t;
          norm_teil = t /. best_teil;
          avg_area = a;
          rel_area = a /. best_area;
          avg_time_s = s })
      points
  in
  let header =
    [ "A_c"; "avg_TEIL"; "norm_TEIL(fig5)"; "avg_area"; "rel_area(fig6)";
      "avg_time_s" ]
  in
  let rows =
    List.map
      (fun p ->
        [ string_of_int p.a_c;
          Report.f0 p.avg_teil;
          Printf.sprintf "%.3f" p.norm_teil;
          Report.f0 p.avg_area;
          Printf.sprintf "%.3f" p.rel_area;
          Printf.sprintf "%.2f" p.avg_time_s ])
      points
  in
  Format.fprintf ppf
    "Figures 5-6 — final TEIL and chip area vs A_c (paper: saturation near \
     400; time proportional to A_c)@.";
  Report.table ~header ~rows ppf;
  (match out_csv with
  | Some path -> Report.write_csv ~path ~header ~rows
  | None -> ());
  points

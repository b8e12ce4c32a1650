module Gen = Twmc_workload.Peko
module Params = Twmc_place.Params
module Stage1 = Twmc_place.Stage1
module Rng = Twmc_sa.Rng
module Baseline = Twmc_baselines.Baseline
module Json = Twmc_obs.Json
module Flow = Twmc.Flow

type point = {
  algo : string;
  case_name : string;
  n_cells : int;
  optimal : float;
  measured : float;
  ratio : float;
  status : string;
}

type sweep = { seed : int; a_c : int; points : point list }

(* ["stage1"], ["stage2"] (the full flow) and every
   [Twmc_baselines.comparators] entry, in run order. *)
let all_algos =
  [ "stage1"; "stage2" ] @ List.map fst Twmc_baselines.comparators

(* One measurement = one TEIL.  Each algorithm gets a seed derived from
   (sweep seed, scale) so cases are independent draws but the whole sweep
   is a pure function of the sweep seed. *)
let measure ~algo ~params ~seed nl =
  match algo with
  | "stage1" ->
      let r = Stage1.run ~params ~rng:(Rng.create ~seed) nl in
      r.Stage1.teil
  | "stage2" ->
      let r = Flow.run ~params ~seed nl in
      r.Flow.teil_final
  | _ -> (
      match List.assoc_opt algo Twmc_baselines.comparators with
      | None -> invalid_arg (Printf.sprintf "Suboptimality: unknown algorithm %S" algo)
      | Some place ->
          let pr = place ~seed nl in
          (Baseline.evaluate ~seed nl pr).Baseline.teil)

let run ?algos ?(a_c = 8) ?locality ?utilization ?(progress = fun _ -> ())
    ~scales ~seed () =
  let algos = match algos with Some l -> l | None -> all_algos in
  List.iter
    (fun a ->
      if not (List.mem a all_algos) then
        invalid_arg (Printf.sprintf "Suboptimality.run: unknown algorithm %S" a))
    algos;
  let points =
    List.concat_map
      (fun n ->
        let spec = Peko.spec_of_scale ?locality ?utilization n in
        let case_seed = seed + (7919 * n) in
        let nl, cert = Gen.generate ~seed:case_seed spec in
        let optimal = cert.Gen.optimal_teil in
        let cert_failures = Oracle.check_certificate nl cert in
        let params = { Params.default with Params.a_c; seed = case_seed } in
        List.map
          (fun algo ->
            progress
              (Printf.sprintf "%s on %s (%d cells)" algo spec.Gen.name n);
            let measured, status =
              if cert_failures <> [] then
                ( Float.nan,
                  Printf.sprintf "error: certificate rejected: %s"
                    (Format.asprintf "%a" Oracle.pp_failure
                       (List.hd cert_failures)) )
              else
                match measure ~algo ~params ~seed:case_seed nl with
                | teil -> (teil, "ok")
                | exception exn ->
                    (Float.nan, "error: " ^ Printexc.to_string exn)
            in
            { algo;
              case_name = spec.Gen.name;
              n_cells = n;
              optimal;
              measured;
              ratio = measured /. optimal;
              status })
          algos)
      scales
  in
  { seed; a_c; points }

let to_json sweep =
  Json.Obj
    [ ("schema", Json.Str "twmc-peko-gap v1");
      ("seed", Json.Int sweep.seed);
      ("a_c", Json.Int sweep.a_c);
      ( "points",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [ ("algo", Json.Str p.algo);
                   ("case", Json.Str p.case_name);
                   ("n_cells", Json.Int p.n_cells);
                   ("optimal", Json.Num p.optimal);
                   ("measured", Json.Num p.measured);
                   ("ratio", Json.Num p.ratio);
                   ("status", Json.Str p.status) ])
             sweep.points) ) ]

let to_json_string sweep = Json.to_string (to_json sweep) ^ "\n"

(* ------------------------------------------------------ tolerance bands *)

type band = { b_algo : string; b_n_cells : int; max_ratio : float }

let bands_header = "twmc-peko-tolerance v1"

let bands_to_string bands =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (bands_header ^ "\n");
  List.iter
    (fun b ->
      Printf.bprintf buf "%s %d %.6f\n" b.b_algo b.b_n_cells b.max_ratio)
    bands;
  Buffer.contents buf

let bands_of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  match lines with
  | [] -> Error "empty tolerance file"
  | header :: rest when header = bands_header ->
      let rec parse acc = function
        | [] -> Ok (List.rev acc)
        | line :: tl -> (
            match String.split_on_char ' ' line with
            | [ algo; n; r ] -> (
                match (int_of_string_opt n, float_of_string_opt r) with
                | Some b_n_cells, Some max_ratio
                  when b_n_cells > 0 && max_ratio >= 1.0 ->
                    parse ({ b_algo = algo; b_n_cells; max_ratio } :: acc) tl
                | _ -> Error (Printf.sprintf "bad tolerance line %S" line))
            | _ -> Error (Printf.sprintf "bad tolerance line %S" line))
      in
      parse [] rest
  | header :: _ -> Error (Printf.sprintf "bad tolerance header %S" header)

let bless ?(margin = 1.25) sweep =
  List.filter_map
    (fun p ->
      if p.status = "ok" && Float.is_finite p.ratio then
        Some
          { b_algo = p.algo;
            b_n_cells = p.n_cells;
            max_ratio = p.ratio *. margin }
      else None)
    sweep.points

let scales_of_bands bands =
  List.map (fun b -> b.b_n_cells) bands |> List.sort_uniq Stdlib.compare

let algos_of_bands bands =
  let present = List.map (fun b -> b.b_algo) bands in
  let known = List.filter (fun a -> List.mem a present) all_algos in
  let unknown =
    List.sort_uniq Stdlib.compare
      (List.filter (fun a -> not (List.mem a all_algos)) present)
  in
  known @ unknown

let gate sweep bands =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun p ->
      if p.status <> "ok" then
        add "%s on %s: %s" p.algo p.case_name p.status
      else if not (Float.is_finite p.ratio) then
        add "%s on %s: non-finite quality ratio" p.algo p.case_name
      else begin
        if p.ratio < 1.0 -. 1e-9 then
          add
            "%s on %s: ratio %.6f is below 1 — measured TEIL %.6g beats the \
             certified optimum %.6g, so the certificate or the measurement \
             is broken"
            p.algo p.case_name p.ratio p.measured p.optimal;
        match
          List.find_opt
            (fun b -> b.b_algo = p.algo && b.b_n_cells = p.n_cells)
            bands
        with
        | None ->
            add "%s on %s: no blessed tolerance band (re-bless with --bless)"
              p.algo p.case_name
        | Some b ->
            if p.ratio > b.max_ratio then
              add
                "%s on %s: quality regressed — ratio %.6f exceeds the \
                 blessed %.6f"
                p.algo p.case_name p.ratio b.max_ratio
      end)
    sweep.points;
  List.iter
    (fun b ->
      if
        not
          (List.exists
             (fun p -> p.algo = b.b_algo && p.n_cells = b.b_n_cells)
             sweep.points)
      then
        add "band %s@%d cells: no sweep point covers it (coverage loss)"
          b.b_algo b.b_n_cells)
    bands;
  List.rev !violations

(* The constructed-optima (PEKO) harness: certificate checker properties,
   adversarial certificate corruptions, the lower-bound invariant under
   legal perturbations, the suboptimality sweep + tolerance gate (including
   the pinned regression-catch), the budget-blowout classifier, and the
   committed replay corpus. *)

module Gen = Twmc_workload.Peko
module Peko = Twmc_qa.Peko
module Oracle = Twmc_qa.Oracle
module Sub = Twmc_qa.Suboptimality
module Runner = Twmc_qa.Runner
module Fuzz_case = Twmc_qa.Fuzz_case
module Corpus = Twmc_qa.Corpus
module Fingerprint = Twmc_qa.Fingerprint
module Parser = Twmc_netlist.Parser
module Writer = Twmc_netlist.Writer
module Netlist = Twmc_netlist.Netlist
module Net = Twmc_netlist.Net
module Rect = Twmc_geometry.Rect
module Rng = Twmc_sa.Rng

let checkb = Alcotest.(check bool)

let spec ?(n = 16) ?(locality = 0.7) ?(utilization = 0.5) () =
  { Gen.default_spec with Gen.n_cells = n; locality; utilization }

let oracle_names failures =
  List.map (fun f -> f.Oracle.oracle) failures |> List.sort_uniq compare

(* ------------------------------------------------- checker properties *)

let qcheck_checker_accepts_every_construction =
  QCheck.Test.make ~name:"checker accepts every constructed case" ~count:50
    QCheck.(
      quad (int_range 2 50) (int_range 0 10) (int_range 1 10) (int_range 0 9999))
    (fun (n0, loc10, util10, seed) ->
      let n = max 2 n0 in
      let locality = float_of_int (min 10 (max 0 loc10)) /. 10.0 in
      let utilization = float_of_int (min 10 (max 1 util10)) /. 10.0 in
      let nl, cert = Gen.generate ~seed (spec ~n ~locality ~utilization ()) in
      Oracle.check_certificate nl cert = [])

let qcheck_construction_deterministic_per_seed =
  QCheck.Test.make ~name:"construction is deterministic per seed" ~count:30
    QCheck.(pair (int_range 2 40) (int_range 0 9999))
    (fun (n0, seed) ->
      let n = max 2 n0 in
      let nl_a, cert_a = Gen.generate ~seed (spec ~n ()) in
      let nl_b, cert_b = Gen.generate ~seed (spec ~n ()) in
      Fingerprint.netlist nl_a = Fingerprint.netlist nl_b
      && Gen.certificate_to_string cert_a = Gen.certificate_to_string cert_b)

let qcheck_fingerprint_stable_across_roundtrip =
  QCheck.Test.make ~name:"fingerprint stable across parse/write round-trip"
    ~count:30
    QCheck.(pair (int_range 2 40) (int_range 0 9999))
    (fun (n0, seed) ->
      let n = max 2 n0 in
      let nl, _cert = Gen.generate ~seed (spec ~n ()) in
      let nl' = Parser.parse_string (Writer.to_string nl) in
      Fingerprint.netlist nl = Fingerprint.netlist nl')

(* --------------------------------------------- adversarial corruptions *)

let base () = Gen.generate ~seed:7 (spec ~n:16 ())

let test_rejects_overlap () =
  let nl, cert = base () in
  (* Slide cell 1 onto cell 0: overlapping, and the achieved TEIL moves. *)
  let positions = Array.copy cert.Gen.positions in
  positions.(1) <- cert.Gen.positions.(0);
  let bad = { cert with Gen.positions } in
  let names = oracle_names (Oracle.check_certificate nl bad) in
  checkb "overlap-free oracle fires" true
    (List.mem "peko-overlap-free" names)

let test_rejects_out_of_core () =
  let nl, cert = base () in
  let positions = Array.copy cert.Gen.positions in
  let x, y = positions.(0) in
  positions.(0) <- (x + (10 * cert.Gen.core.Rect.x1), y);
  let bad = { cert with Gen.positions } in
  let names = oracle_names (Oracle.check_certificate nl bad) in
  checkb "in-core oracle fires" true (List.mem "peko-in-core" names)

let test_rejects_false_claim () =
  let nl, cert = base () in
  (* Claim a better optimum than the bound allows: both the re-derived
     bound and the achieves oracle must disagree. *)
  let bad = { cert with Gen.optimal_teil = cert.Gen.optimal_teil /. 2.0 } in
  let names = oracle_names (Oracle.check_certificate nl bad) in
  checkb "bound oracle fires" true (List.mem "peko-bound" names);
  checkb "achieves oracle fires" true (List.mem "peko-achieves" names)

let test_rejects_perturbed_placement () =
  let nl, cert = base () in
  (* A Mutate-style displacement move: push one cell a pitch-and-a-half
     sideways.  Still inside the core, but it collides with its row
     neighbor and the achieved TEIL changes. *)
  let s = cert.Gen.spec.Gen.cell_side in
  let positions = Array.copy cert.Gen.positions in
  let x, y = positions.(5) in
  positions.(5) <- (x + s + (s / 2), y);
  let bad = { cert with Gen.positions } in
  checkb "perturbed placement rejected" true
    (Oracle.check_certificate nl bad <> [])

let test_rejects_wrong_netlist () =
  (* A certificate for a different instance of the same size: the nets
     differ, so the claimed optimum no longer matches this netlist. *)
  let nl, _ = Gen.generate ~seed:7 (spec ~n:16 ()) in
  let _, cert_other = Gen.generate ~seed:8 (spec ~n:16 ()) in
  checkb "foreign certificate rejected" true
    (Oracle.check_certificate nl cert_other <> [])

(* The certified optimum is a true lower bound: any overlap-free
   re-arrangement of the cells — here random permutations of the packed
   grid slots, the exhaustive family of legal same-footprint placements —
   must have TEIL >= the certificate's claim. *)
let test_lower_bound_under_legal_perturbations () =
  let nl, cert = Gen.generate ~seed:3 (spec ~n:20 ()) in
  let rng = Rng.create ~seed:99 in
  let n = Array.length cert.Gen.positions in
  let teil_of positions =
    let total = ref 0.0 in
    Array.iter
      (fun (net : Net.t) ->
        let minx = ref max_int and maxx = ref min_int in
        let miny = ref max_int and maxy = ref min_int in
        Array.iter
          (fun (r : Net.pin_ref) ->
            let x, y = positions.(r.Net.cell) in
            if x < !minx then minx := x;
            if x > !maxx then maxx := x;
            if y < !miny then miny := y;
            if y > !maxy then maxy := y)
          net.Net.pins;
        total := !total +. float_of_int (!maxx - !minx + (!maxy - !miny)))
      nl.Netlist.nets;
    !total
  in
  for trial = 1 to 200 do
    let perm = Array.copy cert.Gen.positions in
    Rng.shuffle rng perm;
    let teil = teil_of perm in
    if teil < cert.Gen.optimal_teil -. 1e-9 then
      Alcotest.failf
        "trial %d: permuted placement TEIL %.3f beats the certified optimum \
         %.3f"
        trial teil cert.Gen.optimal_teil
  done;
  (* Local Mutate-style swaps of adjacent cells, not just global shuffles. *)
  let swapped = Array.copy cert.Gen.positions in
  for _ = 1 to 50 do
    let i = Rng.int_incl rng 0 (n - 1) and j = Rng.int_incl rng 0 (n - 1) in
    let t = swapped.(i) in
    swapped.(i) <- swapped.(j);
    swapped.(j) <- t;
    let teil = teil_of swapped in
    checkb "swap keeps TEIL above the optimum" true
      (teil >= cert.Gen.optimal_teil -. 1e-9)
  done

(* ------------------------------------------------------ sweep and gate *)

let test_sweep_ratios_at_least_one () =
  let sweep = Sub.run ~algos:[ "stage1" ] ~a_c:2 ~scales:[ 9; 16 ] ~seed:5 () in
  Alcotest.(check int) "points" 2 (List.length sweep.Sub.points);
  List.iter
    (fun p ->
      checkb "status ok" true (p.Sub.status = "ok");
      checkb "ratio >= 1" true (p.Sub.ratio >= 1.0 -. 1e-9))
    sweep.Sub.points

let test_sweep_deterministic () =
  let s1 = Sub.run ~algos:[ "shelf" ] ~scales:[ 16 ] ~seed:5 () in
  let s2 = Sub.run ~algos:[ "shelf" ] ~scales:[ 16 ] ~seed:5 () in
  Alcotest.(check string)
    "sweep JSON byte-identical" (Sub.to_json_string s1) (Sub.to_json_string s2)

let test_sweep_json_parses_back () =
  let sweep = Sub.run ~algos:[ "shelf" ] ~scales:[ 9 ] ~seed:5 () in
  match Twmc_obs.Report.parse_json (String.trim (Sub.to_json_string sweep)) with
  | Twmc_obs.Report.Obj fields ->
      checkb "has schema" true (List.mem_assoc "schema" fields);
      checkb "has points" true (List.mem_assoc "points" fields)
  | _ -> Alcotest.fail "sweep JSON did not parse back to an object"

(* A failed point carries a nan measurement and ratio; the written sweep
   must still parse, with the non-finite values as strings. *)
let test_sweep_json_errored_point () =
  let point status measured =
    { Sub.algo = "shelf"; case_name = "peko-9"; n_cells = 9; optimal = 100.0;
      measured; ratio = measured /. 100.0; status }
  in
  let sweep =
    { Sub.seed = 5; a_c = 8;
      points = [ point "ok" 120.0; point "error: Failure(\"boom\")" nan ] }
  in
  let module R = Twmc_obs.Report in
  match R.parse_json (Sub.to_json_string sweep) with
  | exception Failure m -> Alcotest.failf "sweep JSON does not parse: %s" m
  | R.Obj fields -> (
      match List.assoc_opt "points" fields with
      | Some (R.List [ R.Obj ok; R.Obj failed ]) ->
          checkb "finite ratio is a number" true
            (List.assoc "ratio" ok = R.Num 1.2);
          checkb "nan measured is the string \"nan\"" true
            (List.assoc "measured" failed = R.Str "nan");
          checkb "nan ratio is the string \"nan\"" true
            (List.assoc "ratio" failed = R.Str "nan")
      | _ -> Alcotest.fail "expected two point objects")
  | _ -> Alcotest.fail "sweep JSON is not an object"

let test_bands_roundtrip () =
  let bands =
    [ { Sub.b_algo = "stage1"; b_n_cells = 25; max_ratio = 2.5 };
      { Sub.b_algo = "slicing"; b_n_cells = 100; max_ratio = 10.125 } ]
  in
  match Sub.bands_of_string (Sub.bands_to_string bands) with
  | Error m -> Alcotest.failf "band round-trip failed: %s" m
  | Ok bands' ->
      Alcotest.(check int) "count" 2 (List.length bands');
      List.iter2
        (fun a b ->
          checkb "algo" true (a.Sub.b_algo = b.Sub.b_algo);
          checkb "cells" true (a.Sub.b_n_cells = b.Sub.b_n_cells);
          checkb "ratio" true
            (Float.abs (a.Sub.max_ratio -. b.Sub.max_ratio) < 1e-6))
        bands bands'

let test_bands_reject_garbage () =
  checkb "empty rejected" true (Result.is_error (Sub.bands_of_string ""));
  checkb "bad header rejected" true
    (Result.is_error (Sub.bands_of_string "nope v9\nstage1 25 2.5\n"));
  checkb "sub-1 ratio rejected" true
    (Result.is_error
       (Sub.bands_of_string "twmc-peko-tolerance v1\nstage1 25 0.5\n"))

let test_gate_passes_within_band_and_flags_coverage () =
  let sweep = Sub.run ~algos:[ "stage1" ] ~a_c:2 ~scales:[ 16 ] ~seed:5 () in
  let bands = Sub.bless ~margin:1.05 sweep in
  Alcotest.(check (list string)) "same sweep passes its own band" []
    (Sub.gate sweep bands);
  (* A band with no covering point is a coverage loss, and vice versa. *)
  let extra =
    { Sub.b_algo = "stage1"; b_n_cells = 999; max_ratio = 2.0 } :: bands
  in
  checkb "uncovered band flagged" true (Sub.gate sweep extra <> []);
  checkb "unblessed point flagged" true (Sub.gate sweep [] <> [])

(* The acceptance-criteria pin: a seeded quality regression — collapsing
   the annealing effort — must be caught by the gate.  Deterministic: both
   sweeps are pure functions of (seed, a_c, scale). *)
let test_gate_catches_seeded_quality_regression () =
  let good = Sub.run ~algos:[ "stage1" ] ~a_c:8 ~scales:[ 25 ] ~seed:1 () in
  let bands = Sub.bless ~margin:1.05 good in
  Alcotest.(check (list string)) "healthy run passes" [] (Sub.gate good bands);
  let degraded =
    Sub.run ~algos:[ "stage1" ] ~a_c:1 ~scales:[ 25 ] ~seed:1 ()
  in
  let violations = Sub.gate degraded bands in
  checkb "regressed run is caught" true (violations <> []);
  checkb "violation names the regression" true
    (List.exists
       (fun v ->
         let has sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length v && (String.sub v i n = sub || go (i + 1))
           in
           go 0
         in
         has "regressed")
       violations)

(* ------------------------------------------------ budget classification *)

let test_classify_budget () =
  checkb "no budget, no blowout" true
    (Runner.classify_budget ~budget_s:None ~elapsed_s:1.0e6 = None);
  (* Deliberately tiny budget: the threshold is 5·b + 10. *)
  let tiny = Some 0.01 in
  checkb "within threshold" true
    (Runner.classify_budget ~budget_s:tiny ~elapsed_s:10.0 = None);
  (match Runner.classify_budget ~budget_s:tiny ~elapsed_s:10.1 with
  | Some (Runner.Budget_blowout e) ->
      checkb "carries elapsed" true (Float.abs (e -. 10.1) < 1e-9)
  | _ -> Alcotest.fail "10.1 s against a 0.01 s budget must classify");
  (match Runner.classify_budget ~budget_s:(Some 2.0) ~elapsed_s:25.0 with
  | Some (Runner.Budget_blowout _) -> ()
  | _ -> Alcotest.fail "25 s against a 2 s budget must classify");
  checkb "exactly at threshold is tolerated" true
    (Runner.classify_budget ~budget_s:(Some 2.0) ~elapsed_s:20.0 = None);
  checkb "budget key" true
    (Runner.failure_key (Runner.Budget_blowout 11.0) = "budget")

(* ------------------------------------------------- fuzz-case wiring *)

let test_fuzz_case_peko_roundtrip () =
  let c = { Fuzz_case.default with Fuzz_case.peko = 16 } in
  (match Fuzz_case.of_string (Fuzz_case.to_string c) with
  | Ok c' -> checkb "peko field survives" true (c'.Fuzz_case.peko = 16)
  | Error m -> Alcotest.failf "round-trip failed: %s" m);
  (* Old-format case files (no peko line) still parse, defaulting to off. *)
  match Fuzz_case.of_string "twmc-qa-case v1\nseed 3\ncells 4\n" with
  | Ok c' -> checkb "missing peko defaults to 0" true (c'.Fuzz_case.peko = 0)
  | Error m -> Alcotest.failf "legacy parse failed: %s" m

let test_fuzz_case_peko_certificate_gating () =
  let c = { Fuzz_case.default with Fuzz_case.peko = 9 } in
  checkb "pristine case carries a certificate" true
    (Fuzz_case.peko_certificate c <> None);
  checkb "mutated case does not" true
    (Fuzz_case.peko_certificate
       { c with Fuzz_case.mutations = [ Twmc_workload.Mutate.Heavy_net 4 ] }
    = None);
  checkb "squeezed core does not" true
    (Fuzz_case.peko_certificate { c with Fuzz_case.core_scale = 0.5 } = None);
  (* The netlist really is the constructed instance: its certificate
     verifies against it. *)
  match (Fuzz_case.netlist c, Fuzz_case.peko_certificate c) with
  | Ok nl, Some cert ->
      Alcotest.(check (list string)) "certificate checks out" []
        (List.map (fun f -> f.Oracle.oracle) (Oracle.check_certificate nl cert))
  | Error m, _ -> Alcotest.failf "peko case rejected: %s" m
  | _, None -> Alcotest.fail "no certificate"

let test_fuzz_sampler_draws_peko_cases () =
  let rng = Rng.create ~seed:4 in
  let drew = ref 0 in
  for _ = 1 to 300 do
    let c = Fuzz_case.generate ~rng in
    if c.Fuzz_case.peko > 0 then begin
      incr drew;
      checkb "peko cases carry no mutations" true
        (c.Fuzz_case.mutations = []);
      checkb "peko cases keep the full core" true
        (c.Fuzz_case.core_scale >= 0.999)
    end
  done;
  checkb "sampler draws peko cases" true (!drew > 0)

let test_peko_case_runs_clean_with_lower_bound_oracle () =
  let c =
    { Fuzz_case.default with Fuzz_case.peko = 9; a_c = 2; seed = 11 }
  in
  match Runner.run c with
  | Runner.Passed _ -> ()
  | o -> Alcotest.failf "peko case did not pass: %a" Runner.pp_outcome o

(* ------------------------------------------------------ replay corpus *)

let corpus_dir = "../corpus"

let test_committed_corpus_replays () =
  let cases, unreadable = Corpus.load_dir corpus_dir in
  Alcotest.(check (list (pair string string)))
    "every committed case reads" [] unreadable;
  checkb "corpus present" true (List.length cases >= 2);
  checkb "corpus has peko cases" true
    (List.exists (fun (_, c) -> c.Fuzz_case.peko > 0) cases);
  checkb "corpus has constrained cases" true
    (List.length (List.filter (fun (_, c) -> Fuzz_case.constrained c) cases)
    >= 3);
  List.iter
    (fun (path, c) ->
      match Runner.run c with
      | Runner.Failed _ as o ->
          Alcotest.failf "%s failed: %a" path Runner.pp_outcome o
      | _ -> ())
    cases

(* ------------------------------------------------------- pair file IO *)

let test_pair_save_load () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "twmc-peko-test" in
  let nl, cert = Gen.generate ~seed:13 (Peko.spec_of_scale 9) in
  let path = Peko.save ~dir nl cert in
  match Peko.load path with
  | Error m -> Alcotest.failf "load failed: %s" m
  | Ok (nl', cert') ->
      Alcotest.(check string)
        "netlist round-trips" (Fingerprint.netlist nl) (Fingerprint.netlist nl');
      Alcotest.(check (list string)) "certificate still verifies" []
        (List.map
           (fun f -> f.Oracle.oracle)
           (Oracle.check_certificate nl' cert'))

let () =
  let qt = List.map (QCheck_alcotest.to_alcotest ~long:false) in
  Alcotest.run "peko"
    [ ( "checker",
        qt
          [ qcheck_checker_accepts_every_construction;
            qcheck_construction_deterministic_per_seed;
            qcheck_fingerprint_stable_across_roundtrip ] );
      ( "adversarial",
        [ Alcotest.test_case "rejects overlap" `Quick test_rejects_overlap;
          Alcotest.test_case "rejects out-of-core" `Quick
            test_rejects_out_of_core;
          Alcotest.test_case "rejects false claim" `Quick
            test_rejects_false_claim;
          Alcotest.test_case "rejects perturbed placement" `Quick
            test_rejects_perturbed_placement;
          Alcotest.test_case "rejects foreign certificate" `Quick
            test_rejects_wrong_netlist;
          Alcotest.test_case "lower bound under legal perturbations" `Quick
            test_lower_bound_under_legal_perturbations ] );
      ( "sweep",
        [ Alcotest.test_case "ratios at least 1" `Quick
            test_sweep_ratios_at_least_one;
          Alcotest.test_case "deterministic" `Quick test_sweep_deterministic;
          Alcotest.test_case "JSON parses back" `Quick
            test_sweep_json_parses_back;
          Alcotest.test_case "sweep JSON with an errored point parses" `Quick
            test_sweep_json_errored_point;
          Alcotest.test_case "bands round-trip" `Quick test_bands_roundtrip;
          Alcotest.test_case "bands reject garbage" `Quick
            test_bands_reject_garbage;
          Alcotest.test_case "gate passes within band" `Quick
            test_gate_passes_within_band_and_flags_coverage;
          Alcotest.test_case "gate catches seeded regression" `Quick
            test_gate_catches_seeded_quality_regression ] );
      ( "runner",
        [ Alcotest.test_case "budget classification" `Quick
            test_classify_budget;
          Alcotest.test_case "fuzz case round-trip" `Quick
            test_fuzz_case_peko_roundtrip;
          Alcotest.test_case "certificate gating" `Quick
            test_fuzz_case_peko_certificate_gating;
          Alcotest.test_case "sampler draws peko" `Quick
            test_fuzz_sampler_draws_peko_cases;
          Alcotest.test_case "peko case passes the runner" `Quick
            test_peko_case_runs_clean_with_lower_bound_oracle ] );
      ( "corpus",
        [ Alcotest.test_case "committed corpus replays" `Quick
            test_committed_corpus_replays;
          Alcotest.test_case "pair save/load" `Quick test_pair_save_load ] ) ]

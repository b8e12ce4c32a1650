(* The QA harness's own tests: fuzz-case serialization, corpus persistence
   and replay determinism, shrinker convergence under an injected bug,
   the metamorphic oracle pack on clean flows, and a short fuzz smoke. *)

module Fuzz_case = Twmc_qa.Fuzz_case
module Runner = Twmc_qa.Runner
module Shrink = Twmc_qa.Shrink
module Corpus = Twmc_qa.Corpus
module Oracle = Twmc_qa.Oracle
module Fuzz = Twmc_qa.Fuzz
module Fingerprint = Twmc_qa.Fingerprint
module Golden = Twmc_qa.Golden
module Mutate = Twmc_workload.Mutate
module Synth = Twmc_workload.Synth
module Flow = Twmc.Flow
module Rng = Twmc_sa.Rng

let small_flow ?(seed = 1) ?(n_cells = 8) () =
  let nl =
    Synth.generate ~seed:3
      { Synth.default_spec with
        Synth.n_cells;
        n_nets = 2 * n_cells;
        n_pins = 5 * n_cells }
  in
  let params =
    { Twmc_place.Params.default with Twmc_place.Params.a_c = 4; m_routes = 6 }
  in
  (nl, Flow.run_resilient ~params ~seed nl)

(* ------------------------------------------------- case serialization *)

let test_case_roundtrip () =
  let rng = Rng.create ~seed:42 in
  for i = 1 to 50 do
    let c = Fuzz_case.generate ~rng in
    match Fuzz_case.of_string (Fuzz_case.to_string c) with
    | Ok c' ->
        Alcotest.(check bool)
          (Printf.sprintf "case %d round-trips" i)
          true (c = c')
    | Error m -> Alcotest.failf "case %d failed to parse back: %s" i m
  done

let test_case_parse_rejects_garbage () =
  (match Fuzz_case.of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty string parsed");
  (match Fuzz_case.of_string "not-a-case v9\nseed 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad header parsed");
  match Fuzz_case.of_string "twmc-qa-case v1\nseed banana\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad seed value parsed"

(* A core scale below zero or a non-finite one, a budget that is not a
   finite positive number, an [a_c] or [replicas] below 1, a negative
   [peko] and a fraction outside [0, 1] are rejected with the key and the
   value rather than crashing the runner later; the bounds themselves are
   valid. *)
let test_case_rejects_bad_numbers () =
  let parse line = Fuzz_case.of_string ("twmc-qa-case v1\n" ^ line ^ "\n") in
  List.iter
    (fun (line, reason) ->
      match parse line with
      | Error m -> Alcotest.(check string) line reason m
      | Ok _ -> Alcotest.failf "%s parsed" line)
    [ ("core_scale -1", "bad value for core_scale: -1");
      ("core_scale nan", "bad value for core_scale: nan");
      ("core_scale inf", "bad value for core_scale: inf");
      ("budget -1", "bad value for budget: -1");
      ("budget 0", "bad value for budget: 0");
      ("budget nan", "bad value for budget: nan");
      ("a_c -3", "bad value for a_c: -3");
      ("a_c 0", "bad value for a_c: 0");
      ("replicas 0", "bad value for replicas: 0");
      ("peko -1", "bad value for peko: -1");
      ("frac_custom nan", "bad value for frac_custom: nan");
      ("frac_custom inf", "bad value for frac_custom: inf");
      ("frac_custom -0.5", "bad value for frac_custom: -0.5");
      ("frac_rect 1.5", "bad value for frac_rect: 1.5");
      ("frac_rect nan", "bad value for frac_rect: nan") ];
  (match parse "core_scale 0" with
  | Ok c ->
      Alcotest.(check (float 0.0)) "core_scale 0" 0.0 c.Fuzz_case.core_scale
  | Error m -> Alcotest.failf "core_scale 0 rejected: %s" m);
  List.iter
    (fun line ->
      match parse line with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s rejected: %s" line m)
    [ "a_c 1"; "replicas 1"; "peko 0"; "frac_custom 0"; "frac_rect 1" ]

(* A golden file's [trace N] counts its [t] lines: a count that is not a
   non-negative integer, or that is one off, is rejected with the key and
   the value; the exact count loads. *)
let test_golden_trace_count () =
  let file count =
    "twmc-golden v1\nname x\ntrace " ^ count ^ "\nt 1 2 3 4 5 0.5\n\
     t 0.5 2 3 4 5 0.25\n"
  in
  List.iter
    (fun (count, reason) ->
      match Golden.of_string (file count) with
      | Error m -> Alcotest.(check string) ("trace " ^ count) reason m
      | Ok _ -> Alcotest.failf "trace %s loaded" count)
    [ ("abc", "bad int value for trace: abc");
      ("-1", "bad trace value: trace -1, need a count >= 0");
      ("1", "bad trace value: trace 1, but the file has 2 t lines");
      ("3", "bad trace value: trace 3, but the file has 2 t lines") ];
  match Golden.of_string (file "2") with
  | Ok g -> Alcotest.(check int) "trace 2" 2 (List.length g.Golden.trace)
  | Error m -> Alcotest.failf "trace 2 rejected: %s" m

let test_case_mutations_roundtrip () =
  let c = { Fuzz_case.default with Fuzz_case.mutations = Mutate.all_kinds } in
  match Fuzz_case.of_string (Fuzz_case.to_string c) with
  | Ok c' ->
      Alcotest.(check int)
        "all mutation kinds survive"
        (List.length Mutate.all_kinds)
        (List.length c'.Fuzz_case.mutations)
  | Error m -> Alcotest.fail m

(* ----------------------------------------------------------- corpus *)

let test_corpus_save_load_replay () =
  let dir = Filename.temp_dir "twmc-qa-corpus" "" in
  let rng = Rng.create ~seed:7 in
  let c1 = Fuzz_case.generate ~rng and c2 = Fuzz_case.generate ~rng in
  let p1 = Corpus.save ~dir ~key:"oracle:test" c1 in
  let p1' = Corpus.save ~dir ~key:"oracle:test" c1 in
  let _p2 = Corpus.save ~dir c2 in
  Alcotest.(check string) "saving the same case is idempotent" p1 p1';
  let entries, unreadable = Corpus.load_dir dir in
  Alcotest.(check int) "two distinct cases stored" 2 (List.length entries);
  Alcotest.(check int) "none unreadable" 0 (List.length unreadable);
  (match Corpus.load_file p1 with
  | Ok c -> Alcotest.(check bool) "file reloads to the same case" true (c = c1)
  | Error m -> Alcotest.fail m);
  (* Replay determinism: running a corpus case twice gives one outcome. *)
  let small =
    { Fuzz_case.default with Fuzz_case.n_cells = 4; n_nets = 6; n_pins = 14 }
  in
  let o1 = Runner.run small and o2 = Runner.run small in
  Alcotest.(check bool) "replay is deterministic" true (o1 = o2)

(* A malformed file in a corpus directory is reported with its reason, not
   dropped: the readable cases still load beside it. *)
let test_corpus_reports_unreadable () =
  let dir = Filename.temp_dir "twmc-qa-corpus" "" in
  let good =
    Corpus.save ~dir (Fuzz_case.generate ~rng:(Rng.create ~seed:7))
  in
  let bad = Filename.concat dir "case-bad.twq" in
  Twmc_util.Atomic_io.write_string bad "twmc-qa-case v1\nseed banana\n";
  let cases, unreadable = Corpus.load_dir dir in
  Alcotest.(check (list string)) "readable case loads" [ good ]
    (List.map fst cases);
  Alcotest.(check (list (pair string string)))
    "unreadable file reported" [ (bad, "bad value for seed: banana") ]
    unreadable

(* ---------------------------------------------------------- shrinker *)

(* An injected bug: the oracle fires whenever the flow produced anything.
   The shrinker must drive the case to the smallest spec that still runs
   the flow — well under the 5-cell acceptance bar. *)
let test_shrinker_converges () =
  let inject (rr : Flow.resilient_result) =
    match rr.Flow.flow with
    | Some _ -> [ { Oracle.oracle = "injected"; detail = "seeded bug" } ]
    | None -> []
  in
  let run c = Runner.run ~extra_oracle:inject c in
  let case =
    { Fuzz_case.default with
      Fuzz_case.n_cells = 12;
      n_nets = 30;
      n_pins = 80;
      mutations = Mutate.all_kinds;
      replicas = 2;
      core_scale = 0.5 }
  in
  (match run case with
  | Runner.Failed kinds ->
      Alcotest.(check string)
        "failure key" "oracle:injected"
        (Runner.failure_key (List.hd kinds))
  | o ->
      Alcotest.failf "seeded case did not fail: %a" Runner.pp_outcome o);
  let shrunk, steps = Shrink.shrink ~run ~key:"oracle:injected" case in
  Alcotest.(check bool) "took shrink steps" true (steps > 0);
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to <= 5 cells (got %d)" shrunk.Fuzz_case.n_cells)
    true
    (shrunk.Fuzz_case.n_cells <= 5);
  Alcotest.(check (list string)) "mutations dropped" []
    (List.map Mutate.to_string shrunk.Fuzz_case.mutations);
  (* The minimized case still fails with the same key, twice over — the
     reproducer is deterministic. *)
  let keys o = Runner.outcome_keys o in
  Alcotest.(check (list string))
    "shrunk case still fails" [ "oracle:injected" ]
    (keys (run shrunk));
  Alcotest.(check (list string))
    "…deterministically" [ "oracle:injected" ]
    (keys (run shrunk))

let test_shrink_preserves_distinct_key () =
  (* An oracle keyed on a property the shrinker could destroy: fires only
     while the case has >= 2 nets.  Shrinking must stop at 2 nets, not
     shrink past the failure. *)
  let inject_nets n (rr : Flow.resilient_result) =
    ignore rr;
    if n >= 2 then [ { Oracle.oracle = "needs-nets"; detail = "n >= 2" } ]
    else []
  in
  let run c = Runner.run ~extra_oracle:(inject_nets c.Fuzz_case.n_nets) c in
  let case =
    { Fuzz_case.default with Fuzz_case.n_cells = 8; n_nets = 12; n_pins = 30 }
  in
  let shrunk, _ = Shrink.shrink ~run ~key:"oracle:needs-nets" case in
  Alcotest.(check int) "stopped at the boundary" 2 shrunk.Fuzz_case.n_nets;
  Alcotest.(check (list string))
    "boundary case still fails" [ "oracle:needs-nets" ]
    (Runner.outcome_keys (run shrunk))

(* ----------------------------------------------------------- oracles *)

let test_oracles_pass_on_clean_flow () =
  let nl, rr = small_flow () in
  (match rr.Flow.flow with
  | None -> Alcotest.fail "flow produced no result"
  | Some r ->
      let fails = Oracle.check_flow r in
      List.iter (fun f -> Format.eprintf "%a@." Oracle.pp_failure f) fails;
      Alcotest.(check int) "oracle pack clean" 0 (List.length fails));
  let ef = Oracle.eta_monotone ~seed:5 nl in
  Alcotest.(check int) "eta-monotone clean" 0 (List.length ef)

let test_oracles_restore_placement () =
  let _nl, rr = small_flow () in
  match rr.Flow.flow with
  | None -> Alcotest.fail "flow produced no result"
  | Some r ->
      let p = r.Flow.stage2.Twmc.Stage2.placement in
      let before = Fingerprint.placement p in
      let c1 = Twmc_place.Placement.c1 p in
      ignore (Oracle.check_placement p);
      Alcotest.(check string)
        "placement untouched by the pack" before (Fingerprint.placement p);
      Alcotest.(check (float 1e-9)) "c1 untouched" c1
        (Twmc_place.Placement.c1 p)

(* The acceptance-criteria mutation test, executable form: corrupt the
   placement's cached state the way a cost-accounting bug would (a cell
   moved behind the accumulators' back) and require the pack to notice.
   DESIGN.md §12 documents the manual source-level variant of this
   experiment. *)
let test_oracles_catch_seeded_accounting_bug () =
  let _nl, rr = small_flow () in
  match rr.Flow.flow with
  | None -> Alcotest.fail "flow produced no result"
  | Some r ->
      let p = r.Flow.stage2.Twmc.Stage2.placement in
      (* Move a cell through the legitimate API, then undo the move with
         a *stale* cost snapshot: positions are new, accumulators old —
         exactly the drift a broken incremental update produces. *)
      let snap = Twmc_place.Placement.snapshot_cost p in
      let x, y = Twmc_place.Placement.cell_pos p 0 in
      Twmc_place.Placement.set_cell p 0 ~x:(x + 1000) ~y:(y + 1000) ();
      Twmc_place.Placement.restore_cost p snap;
      let fails = Oracle.check_placement p in
      Alcotest.(check bool)
        (Printf.sprintf "pack caught the corruption (%d finding(s))"
           (List.length fails))
        true (fails <> []);
      Alcotest.(check bool) "specifically the independent TEIC recomputation"
        true
        (List.exists (fun f -> f.Oracle.oracle = "teic-independent") fails)

(* The constraint-subsystem variant of the mutation test above: drop the
   C4 accumulator updates for a move of a constrained cell (positions new,
   cached per-constraint penalties stale) and require the constraint
   oracles specifically — not just the TEIC recomputation — to notice. *)
let test_oracles_catch_dropped_constraint_penalty () =
  let module Placement = Twmc_place.Placement in
  let module Constr = Twmc_netlist.Constr in
  let nl =
    Synth.generate ~seed:3
      { Synth.default_spec with Synth.n_cells = 8; n_nets = 16; n_pins = 40 }
  in
  let nl =
    Mutate.apply_all
      ~rng:(Rng.create ~seed:(3 lxor 0x5a5a))
      [ Mutate.Conflicting_fixed 1; Mutate.Add_blockages 1 ]
      nl
  in
  let params =
    { Twmc_place.Params.default with Twmc_place.Params.a_c = 4; m_routes = 6 }
  in
  let rr = Flow.run_resilient ~params ~seed:1 nl in
  match rr.Flow.flow with
  | None -> Alcotest.fail "flow produced no result"
  | Some r ->
      let p = r.Flow.stage2.Twmc.Stage2.placement in
      let ci =
        match
          Array.to_list (Placement.constraints p)
          |> List.find_map (function
               | Constr.Fixed { cell; _ } -> Some cell
               | _ -> None)
        with
        | Some ci -> ci
        | None -> Alcotest.fail "mutated netlist carries no fixed constraint"
      in
      (* Move the fixed cell far enough that its Manhattan penalty must
         change, then restore the stale cost snapshot: the cached
         per-constraint penalties no longer match a from-scratch
         evaluation. *)
      let snap = Placement.snapshot_cost p in
      let x, y = Placement.cell_pos p ci in
      Placement.set_cell p ci ~x:(x + 7777) ~y:(y - 7777) ();
      Placement.restore_cost p snap;
      let fails = Oracle.check_placement p in
      Alcotest.(check bool)
        (Printf.sprintf "constraint oracles caught the stale C4 cache (%s)"
           (String.concat "," (List.map (fun f -> f.Oracle.oracle) fails)))
        true
        (List.exists
           (fun f -> f.Oracle.oracle = "constraints-accounting")
           fails)

(* -------------------------------------------------------- fuzz smoke *)

let test_fuzz_smoke () =
  let report = Fuzz.campaign ~seed:1 ~iters:20 () in
  Alcotest.(check int) "ran every case" 20 report.Fuzz.iters_run;
  List.iter
    (fun (f : Fuzz.failure_record) ->
      Format.eprintf "fuzz failure [%s]: %a@." f.Fuzz.key Fuzz_case.pp
        f.Fuzz.case)
    report.Fuzz.failures;
  Alcotest.(check int) "no failures on trunk" 0
    (List.length report.Fuzz.failures);
  Alcotest.(check bool) "most cases complete" true
    (report.Fuzz.clean + report.Fuzz.degraded > 0)

let test_campaign_deterministic () =
  (* Identical (seed, iters) → identical tallies, independent of wall
     clock (no time limit, and all budgets classify as Passed). *)
  let strip (r : Fuzz.report) =
    (r.Fuzz.iters_run, r.Fuzz.clean, r.Fuzz.degraded, r.Fuzz.invalid,
     r.Fuzz.timed_out, r.Fuzz.rejected, List.length r.Fuzz.failures)
  in
  let a = Fuzz.campaign ~seed:11 ~iters:6 () in
  let b = Fuzz.campaign ~seed:11 ~iters:6 () in
  Alcotest.(check bool) "same tallies" true (strip a = strip b)

(* A NaN limit would never expire ([elapsed > nan] is false), so it is
   rejected before any case runs. *)
let test_campaign_rejects_nan_limit () =
  let ran = ref 0 in
  let run _ =
    incr ran;
    Runner.Rejected "unused"
  in
  Alcotest.check_raises "nan limit"
    (Invalid_argument "Fuzz.campaign: time limit is nan, not a number of seconds")
    (fun () -> ignore (Fuzz.campaign ~time_limit_s:Float.nan ~run ~seed:1 ~iters:3 ()));
  Alcotest.(check int) "no case ran" 0 !ran

let () =
  Alcotest.run "qa"
    [ ( "case",
        [ Alcotest.test_case "round-trip" `Quick test_case_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_case_parse_rejects_garbage;
          Alcotest.test_case "mutations round-trip" `Quick
            test_case_mutations_roundtrip;
          Alcotest.test_case "rejects bad numbers" `Quick
            test_case_rejects_bad_numbers ] );
      ( "golden",
        [ Alcotest.test_case "trace count checked" `Quick
            test_golden_trace_count ] );
      ( "corpus",
        [ Alcotest.test_case "save/load/replay" `Quick
            test_corpus_save_load_replay;
          Alcotest.test_case "reports unreadable files" `Quick
            test_corpus_reports_unreadable ] );
      ( "shrink",
        [ Alcotest.test_case "converges under injected bug" `Slow
            test_shrinker_converges;
          Alcotest.test_case "stops at the failure boundary" `Slow
            test_shrink_preserves_distinct_key ] );
      ( "oracle",
        [ Alcotest.test_case "pack passes on clean flow" `Slow
            test_oracles_pass_on_clean_flow;
          Alcotest.test_case "pack restores the placement" `Slow
            test_oracles_restore_placement;
          Alcotest.test_case "pack catches seeded accounting bug" `Slow
            test_oracles_catch_seeded_accounting_bug;
          Alcotest.test_case "pack catches dropped constraint penalty" `Slow
            test_oracles_catch_dropped_constraint_penalty ] );
      ( "fuzz",
        [ Alcotest.test_case "20-case smoke, zero failures" `Slow
            test_fuzz_smoke;
          Alcotest.test_case "campaign is deterministic" `Slow
            test_campaign_deterministic;
          Alcotest.test_case "campaign rejects a nan time limit" `Quick
            test_campaign_rejects_nan_limit ] ) ]

(* TimberWolfMC command-line driver. *)

open Cmdliner

(* Exit codes: 0 clean, 3 degraded result, 4 invalid input, 5 budget
   expired, 6 QA failure, 7 perf regression (1/2/124/125 belong to
   cmdliner). *)
let exit_invalid = 4

let exit_of_status = function
  | Twmc.Flow.Clean -> 0
  | Twmc.Flow.Degraded -> 3
  | Twmc.Flow.Invalid_input -> exit_invalid
  | Twmc.Flow.Timed_out -> 5

(* The flow of a guarded run; when there is none (a lint-fatal netlist, or
   stage 1 failing every retry) the diagnostics go to stderr and the
   process exits as [twmc flow] would. *)
let flow_or_exit (rr : Twmc.Flow.resilient_result) =
  match rr.Twmc.Flow.flow with
  | Some r -> r
  | None ->
      List.iter
        (fun d -> Format.eprintf "%a@." Twmc.Robust.Diagnostic.pp d)
        rr.Twmc.Flow.diagnostics;
      exit (exit_of_status rr.Twmc.Flow.status)

let read_netlist path =
  match Twmc_netlist.Parser.parse_file path with
  | nl -> nl
  | exception e -> (
      match Twmc_netlist.Parser.error_to_string e with
      | Some m ->
          Printf.eprintf "%s\n" m;
          exit exit_invalid
      | None -> (
          match e with
          | Sys_error m ->
              Printf.eprintf "%s\n" m;
              exit exit_invalid
          | Invalid_argument m | Failure m ->
              Printf.eprintf "%s: %s\n" path m;
              exit exit_invalid
          | e -> raise e))

(* ---------------------------------------------------------------- gen *)

let gen_cmd =
  let circuit =
    let names = List.map (fun n -> (n, n)) Twmc_workload.Circuits.names in
    Arg.(
      value
      & opt (some (enum names)) None
      & info [ "circuit" ] ~docv:"NAME"
          ~doc:
            ("The paper's circuit $(docv), "
            ^ doc_alts_enum ~quoted:false names
            ^ "; overrides $(b,--cells), $(b,--nets) and $(b,--pins)."))
  in
  let cells = Arg.(value & opt int 25 & info [ "cells" ] ~docv:"N") in
  let nets = Arg.(value & opt int 100 & info [ "nets" ] ~docv:"N") in
  let pins = Arg.(value & opt int 360 & info [ "pins" ] ~docv:"N") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write here (stdout otherwise).")
  in
  let constraints =
    Arg.(
      value
      & opt (some string) None
      & info [ "constraints" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated constraint mutators applied after generation, \
             e.g. blockage:2,fixpair:1,region0:2 (kinds: blockage keepout \
             fixpair region0 boundary align abut density0).")
  in
  let run circuit cells nets pins seed out constraints =
    let nl =
      match circuit with
      | Some name -> Twmc_workload.Circuits.netlist ~seed name
      | None -> (
          try
            Twmc_workload.Synth.generate ~seed
              { Twmc_workload.Synth.default_spec with
                Twmc_workload.Synth.n_cells = cells;
                n_nets = nets;
                n_pins = pins }
          with Invalid_argument m ->
            Printf.eprintf "%s\n" m;
            exit exit_invalid)
    in
    let nl =
      match constraints with
      | None -> nl
      | Some spec ->
          let parts = String.split_on_char ',' spec in
          let kinds =
            List.map
              (fun s ->
                match Twmc_workload.Mutate.of_string s with
                | Some m when Twmc_workload.Mutate.is_constraint_kind m -> m
                | Some _ | None ->
                    Printf.eprintf "unknown constraint mutator: %s\n" s;
                    exit exit_invalid)
              parts
          in
          Twmc_workload.Mutate.apply_all
            ~rng:(Twmc_sa.Rng.create ~seed:(seed lxor 0x5a5a))
            kinds nl
    in
    match out with
    | Some path ->
        Twmc_netlist.Writer.to_file path nl;
        Format.printf "wrote %a to %s@." Twmc_netlist.Netlist.pp_summary nl path
    | None -> print_string (Twmc_netlist.Writer.to_string nl)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic netlist (.twn)")
    Term.(const run $ circuit $ cells $ nets $ pins $ seed $ out $ constraints)

(* -------------------------------------------------------------- stats *)

let stats_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let nl = read_netlist file in
    Format.printf "%a@." Twmc_netlist.Stats.pp (Twmc_netlist.Stats.of_netlist nl)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print netlist statistics") Term.(const run $ file)

(* -------------------------------------------------------------- check *)

let strict_term =
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Treat lint warnings (W2xx) as fatal.")
  in
  let _lenient =
    Arg.(
      value & flag
      & info [ "lenient" ]
          ~doc:"Only errors are fatal; warnings are reported but pass \
                (default).")
  in
  Term.(const (fun s _ -> s) $ strict $ _lenient)

let check_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run strict file =
    let r = Twmc.Robust.Check.file file in
    List.iter
      (fun d -> Format.eprintf "%a@." Twmc.Robust.Diagnostic.pp d)
      r.Twmc.Robust.Check.diagnostics;
    if Twmc.Robust.Check.ok ~strict r then begin
      (match r.Twmc.Robust.Check.netlist with
      | Some nl -> Format.printf "%s: OK (%a)@." file
                     Twmc_netlist.Netlist.pp_summary nl
      | None -> ());
      exit 0
    end
    else exit exit_invalid
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate a netlist: parse, lint the declarations, build, and lint \
          the result.  Prints one diagnostic per line \
          (file:line: severity[CODE] entity: message); exits 0 when usable, \
          4 otherwise.")
    Term.(const run $ strict_term $ file)

(* ------------------------------------------------------- place / flow *)

(* Integers of at least [lo]; anything else is a usage error. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ ->
        Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let pos_int = int_at_least 1
let nonneg_int = int_at_least 0

(* A budget in seconds: any float but NaN, which would never expire.  A
   negative budget has expired at the start, [inf] never does. *)
let budget_secs =
  let parse s =
    match float_of_string_opt s with
    | Some b when not (Float.is_nan b) -> Ok b
    | _ ->
        Error (`Msg (Printf.sprintf "expected a number of seconds, got %S" s))
  in
  Arg.conv ~docv:"SECS" (parse, Format.pp_print_float)

(* A blessing margin: a finite factor of at least 1, so that every band
   covers the ratio it was blessed from and parses back. *)
let margin_factor =
  let parse s =
    match float_of_string_opt s with
    | Some m when Float.is_finite m && m >= 1.0 -> Ok m
    | _ ->
        Error (`Msg (Printf.sprintf "expected a finite factor >= 1, got %S" s))
  in
  Arg.conv ~docv:"FACTOR" (parse, Format.pp_print_float)

(* --jobs/--replicas: policy (how many annealing replicas compete) is
   separate from mechanism (how many domains execute them), so results
   depend only on --replicas; --jobs is free to match the machine. *)
let parallel_term =
  let jobs =
    Arg.(
      value & opt nonneg_int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for parallel execution (stage-1 replicas, \
             per-net route enumeration).  Results are bit-identical for \
             any value; 0 means the number of cores.")
  in
  let replicas =
    Arg.(
      value & opt pos_int 1
      & info [ "k"; "replicas" ] ~docv:"K"
          ~doc:
            "Independent stage-1 annealing replicas (split RNG streams); \
             the lowest-cost placement wins.  Changes the result; more \
             replicas buy quality, --jobs buys speed.")
  in
  let make jobs replicas =
    ((if jobs = 0 then Domain.recommended_domain_count () else jobs), replicas)
  in
  Term.(const make $ jobs $ replicas)

(* --trace/--metrics: observability outputs.  Instrumentation only reads
   algorithm state, so results are byte-identical with or without these
   flags; [finish] must run before the process exits (it flushes the
   trace and writes the metrics JSON atomically). *)
let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE.jsonl"
          ~doc:
            "Write a structured JSONL trace (spans and points, schema v2) \
             here.  Inspect with $(b,twmc report), watch live with \
             $(b,twmc report tail).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE.json"
          ~doc:
            "Write the run's metrics (counters, gauges, histograms, \
             trajectory series), folded from its trace, as one JSON \
             document here.")
  in
  Term.(const (fun t m -> (t, m)) $ trace $ metrics)

(* The trace is the one record of a run: a [--metrics]-only run records
   into memory, and either way the metrics are the fold over the events
   the run emitted. *)
let make_obs (trace_path, metrics_path) =
  let sink =
    match (trace_path, metrics_path) with
    | Some p, _ -> Twmc_obs.Sink.to_file p
    | None, Some _ -> Twmc_obs.Sink.memory ()
    | None, None -> Twmc_obs.Sink.null
  in
  let finish () =
    Twmc_obs.Sink.close sink;
    Option.iter
      (fun m ->
        let events =
          match trace_path with
          | None ->
              Ok
                (List.map Twmc_obs.Report.of_sink_event
                   (Twmc_obs.Sink.memory_events sink))
          | Some p -> (
              (* A trace path such as /dev/null reads back as nothing; an
                 empty document would look like a run that did no work. *)
              match Twmc_obs.Report.load p with
              | { Twmc_obs.Report.ev = "meta"; _ } :: _ as events -> Ok events
              | _ -> Error (p ^ ": the trace does not read back")
              | exception (Failure e | Sys_error e) -> Error e)
        in
        match events with
        | Ok events ->
            Twmc_util.Atomic_io.write_string m
              (Twmc_obs.Json.to_string (Twmc_obs.Metrics.of_events events)
              ^ "\n")
        | Error e -> Printf.eprintf "twmc: %s not written: %s\n%!" m e)
      metrics_path
  in
  (Twmc_obs.Ctx.create sink, finish)

let params_term =
  let a_c = Arg.(value & opt pos_int 100 & info [ "a-c" ] ~docv:"N"
                   ~doc:"Attempted moves per cell per temperature (paper: 400).") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let m = Arg.(value & opt pos_int 20 & info [ "m-routes" ] ~docv:"M"
                 ~doc:"Alternative routes stored per net.") in
  let make a_c seed m =
    ( { Twmc_place.Params.default with Twmc_place.Params.a_c; m_routes = m; seed },
      seed )
  in
  Term.(const make $ a_c $ seed $ m)

let place_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run (params, seed) (jobs, replicas) obs_spec file =
    let nl = read_netlist file in
    let rng = Twmc_sa.Rng.create ~seed in
    let obs, obs_finish = make_obs obs_spec in
    let r, multi =
      (* Replicas are the only parallel work here: no more domains than
         replicas. *)
      Twmc_util.Domain_pool.with_optional_pool ~jobs:(min jobs replicas) ~obs
        (fun pool ->
          Twmc_place.Stage1.run_replicas ~params ?pool ~obs ~rng ~replicas nl)
    in
    Option.iter
      (fun mr ->
        Format.printf "best-of-%d: replica %d won (costs %s)@." replicas
          mr.Twmc_place.Stage1.best_index
          (String.concat ", "
             (Array.to_list
                (Array.map (Printf.sprintf "%.0f")
                   mr.Twmc_place.Stage1.replica_costs))))
      multi;
    obs_finish ();
    Format.printf
      "stage 1: TEIL=%.0f C1=%.0f residual overlap=%.0f chip=%dx%d (%d \
       temperatures)@."
      r.Twmc_place.Stage1.teil r.Twmc_place.Stage1.c1
      r.Twmc_place.Stage1.residual_overlap
      (Twmc_geometry.Rect.width r.Twmc_place.Stage1.chip)
      (Twmc_geometry.Rect.height r.Twmc_place.Stage1.chip)
      r.Twmc_place.Stage1.temperatures_visited;
    Array.iteri
      (fun ci (c : Twmc_netlist.Cell.t) ->
        let x, y = Twmc_place.Placement.cell_pos r.Twmc_place.Stage1.placement ci in
        let o = Twmc_place.Placement.cell_orient r.Twmc_place.Stage1.placement ci in
        Format.printf "%s %d %d %s@." c.Twmc_netlist.Cell.name x y
          (Twmc_geometry.Orient.to_string o))
      nl.Twmc_netlist.Netlist.cells
  in
  Cmd.v
    (Cmd.info "place" ~doc:"Run stage-1 placement only; print cell positions")
    Term.(const run $ params_term $ parallel_term $ obs_term $ file)

let flow_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let time_budget =
    Arg.(
      value
      & opt (some budget_secs) None
      & info [ "time-budget" ] ~docv:"SECS"
          ~doc:
            "Wall-clock budget for the whole flow; on expiry the best \
             configuration reached so far is returned and the exit code is \
             5.")
  in
  let max_retries =
    Arg.(
      value & opt nonneg_int 2
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Stage-1 retries with perturbed seeds after a failure.")
  in
  let checkpoint_term =
    let dir =
      Arg.(
        value
        & opt (some string) None
        & info [ "checkpoint-dir" ] ~docv:"DIR"
            ~doc:
              "Write crash-durable checkpoints (atomic, fingerprinted) to \
               $(docv)/<netlist>.ckpt: one after stage 1 and one every \
               $(b,--checkpoint-every) stage-2 refinements.")
    in
    let every =
      Arg.(
        value & opt pos_int 1
        & info [ "checkpoint-every" ] ~docv:"N"
            ~doc:"Checkpoint every $(docv)-th stage-2 refinement (default 1).")
    in
    let resume =
      Arg.(
        value & flag
        & info [ "resume" ]
            ~doc:
              "Resume from the checkpoint in $(b,--checkpoint-dir) instead \
               of starting over.  The resumed run reproduces the \
               uninterrupted run's final output byte-for-byte (same params \
               and seed required; enforced by fingerprint).")
    in
    Term.(const (fun d e r -> (d, e, r)) $ dir $ every $ resume)
  in
  let digest =
    Arg.(
      value & flag
      & info [ "digest" ]
          ~doc:
            "Print a $(b,digest <md5>) line over the final placement, \
             routing and costs — the byte-identity witness used by the \
             kill-and-resume checks.")
  in
  let flight =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE.jsonl"
          ~doc:
            "Crash black box: dump the flight recorder's ring of recent \
             events here on any non-clean exit and on the way out of any \
             escaping crash (nothing is written on a clean run).  The dump \
             is a valid trace; inspect with $(b,twmc report).")
  in
  let run (params, seed) (jobs, replicas) strict time_budget_s max_retries
      (ckpt_dir, ckpt_every, resume) digest flight obs_spec file =
    let nl = read_netlist file in
    let obs, obs_finish = make_obs obs_spec in
    let checkpoint =
      Option.map
        (fun dir -> { Twmc.Flow.dir; every = ckpt_every })
        ckpt_dir
    in
    let rr =
      if resume then
        match checkpoint with
        | None ->
            Format.eprintf "twmc flow: --resume requires --checkpoint-dir@.";
            exit 2
        | Some cfg ->
            Twmc.Flow.resume ~params ~strict ?time_budget_s ~jobs
              ~checkpoint:cfg ?flight ~obs
              ~path:(Twmc.Flow.checkpoint_path cfg nl)
              nl
      else
        Twmc.Flow.run_resilient ~params ~seed ~strict ?time_budget_s
          ~max_retries ~jobs ~replicas ?checkpoint ?flight ~obs nl
    in
    obs_finish ();
    List.iter
      (fun d -> Format.eprintf "%a@." Twmc.Robust.Diagnostic.pp d)
      rr.Twmc.Flow.diagnostics;
    (match rr.Twmc.Flow.flow with
    | None ->
        Format.printf "no result (%s)@."
          (Twmc.Flow.status_to_string rr.Twmc.Flow.status)
    | Some r ->
        Format.printf "%a@." Twmc.Flow.pp_result r;
        List.iteri
          (fun i (it : Twmc.Stage2.iteration) ->
            Format.printf
              "refinement %d: %d regions, routed %d/%d nets, L=%d, X=%d, \
               TEIL=%.0f, area=%d@."
              (i + 1) it.Twmc.Stage2.regions it.Twmc.Stage2.routed_nets
              (it.Twmc.Stage2.routed_nets + it.Twmc.Stage2.unroutable_nets)
              it.Twmc.Stage2.route_length it.Twmc.Stage2.route_overflow
              it.Twmc.Stage2.teil_after
              (Twmc_geometry.Rect.area it.Twmc.Stage2.chip_after))
          r.Twmc.Flow.stage2.Twmc.Stage2.iterations;
        if digest then
          Format.printf "digest %s@." (Twmc_qa.Fingerprint.flow r);
        if rr.Twmc.Flow.status <> Twmc.Flow.Clean then
          Format.printf "status: %s@."
            (Twmc.Flow.status_to_string rr.Twmc.Flow.status));
    exit (exit_of_status rr.Twmc.Flow.status)
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:
         "Run the complete two-stage TimberWolfMC flow under the guarded \
          driver (lint, invariant checks, checkpoint/rollback, durable \
          checkpoints with $(b,--checkpoint-dir), resume with \
          $(b,--resume)).  Exit codes: 0 clean, 3 degraded, 4 invalid \
          input, 5 budget expired.")
    Term.(const run $ params_term $ parallel_term $ strict_term $ time_budget
          $ max_retries $ checkpoint_term $ digest $ flight $ obs_term $ file)

(* -------------------------------------------------------------- route *)

let route_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run (params, seed) (jobs, replicas) obs_spec file =
    let nl = read_netlist file in
    let obs, obs_finish = make_obs obs_spec in
    let rr = Twmc.Flow.run_resilient ~params ~seed ~jobs ~replicas ~obs nl in
    obs_finish ();
    match (flow_or_exit rr).Twmc.Flow.stage2.Twmc.Stage2.final_route with
    | None -> Format.printf "no routing produced@."
    | Some route ->
        Format.printf "global routing of %s: L=%d, X=%d, %d/%d nets routed@."
          nl.Twmc_netlist.Netlist.name
          route.Twmc_route.Global_router.total_length
          route.Twmc_route.Global_router.overflow
          (List.length route.Twmc_route.Global_router.routed)
          (List.length route.Twmc_route.Global_router.routed
          + List.length route.Twmc_route.Global_router.unroutable);
        Format.printf "%a@."
          Twmc_route.Congestion.pp
          (Twmc_route.Congestion.of_result route);
        List.iter
          (fun (rn : Twmc_route.Global_router.routed_net) ->
            let net = nl.Twmc_netlist.Netlist.nets.(rn.Twmc_route.Global_router.net) in
            Format.printf "  %-12s len=%-6d edges=%d alternatives=%d@."
              net.Twmc_netlist.Net.name
              rn.Twmc_route.Global_router.route.Twmc_route.Steiner.length
              (List.length rn.Twmc_route.Global_router.route.Twmc_route.Steiner.edges)
              rn.Twmc_route.Global_router.alternatives)
          route.Twmc_route.Global_router.routed
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Run the flow and report the final global routing per net")
    Term.(const run $ params_term $ parallel_term $ obs_term $ file)

(* --------------------------------------------------------------- draw *)

let draw_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let out =
    Arg.(
      value & opt string "layout.svg"
      & info [ "o"; "output" ] ~docv:"SVG" ~doc:"Output SVG path.")
  in
  let what =
    Arg.(
      value
      & opt (enum [ ("placement", `P); ("channels", `C); ("routes", `R) ]) `R
      & info [ "show" ] ~doc:"placement, channels, or routes (default).")
  in
  let run (params, seed) file out what =
    let nl = read_netlist file in
    let r = flow_or_exit (Twmc.Flow.run_resilient ~params ~seed nl) in
    let p = r.Twmc.Flow.stage2.Twmc.Stage2.placement in
    let svg =
      match (what, r.Twmc.Flow.stage2.Twmc.Stage2.final_route) with
      | `P, _ | `C, None | `R, None -> Twmc_viz.Render.placement p
      | `C, Some route ->
          Twmc_viz.Render.channels p route.Twmc_route.Global_router.graph
      | `R, Some route -> Twmc_viz.Render.routed p route
    in
    Twmc_viz.Svg.write out svg;
    Format.printf "wrote %s (TEIL %.0f, area %d)@." out r.Twmc.Flow.teil_final
      r.Twmc.Flow.area_final
  in
  Cmd.v
    (Cmd.info "draw" ~doc:"Run the flow and render the layout as SVG")
    Term.(const run $ params_term $ file $ out $ what)

(* ------------------------------------------------------------- report *)

(* Exit code 7: [report compare] found a kernel slower than its budget —
   distinct from 4 (unreadable or invalid input). *)
let exit_regress = 7

(* Load + validate a trace, or die with 4; shared by summary and health. *)
let load_trace file =
  match Twmc_obs.Report.load file with
  | exception Failure msg ->
      Printf.eprintf "%s\n" msg;
      exit exit_invalid
  | events -> (
      match Twmc_obs.Report.validate events with
      | [] -> events
      | problems ->
          List.iter (fun p -> Printf.eprintf "%s: %s\n" file p) problems;
          exit exit_invalid)

let trace_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.jsonl")

let report_summary_term =
  let run file =
    Format.printf "%a@." Twmc_obs.Report.pp_summary (load_trace file);
    exit 0
  in
  Term.(const run $ trace_file_arg)

let report_summary_cmd =
  Cmd.v
    (Cmd.info "summary"
       ~doc:
         "Validate a --trace JSONL file (schema, balanced spans, monotonic \
          timestamps) and summarize it: per-stage wall time, slowest \
          spans, the stage-1 acceptance curve and the router overflow \
          trend.  Exits 0 when valid, 4 otherwise.  ($(b,twmc report \
          FILE) is shorthand for this command.)")
    report_summary_term

let report_health_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the summary as one JSON document instead of tables.")
  in
  let run json file =
    let h = Twmc_obs.Health.of_events (load_trace file) in
    if json then
      print_endline
        (Twmc_obs.Json.to_string (Twmc_obs.Health.to_json h))
    else Format.printf "%a@." Twmc_obs.Health.pp h;
    exit 0
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Derive anneal-health diagnostics from a --trace file: the \
          acceptance curve against the paper's target profile, per \
          move-class efficacy, the range-limiter trajectory, estimator \
          convergence and router overflow decay, plus findings when any of \
          them is off-profile.  Exits 0 when the trace is valid (findings \
          are advisory), 4 otherwise.")
    Term.(const run $ json $ trace_file_arg)

let report_compare_cmd =
  let old_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json")
  in
  let new_file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json")
  in
  let max_regress =
    Arg.(
      value & opt float 25.0
      & info [ "max-regress" ] ~docv:"PCT"
          ~doc:
            "Regression budget: a kernel more than $(docv) percent slower \
             than the old snapshot fails the gate (default 25).")
  in
  let run max_regress old_file new_file =
    let load p =
      match Twmc_obs.Report.load_bench p with
      | kernels -> kernels
      | exception Failure m ->
          Printf.eprintf "%s\n" m;
          exit exit_invalid
    in
    let c =
      Twmc_obs.Report.compare_benches ~max_regress_pct:max_regress
        (load old_file) (load new_file)
    in
    Format.printf "%a@." Twmc_obs.Report.pp_bench_comparison c;
    exit (if c.Twmc_obs.Report.regressions = [] then 0 else exit_regress)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two bench-kernel snapshots (the \
          $(b,{\"kernels\":[...]}) JSON written by \
          $(b,bench/main.exe -- micro --json)) and gate on slowdowns.  \
          Exits 0 inside the budget, 7 when any kernel regressed by more \
          than $(b,--max-regress) percent, 4 on unreadable input.")
    Term.(const run $ max_regress $ old_file $ new_file)

let report_tail_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.jsonl")
  in
  let no_follow =
    Arg.(
      value & flag
      & info [ "no-follow" ]
          ~doc:
            "Render what is in the file now and exit instead of waiting \
             for more data.")
  in
  let run no_follow file =
    let st = Twmc_obs.Progress.create () in
    let pending = Buffer.create 4096 in
    let chunk = Bytes.create 65536 in
    let feed_line line =
      (* A live writer can leave the last line torn or mid-flush; skip
         anything unparsable rather than dying on it. *)
      if String.trim line <> "" then
        match
          Twmc_obs.Report.event_of_json (Twmc_obs.Report.parse_json line)
        with
        | exception Failure _ -> ()
        | e -> (
            match Twmc_obs.Progress.feed st e with
            | Some msg ->
                print_endline msg;
                flush stdout
            | None -> ())
    in
    let drain () =
      let s = Buffer.contents pending in
      let rec go start =
        match String.index_from_opt s start '\n' with
        | None -> start
        | Some nl ->
            feed_line (String.sub s start (nl - start));
            go (nl + 1)
      in
      let consumed = go 0 in
      if consumed > 0 then begin
        let rest = String.sub s consumed (String.length s - consumed) in
        Buffer.clear pending;
        Buffer.add_string pending rest
      end
    in
    let fd =
      try Unix.openfile file [ Unix.O_RDONLY ] 0
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "%s: %s\n" file (Unix.error_message e);
        exit exit_invalid
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        (* Incremental reads off a raw fd: unlike an in_channel, EOF does
           not latch, so the same loop follows a file that is still being
           written. *)
        let rec loop () =
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n > 0 then begin
            Buffer.add_subbytes pending chunk 0 n;
            drain ();
            loop ()
          end
          else if no_follow || Twmc_obs.Progress.finished st then ()
          else begin
            Unix.sleepf 0.2;
            loop ()
          end
        in
        loop ());
    exit 0
  in
  Cmd.v
    (Cmd.info "tail"
       ~doc:
         "Follow a --trace file as it is written and render one status \
          line per interesting event (temperatures, route passes, the \
          winning replica, the terminal status); stops when the trace \
          records the flow's end.  With $(b,--no-follow), render what is \
          there and exit.")
    Term.(const run $ no_follow $ file)

let report_cmd =
  Cmd.group
    ~default:report_summary_term
    (Cmd.info "report"
       ~doc:
         "Trace and bench analytics.  With just a FILE.jsonl, validate the \
          --trace file (schema, balanced spans, monotonic timestamps) and \
          summarize it: per-stage wall time, slowest spans, the stage-1 \
          acceptance curve and the router overflow trend (exit 0 when \
          valid, 4 otherwise).  Subcommands: $(b,health) for anneal-health \
          diagnostics, $(b,compare) for the bench-regression gate, \
          $(b,tail) to watch a live run.")
    [ report_summary_cmd; report_health_cmd; report_compare_cmd;
      report_tail_cmd ]

(* --------------------------------------------------------- experiment *)

let experiment_cmd =
  let which =
    Arg.(
      required
      & pos 0
          (some
             (enum
                (List.map (fun n -> (n, n))
                   ("all" :: Twmc_experiments.names))))
          None
      & info [] ~docv:"EXPERIMENT")
  in
  let profile =
    Arg.(
      value
      & opt (enum [ ("quick", Twmc_experiments.Profile.quick);
                    ("full", Twmc_experiments.Profile.full) ])
          Twmc_experiments.Profile.quick
      & info [ "profile" ] ~doc:"quick (scaled-down) or full (paper-scale).")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-dir" ] ~docv:"DIR" ~doc:"Also write CSV outputs here.")
  in
  let run which profile csv_dir =
    let ppf = Format.std_formatter in
    let csv name =
      Option.map (fun d -> Filename.concat d (name ^ ".csv")) csv_dir
    in
    match Twmc_experiments.find which with
    | Some run -> run ~csv profile ppf
    | None ->
        (* "all": the enum admits no other unknown name. *)
        List.iter
          (fun (_, run) ->
            run ~csv profile ppf;
            Format.fprintf ppf "@.")
          Twmc_experiments.all
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce a table or figure from the paper")
    Term.(const run $ which $ profile $ csv_dir)

(* ----------------------------------------------------------------- qa *)

(* Exit code 6: the QA harness found a failure (fuzz case, corpus replay,
   or golden drift) — distinct from the flow's own 3/4/5 statuses. *)
let exit_qa_failure = 6

let qa_fuzz_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Campaign seed; fixed (seed, iters) replays identically.")
  in
  let iters =
    Arg.(value & opt pos_int 200 & info [ "iters" ] ~docv:"N"
           ~doc:"Number of random cases to run.")
  in
  let corpus =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Save shrunk reproducers of any failure here.")
  in
  let time_limit =
    Arg.(value & opt (some budget_secs) None
         & info [ "time-limit" ] ~docv:"SECS"
             ~doc:"Stop the campaign after this much wall clock.")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet" ] ~doc:"Suppress the per-case progress line.")
  in
  let run seed iters corpus time_limit quiet =
    let progress i c outcome =
      if not quiet then
        Format.printf "case %d: %a -> %a@." i Twmc_qa.Fuzz_case.pp c
          Twmc_qa.Runner.pp_outcome outcome
    in
    let report =
      Twmc_qa.Fuzz.campaign ?corpus_dir:corpus ?time_limit_s:time_limit
        ~progress ~seed ~iters ()
    in
    Format.printf "%a@." Twmc_qa.Fuzz.pp_report report;
    exit (if report.Twmc_qa.Fuzz.failures = [] then 0 else exit_qa_failure)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Drive random adversarial circuits through the resilient flow, \
          checking the metamorphic oracle pack, determinism across --jobs \
          and budget compliance; failures are shrunk to minimal \
          reproducers.  Exit 0 when every case passes, 6 otherwise.")
    Term.(const run $ seed $ iters $ corpus $ time_limit $ quiet)

let qa_replay_cmd =
  let target =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE|DIR"
           ~doc:"A case file or a corpus directory.")
  in
  let run target =
    if not (Sys.file_exists target) then begin
      Printf.eprintf "%s: no such file or directory\n" target;
      exit exit_invalid
    end;
    let cases, unreadable =
      if Sys.is_directory target then Twmc_qa.Corpus.load_dir target
      else
        match Twmc_qa.Corpus.load_file target with
        | Ok c -> ([ (target, c) ], [])
        | Error m -> ([], [ (target, m) ])
    in
    List.iter (fun (path, m) -> Printf.eprintf "%s: %s\n%!" path m) unreadable;
    if cases = [] && unreadable = [] then
      Format.printf "no cases under %s@." target;
    let failed = ref 0 in
    List.iter
      (fun (path, c) ->
        let outcome = Twmc_qa.Runner.run c in
        (match outcome with
        | Twmc_qa.Runner.Failed _ -> incr failed
        | _ -> ());
        Format.printf "%s: %a@." path Twmc_qa.Runner.pp_outcome outcome)
      cases;
    exit
      (if !failed > 0 then exit_qa_failure
       else if unreadable <> [] then exit_invalid
       else 0)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run saved fuzz case(s); still-failing entries are open bugs.  \
          A case file that cannot be read is reported as $(i,path): \
          $(i,reason) and the readable cases still run.  Exit 6 when a \
          case fails, else 4 when a file was unreadable, else 0.")
    Term.(const run $ target)

let qa_shrink_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run file =
    match Twmc_qa.Corpus.load_file file with
    | Error m ->
        Printf.eprintf "%s: %s\n" file m;
        exit exit_invalid
    | Ok c -> (
        match Twmc_qa.Runner.run c with
        | Twmc_qa.Runner.Failed kinds ->
            let key = Twmc_qa.Runner.failure_key (List.hd kinds) in
            let shrunk, steps =
              Twmc_qa.Shrink.shrink ~run:Twmc_qa.Runner.run ~key c
            in
            Format.printf "%d shrink step(s), failure key %s@." steps key;
            print_string (Twmc_qa.Fuzz_case.to_string shrunk);
            exit 0
        | o ->
            Format.printf "case does not fail (%a); nothing to shrink@."
              Twmc_qa.Runner.pp_outcome o;
            exit exit_invalid)
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Minimize a failing case while preserving its failure key; prints \
          the shrunk case to stdout.")
    Term.(const run $ file)

let golden_dirs_term =
  let golden_dir =
    Arg.(value & opt string "test/golden"
         & info [ "golden-dir" ] ~docv:"DIR")
  in
  let netlists_dir =
    Arg.(value & opt string "examples/netlists"
         & info [ "netlists-dir" ] ~docv:"DIR"
             ~doc:"Where the example .twn circuits live.")
  in
  Term.(const (fun g n -> (g, n)) $ golden_dir $ netlists_dir)

(* The golden targets read the example circuits lazily; surface a missing
   directory or netlist as a diagnostic, never a backtrace. *)
let golden_load name load =
  try load ()
  with Sys_error m | Failure m ->
    Printf.eprintf "%s: %s\n" name m;
    exit exit_invalid

let qa_bless_cmd =
  let run (golden_dir, netlists_dir) =
    List.iter
      (fun (name, load) ->
        let g = Twmc_qa.Golden.capture ~name (golden_load name load) in
        let path = Filename.concat golden_dir (name ^ ".golden") in
        Twmc_util.Atomic_io.mkdir_p golden_dir;
        Twmc_util.Atomic_io.write_string path (Twmc_qa.Golden.to_string g);
        Format.printf "blessed %s (%d trace steps, status %s)@." path
          (List.length g.Twmc_qa.Golden.trace)
          g.Twmc_qa.Golden.status)
      (Twmc_qa.Golden.targets ~netlists_dir);
    exit 0
  in
  Cmd.v
    (Cmd.info "bless"
       ~doc:
         "Run every golden target under the QA profile and overwrite the \
          stored records — do this only when a behavior change is \
          intended, and commit the result.")
    Term.(const run $ golden_dirs_term)

let qa_diff_cmd =
  let run (golden_dir, netlists_dir) =
    let drift = ref 0 in
    List.iter
      (fun (name, load) ->
        let path = Filename.concat golden_dir (name ^ ".golden") in
        if not (Sys.file_exists path) then begin
          incr drift;
          Format.printf "%s: no golden record at %s@." name path
        end
        else
          match
            Twmc_qa.Golden.of_string
              (In_channel.with_open_text path In_channel.input_all)
          with
          | Error m ->
              incr drift;
              Format.printf "%s: unreadable golden: %s@." name m
          | Ok expected -> (
              let actual =
                Twmc_qa.Golden.capture ~name (golden_load name load)
              in
              match Twmc_qa.Golden.diff ~expected ~actual with
              | [] -> Format.printf "%s: ok@." name
              | lines ->
                  incr drift;
                  Format.printf "%s: DRIFT@." name;
                  List.iter (fun l -> Format.printf "  %s@." l) lines))
      (Twmc_qa.Golden.targets ~netlists_dir);
    if !drift > 0 then begin
      Format.printf
        "%d golden target(s) drifted.  If the change is intentional, %s@."
        !drift Twmc_qa.Golden.rebless_hint;
      exit exit_qa_failure
    end;
    exit 0
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Re-run every golden target and compare against the stored \
          records.  Exit 0 when identical, 6 on drift (with a readable \
          field-by-field diff).")
    Term.(const run $ golden_dirs_term)

let qa_chaos_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Campaign seed; fixed (seed, plans) replays identically.")
  in
  let plans =
    Arg.(value & opt pos_int 100 & info [ "plans" ] ~docv:"N"
           ~doc:"Number of fault-injection plans to run.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Save a replayable artifact and a flight-recorder dump \
                   for every survivor here.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the progress dots.")
  in
  let run seed plans out quiet =
    let progress i =
      if (not quiet) && i mod 10 = 0 then (print_char '.'; flush stdout)
    in
    let report = Twmc_qa.Chaos.campaign ?out_dir:out ~progress ~seed ~plans () in
    if not quiet then print_newline ();
    Format.printf "%a@." Twmc_qa.Chaos.pp_report report;
    exit (if report.Twmc_qa.Chaos.survivors = [] then 0 else exit_qa_failure)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fuzz deterministic fault-injection plans (stage exceptions, \
          simulated deadline expiry, torn/short/transient checkpoint \
          writes) through the resilient flow with durable checkpointing, \
          asserting it always terminates in a typed status with \
          diagnostics and never leaves a corrupt checkpoint.  Exit 0 when \
          every plan is contained, 6 otherwise.")
    Term.(const run $ seed $ plans $ out $ quiet)

let qa_gap_cmd =
  let module Sub = Twmc_qa.Suboptimality in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Sweep seed; a fixed (seed, a-c, scales) sweep is \
                 byte-identical across runs.")
  in
  let a_c =
    Arg.(value & opt pos_int 8 & info [ "a-c" ] ~docv:"N"
           ~doc:"Attempted moves per cell per temperature for the annealing \
                 algorithms.  The tolerance band is only meaningful at the \
                 a-c it was blessed with.")
  in
  let scales =
    Arg.(value & opt (some (list int)) None
         & info [ "scales" ] ~docv:"N,N,..."
             ~doc:"Case sizes (cells) to sweep.  Default: the scales the \
                   tolerance file covers, or 25,49,100 when blessing from \
                   scratch.")
  in
  let algos =
    Arg.(value & opt (some (list string)) None
         & info [ "algos" ] ~docv:"NAME,..."
             ~doc:"Algorithms to measure (stage1, stage2, shelf, spectral, \
                   slicing).  Default: the algorithms the tolerance file \
                   covers, or all of them when blessing from scratch.")
  in
  let tolerance =
    Arg.(value & opt string "test/golden/peko.tolerance"
         & info [ "tolerance" ] ~docv:"FILE"
             ~doc:"The blessed tolerance band to gate against.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the sweep's quality-ratio curves here as JSON.")
  in
  let bless =
    Arg.(value & flag
         & info [ "bless" ]
             ~doc:"Overwrite the tolerance file from this sweep instead of \
                   gating — do this only for an intended quality change, \
                   and commit the result.")
  in
  let margin =
    Arg.(value & opt margin_factor 1.25
         & info [ "margin" ] ~docv:"FACTOR"
             ~doc:"Blessing headroom: each band is the measured ratio times \
                   this factor.")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet" ] ~doc:"Suppress the per-measurement progress line.")
  in
  let run seed a_c scales algos tolerance out bless margin quiet =
    let existing_bands =
      if Sys.file_exists tolerance then
        match
          Sub.bands_of_string
            (In_channel.with_open_text tolerance In_channel.input_all)
        with
        | Ok bands -> Some bands
        | Error m ->
            Printf.eprintf "%s: %s\n" tolerance m;
            exit exit_invalid
      else None
    in
    let scales =
      match (scales, existing_bands) with
      | Some s, _ -> s
      | None, Some bands -> Sub.scales_of_bands bands
      | None, None -> Twmc_qa.Peko.default_scales
    in
    let algos =
      match (algos, existing_bands) with
      | Some a, _ -> Some a
      | None, Some bands -> Some (Sub.algos_of_bands bands)
      | None, None -> None
    in
    let progress line =
      if not quiet then (Printf.printf "  %s\n" line; flush stdout)
    in
    let sweep =
      try Sub.run ?algos ~a_c ~progress ~scales ~seed ()
      with Invalid_argument m ->
        Printf.eprintf "%s\n" m;
        exit exit_invalid
    in
    List.iter
      (fun p ->
        Format.printf "%-9s %-9s optimal %10.0f  measured %12.1f  ratio %s  %s@."
          p.Sub.algo p.Sub.case_name p.Sub.optimal p.Sub.measured
          (if Float.is_finite p.Sub.ratio then
             Printf.sprintf "%6.3f" p.Sub.ratio
           else "   n/a")
          (if p.Sub.status = "ok" then "" else p.Sub.status))
      sweep.Sub.points;
    (match out with
    | None -> ()
    | Some path ->
        Twmc_util.Atomic_io.mkdir_p (Filename.dirname path);
        Twmc_util.Atomic_io.write_string path (Sub.to_json_string sweep);
        Format.printf "wrote %s@." path);
    if bless then begin
      (* Refuse to bless a sweep that is itself broken: every point must
         have run, and no ratio may undercut the certified optimum. *)
      let broken =
        List.filter
          (fun p ->
            p.Sub.status <> "ok" || not (Float.is_finite p.Sub.ratio)
            || p.Sub.ratio < 1.0 -. 1e-9)
          sweep.Sub.points
      in
      if broken <> [] then begin
        List.iter
          (fun p ->
            Format.printf "cannot bless %s on %s: %s (ratio %g)@." p.Sub.algo
              p.Sub.case_name p.Sub.status p.Sub.ratio)
          broken;
        exit exit_qa_failure
      end;
      Twmc_util.Atomic_io.mkdir_p (Filename.dirname tolerance);
      Twmc_util.Atomic_io.write_string tolerance
        (Sub.bands_to_string (Sub.bless ~margin sweep));
      Format.printf "blessed %s (%d bands, margin %.2f) — commit it@."
        tolerance
        (List.length sweep.Sub.points)
        margin;
      exit 0
    end;
    match existing_bands with
    | None ->
        Printf.eprintf
          "%s: no blessed tolerance band; run with --bless to create one\n"
          tolerance;
        exit exit_invalid
    | Some bands -> (
        match Sub.gate sweep bands with
        | [] ->
            Format.printf "quality gate: %d point(s) within the blessed band@."
              (List.length sweep.Sub.points);
            exit 0
        | violations ->
            Format.printf "quality gate: %d violation(s)@."
              (List.length violations);
            List.iter (fun v -> Format.printf "  %s@." v) violations;
            exit exit_qa_failure)
  in
  Cmd.v
    (Cmd.info "gap"
       ~doc:
         "Measure the quality gap — TEIL over the certified optimum — of \
          every placement algorithm on constructed-optima (PEKO) cases and \
          gate the ratios against the blessed tolerance band.  Exit 0 \
          inside the band, 6 on a regression or an impossible (< 1) ratio.")
    Term.(const run $ seed $ a_c $ scales $ algos $ tolerance $ out $ bless
          $ margin $ quiet)

let qa_cmd =
  Cmd.group
    (Cmd.info "qa"
       ~doc:
         "Correctness tooling: fuzzing with shrinking, metamorphic \
          oracles, chaos fault-injection campaigns, the constructed-optima \
          quality gate, and the golden-trajectory store.")
    [ qa_fuzz_cmd; qa_replay_cmd; qa_shrink_cmd; qa_chaos_cmd; qa_bless_cmd;
      qa_diff_cmd; qa_gap_cmd ]

let () =
  (* Back-compat: [twmc report FILE.jsonl] predates the report subcommands;
     a first operand that is not a subcommand name routes to [summary]. *)
  let argv =
    let a = Sys.argv in
    if
      Array.length a >= 3
      && a.(1) = "report"
      && (match a.(2) with
         | "summary" | "health" | "compare" | "tail" -> false
         | s -> String.length s > 0 && s.[0] <> '-')
    then
      Array.concat
        [ [| a.(0); "report"; "summary" |]; Array.sub a 2 (Array.length a - 2) ]
    else a
  in
  let info =
    Cmd.info "twmc" ~version:"1.0.0"
      ~doc:
        "TimberWolfMC: macro/custom-cell chip planning, placement and global \
         routing by simulated annealing (Sechen, DAC 1988)"
  in
  exit
    (Cmd.eval ~argv (Cmd.group info
       [ gen_cmd; check_cmd; stats_cmd; place_cmd; flow_cmd; route_cmd;
         draw_cmd; report_cmd; experiment_cmd; qa_cmd ]))
